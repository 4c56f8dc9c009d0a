"""Trace invariants: the structural contract between executor and cost model.

The cost model trusts the execution trace blindly, so the executor must
produce traces shaped like what a Spark scheduler would report.  This
module states that contract as checkable invariants and verifies them --
the executor runs :func:`validate_job` after every completed job, and
the bench harness re-validates whole traces before converting them to
simulated seconds.

Invariants checked per job:

* **Stage kinds** come from the known vocabulary (``input``, ``shuffle``,
  ``union``, ``coalesce``, ``cached``) and stage ids are consecutive.
* **Counts are non-negative**: task records, shuffle reads/writes, spills.
* **Narrow stages do not shuffle**: only ``shuffle`` stages may carry
  shuffle read/write volumes.
* **Every shuffled record is credited exactly once**: a shuffle stage
  reads exactly what the map side wrote for it
  (``shuffle_read_records == shuffle_write_records``), and its tasks
  process at least every record read.  A wide operator therefore
  schedules exactly one reduce stage -- the cogroup double-count this
  guards against left a second, already-folded stage in the job.
* **Shuffle reads never exceed upstream writes**: a stage cannot read
  more records over the network than earlier stages of the job produced.
* **Shuffle stages name their origin**: every scheduled reduce stage
  records the wide plan node that opened it.
* **Runtime measurements are sane**: measured per-task seconds, retry
  counts, and straggler counts are non-negative.

This module also hosts the differential runner every cross-run check
shares: :func:`run_configs` executes one program on a fresh context per
config and returns a :class:`Run` record each, and :data:`INVARIANTS`
names what :func:`check_runs` can require two runs to agree on.  The
test suite's table of execution choices (caching, backend, chain body,
shuffle elision) drives it, one reference run against one chosen run.
"""

from collections import Counter
from dataclasses import dataclass, fields
from operator import attrgetter, eq, ge

from ..errors import PlanError
from ..observe.report import entry_from_context

#: Stage kinds the executor may emit.  ``input``/``shuffle`` stages are
#: scheduled task sets; ``union``/``coalesce``/``cached`` are narrow
#: continuations whose work is credited to consuming stages.
VALID_STAGE_KINDS = frozenset(
    {"input", "shuffle", "union", "coalesce", "cached"}
)

SCHEDULED_STAGE_KINDS = frozenset({"input", "shuffle"})


class TraceInvariantError(PlanError):
    """A recorded trace violates the executor/cost-model contract."""


def _fail(job, stage, message):
    where = "job %d" % job.job_id
    if stage is not None:
        where += ", stage %d (%s)" % (stage.stage_id, stage.kind)
    raise TraceInvariantError("%s: %s" % (where, message))


def validate_stage(job, stage, upstream_records):
    """Check one stage; ``upstream_records`` is the total record count of
    the job's earlier stages."""
    if stage.kind not in VALID_STAGE_KINDS:
        _fail(job, stage, "unknown stage kind %r" % stage.kind)
    lowest = min(stage.task_records.amounts, default=0)
    if lowest < 0:
        _fail(job, stage, "negative task record count %d" % lowest)
    if stage.shuffle_read_records < 0:
        _fail(job, stage, "negative shuffle read volume")
    if stage.shuffle_write_records < 0:
        _fail(job, stage, "negative shuffle write volume")
    if stage.spilled_records < 0:
        _fail(job, stage, "negative spill volume")
    if stage.shuffle_records_saved < 0:
        _fail(job, stage, "negative elided-shuffle volume")
    if min(stage.task_seconds.amounts, default=0.0) < 0:
        _fail(job, stage, "negative measured task seconds")
    if stage.task_retries < 0:
        _fail(job, stage, "negative task retry count")
    if stage.straggler_tasks < 0:
        _fail(job, stage, "negative straggler count")
    if stage.kind != "shuffle":
        if stage.shuffle_read_records or stage.shuffle_write_records:
            _fail(
                job, stage,
                "narrow %r stage carries shuffle volume" % stage.kind,
            )
        if stage.shuffle_records_saved:
            _fail(
                job, stage,
                "narrow %r stage claims elided-shuffle savings"
                % stage.kind,
            )
        return
    if not stage.origin:
        _fail(
            job, stage,
            "shuffle stage does not name the wide operator that "
            "opened it",
        )
    if stage.shuffle_read_records != stage.shuffle_write_records:
        _fail(
            job, stage,
            "reads %d records but the map side wrote %d -- each "
            "shuffled record must be credited exactly once"
            % (stage.shuffle_read_records, stage.shuffle_write_records),
        )
    if stage.total_records < stage.shuffle_read_records:
        _fail(
            job, stage,
            "tasks process %d records but read %d from the shuffle"
            % (stage.total_records, stage.shuffle_read_records),
        )
    if stage.shuffle_read_records > upstream_records:
        _fail(
            job, stage,
            "reads %d records but upstream stages only produced %d"
            % (stage.shuffle_read_records, upstream_records),
        )


def validate_job(job):
    """Check every invariant for one completed job."""
    upstream = 0
    for index, stage in enumerate(job.stages):
        if stage.stage_id != index:
            _fail(
                job, stage,
                "stage ids not consecutive (expected %d)" % index,
            )
        validate_stage(job, stage, upstream)
        upstream += stage.total_records
    for name in ("broadcast_records", "broadcast_meta_records",
                 "collected_records", "saved_records",
                 "saved_meta_records"):
        if getattr(job, name) < 0:
            _fail(job, None, "negative %s" % name)


def validate_trace(trace):
    """Check every job of an :class:`~repro.engine.metrics.ExecutionTrace`."""
    for job in trace.jobs:
        validate_job(job)
    return trace


# ----------------------------------------------------------------------
# Differential runs: one runner, one table of invariants
# ----------------------------------------------------------------------


def _nonzero(ledger):
    return ledger.n, tuple(
        (index, amount)
        for index, amount in zip(ledger.live, ledger.amounts)
        if amount
    )


def trace_signature(trace):
    """The backend-independent shape of a trace.

    Everything the cost model consumes -- stage kinds, per-task record
    counts, shuffle/spill volumes, broadcast and action counters -- but
    none of the measured quantities (wall-clock, retries, stragglers),
    which legitimately differ between backends and runs.  A stage's
    record counts read ``(num_tasks, ((task, records), ...))`` over its
    tasks with records: a run under a fault plan, which dispatches --
    and credits -- every task, empty or not, reads as a clean one.
    """
    signature = []
    for job in trace.jobs:
        stages = tuple(
            (
                stage.kind,
                stage.meta,
                stage.origin,
                _nonzero(stage.task_records),
                stage.shuffle_read_records,
                stage.shuffle_write_records,
                stage.shuffle_records_saved,
                stage.spilled_records,
            )
            for stage in job.stages
        )
        signature.append(
            (
                job.action,
                job.label,
                stages,
                job.broadcast_records,
                job.broadcast_meta_records,
                job.collected_records,
                job.saved_records,
                job.saved_meta_records,
            )
        )
    return tuple(signature)


@dataclass(frozen=True)
class Run:
    """Everything observable about one execution of ``name`` under
    ``config``: what the program returned, its :func:`trace_signature`,
    the cost model's simulated seconds, the run-report totals, and a
    ``Counter`` of optimizer decisions keyed ``"kind/choice"``."""

    name: str
    config: object
    result: object
    signature: tuple
    simulated_seconds: float
    totals: dict
    decisions: Counter


def run_configs(program, configs, name="<program>"):
    """Run ``program`` on a fresh context per config; one :class:`Run` each.

    The single place differential checks execute programs: every run's
    trace is validated, and every context is closed -- tracer sinks
    flushed, runtimes released -- even when the program or the
    validation raises.
    """
    from .context import EngineContext

    runs = []
    for config in configs:
        ctx = EngineContext(config)
        try:
            result = program(ctx)
            validate_trace(ctx.trace)
            entry = entry_from_context(ctx, "differential", name)
            runs.append(
                Run(
                    name=name,
                    config=config,
                    result=result,
                    signature=trace_signature(ctx.trace),
                    simulated_seconds=entry["simulated_seconds"],
                    totals=entry["totals"],
                    decisions=Counter(
                        "%s/%s" % (decision.kind, decision.choice)
                        for decision in ctx.optimizer_decisions
                    ),
                )
            )
        finally:
            ctx.close()
    return runs


def _stage_kinds(run):
    return [
        (action, label, [stage[0] for stage in stages])
        for action, label, stages, *_counters in run.signature
    ]


def _job_shuffles(run):
    return [
        sum(stage[4] for stage in stages)
        for _action, _label, stages, *_counters in run.signature
    ]


def deterministic_totals(totals):
    """A report entry's ``totals`` without the keys read off measured
    wall-clock (retry and straggler detection), which legitimately vary
    run to run."""
    measured = ("retries", "stragglers", "failed_attempt_seconds")
    return {
        key: value for key, value in totals.items()
        if key not in measured
    }


#: The named invariants a config change may be required to preserve:
#: ``name -> (what, view, holds)``.  ``view(run)`` picks the quantity
#: out of a :class:`Run`, ``holds(base, variant)`` says whether two such
#: quantities agree (``None``: by the caller's notion of equal results),
#: ``what`` names it in the error.  ``sim_not_slower`` and
#: ``shuffle_not_more`` are directional: the variant is the optimized
#: side.
INVARIANTS = {
    "results": ("results", attrgetter("result"), None),
    "signature": ("trace signatures", attrgetter("signature"), eq),
    "sim_equal": (
        "simulated seconds", attrgetter("simulated_seconds"), eq,
    ),
    "sim_not_slower": (
        "simulated seconds (the variant is slower)",
        attrgetter("simulated_seconds"),
        lambda base, variant: variant <= base + 1e-9,
    ),
    "stage_kinds": ("jobs or stage kinds", _stage_kinds, eq),
    "shuffle_not_more": (
        "per-job shuffle volumes (the variant shuffles more)",
        _job_shuffles,
        lambda base, variant: all(map(ge, base, variant)),
    ),
    "totals": (
        "deterministic totals",
        lambda run: deterministic_totals(run.totals),
        eq,
    ),
}


def config_difference(base, variant):
    """``"field=a -> b, ..."`` over the config fields that differ."""
    return ", ".join(
        "%s=%r -> %r" % (
            f.name, getattr(base, f.name), getattr(variant, f.name),
        )
        for f in fields(base)
        if getattr(base, f.name) != getattr(variant, f.name)
    )


def check_runs(base, variant, invariants, results_equal=eq):
    """Raise ``AssertionError`` unless ``variant`` preserves each named
    invariant of ``base``; ``results_equal`` decides when two results
    agree."""
    for name in invariants:
        what, view, holds = INVARIANTS[name]
        ours, theirs = view(base), view(variant)
        if not (holds or results_equal)(ours, theirs):
            raise AssertionError(
                "%s [%s]: different %s:\n%r\nvs\n%r" % (
                    base.name,
                    config_difference(base.config, variant.config),
                    what, ours, theirs,
                )
            )
