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

:func:`deterministic_totals` is the part of a run report two runs of
one program must agree on, whatever the host measured.
"""

from ..errors import PlanError

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


def deterministic_totals(totals):
    """A report entry's ``totals`` without the keys read off measured
    wall-clock (retry and straggler detection), which legitimately vary
    run to run."""
    measured = ("retries", "stragglers", "failed_attempt_seconds")
    return {
        key: value for key, value in totals.items()
        if key not in measured
    }
