"""The differential harness: shared programs, result comparison, the
one differential runner and the one table of execution choices.

:func:`library_programs` is the registry: one seeded, small program per
:mod:`repro.tasks` entry point.  :func:`results_equivalent` compares two
program results up to partitioning artifacts.  :func:`run_configs` runs
one program on a fresh context per config and returns a :class:`Run`
record each, and :data:`INVARIANTS` names what :func:`check_runs` can
require two runs to agree on.  Each row of :data:`CHOICES` makes one
choice about how a program executes and names the invariants the
chosen run keeps against a reference run that makes it nowhere;
:func:`run_choice` runs and checks one row.  One row is a setting
(backend): the two runs' configs differ in it.  Two are choices the
executor makes by itself (which body a fused chain runs, which
shuffles it elides), so the reference run moves a seam instead -- the
compile threshold, the elision planner.
"""

import math
import sys
from collections import Counter
from dataclasses import dataclass, fields
from operator import attrgetter, eq, ge
from typing import NamedTuple

from repro.data import generators as gen
from repro.engine import EngineContext, codegen, executor, laptop_config
from repro.engine.validate import deterministic_totals, validate_trace
from repro.observe.report import entry_from_context
from repro.tasks import (
    avg_distances, bounce_rate, graphs, kmeans, matrix, pagerank,
)


# ----------------------------------------------------------------------
# Program registry: the whole repro.tasks library, seeded and small
# ----------------------------------------------------------------------


def _bounce_rate_flat(ctx):
    visits = ctx.bag_of(gen.visits_log(4, 240, seed=7))
    return sorted(bounce_rate.bounce_rate_flat(visits).collect())


def _bounce_rate_nested(ctx):
    visits = ctx.bag_of(gen.visits_log(3, 180, seed=7))
    return sorted(bounce_rate.bounce_rate_nested(visits).collect())


def _bounce_rate_diql(ctx):
    visits = ctx.bag_of(gen.visits_log(3, 150, seed=9))
    return sorted(bounce_rate.bounce_rate_diql(visits).collect())


def _pagerank_parallel(ctx):
    edges = [edge for _group, edge in gen.grouped_edges(2, 80, seed=13)]
    return pagerank.pagerank_parallel(ctx, edges, iterations=3)


def _pagerank_nested(ctx):
    grouped = ctx.bag_of(gen.grouped_edges(3, 90, seed=13))
    return sorted(pagerank.pagerank_nested(grouped, iterations=3).collect())


def _connected_components(ctx):
    edges = ctx.bag_of(gen.component_graph(3, 6, seed=3))
    return sorted(graphs.connected_components(ctx, edges).collect())


def _avg_distances_nested(ctx):
    edges = gen.component_graph(2, 5, seed=3)
    return sorted(avg_distances.avg_distances_nested(ctx, edges).collect())


def _avg_distances_inner(ctx):
    edges = gen.component_graph(2, 4, seed=9)
    return sorted(avg_distances.avg_distances_inner(ctx, edges))


def _kmeans_nested(ctx):
    points = ctx.bag_of(gen.grouped_points(3, 90, 3, seed=11))
    configs = gen.initial_centroids(3, 3, seed=11)
    result = kmeans.kmeans_nested_grouped(points, configs, max_iterations=3)
    return sorted(result.collect())


def _kmeans_parallel(ctx):
    points = gen.clustered_points(60, 3, seed=5)
    centroids = gen.initial_centroids(3, 1, seed=5)[0][1]
    return kmeans.kmeans_parallel(ctx, points, centroids, max_iterations=3)


def _matrix_row_norms(ctx):
    rows = [[(i + j) % 5 + 0.5 for j in range(6)] for i in range(8)]
    return sorted(matrix.row_norms(matrix.matrix_bag(ctx, rows)).collect())


def _matrix_vector(ctx):
    rows = [[(3 * i + j) % 7 for j in range(5)] for i in range(6)]
    vector = ctx.bag_of([(j, float(j + 1)) for j in range(5)])
    bag = matrix.matrix_bag(ctx, rows)
    return sorted(matrix.matrix_vector_product(bag, vector).collect())


#: One program per :mod:`repro.tasks` entry point; each takes a fresh
#: context and returns a deterministic-up-to-partitioning value.
_PROGRAMS = [
    ("bounce-rate-flat", _bounce_rate_flat),
    ("bounce-rate-nested", _bounce_rate_nested),
    ("bounce-rate-diql", _bounce_rate_diql),
    ("pagerank-parallel", _pagerank_parallel),
    ("pagerank-nested", _pagerank_nested),
    ("connected-components", _connected_components),
    ("avg-distances-nested", _avg_distances_nested),
    ("avg-distances-inner", _avg_distances_inner),
    ("kmeans-nested-grouped", _kmeans_nested),
    ("kmeans-parallel", _kmeans_parallel),
    ("matrix-row-norms", _matrix_row_norms),
    ("matrix-vector-product", _matrix_vector),
]


def library_programs(only=None):
    """The registry's ``(name, program)`` pairs; ``only`` keeps the
    names containing any of the given substrings."""
    return [
        (name, program) for name, program in _PROGRAMS
        if not only or any(fragment in name for fragment in only)
    ]


# ----------------------------------------------------------------------
# A cached bag laid out by an earlier run of its origin shuffle
# ----------------------------------------------------------------------


def _phased_groups(ctx):
    """``(S, Y)``: ``S`` groups 400 records by ``x % 16`` into 4
    partitions, and ``Y = S.map_values(len)`` is cached from a first
    job that keeps every record.  Then the phase flips: from there on
    ``S``'s filter drops keys 0-3, so a rerun of ``S`` balances 12 keys
    over the buckets where ``Y``'s partitions were laid out by 16."""
    phase = [0]
    groups = (
        ctx.bag_of(range(400))
        .filter(lambda x: phase[0] == 0 or x % 16 >= 4)
        .map(lambda x: (x % 16, x))
        .group_by_key(4)
    )
    sizes = groups.map_values(len).cache()
    sizes.collect()
    phase[0] = 1
    return groups, sizes


def stale_layout_adopt_program(ctx):
    """``S`` recomputed, then a join adopting the cached ``Y``'s
    layout: the other side goes to the buckets ``Y`` was built with."""
    groups, sizes = _phased_groups(ctx)
    groups.collect()
    other = ctx.bag_of([(k, -k) for k in range(16)])
    return sorted(sizes.join(other, num_partitions=4).collect())


def stale_layout_elide_both_program(ctx):
    """A join of the cached ``Y`` with this job's rerun of ``S``: both
    sides trace back to ``S``, but were laid out by two of its runs."""
    groups, sizes = _phased_groups(ctx)
    negated = groups.map_values(lambda v: -len(v))
    return sorted(sizes.join(negated, num_partitions=4).collect())


# ----------------------------------------------------------------------
# Result comparison
# ----------------------------------------------------------------------


def _blurred(value):
    """Round floats so ulp-level drift cannot change sort order."""
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, (tuple, list)):
        return type(value)(_blurred(v) for v in value)
    return value


def _canonical(value):
    """Sort lists recursively: cross-partition order is not meaning."""
    if isinstance(value, list):
        return sorted(
            (_canonical(v) for v in value),
            key=lambda v: repr(_blurred(v)),
        )
    if isinstance(value, tuple):
        return tuple(_canonical(v) for v in value)
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
    return value


def _approx_equal(a, b, rel_tol=1e-9, abs_tol=1e-12):
    if isinstance(a, float) or isinstance(b, float):
        return (
            isinstance(a, (int, float)) and isinstance(b, (int, float))
            and math.isclose(a, b, rel_tol=rel_tol, abs_tol=abs_tol)
        )
    if isinstance(a, dict) and isinstance(b, dict):
        return set(a) == set(b) and all(
            _approx_equal(a[k], b[k]) for k in a
        )
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(
            _approx_equal(x, y) for x, y in zip(a, b)
        )
    return a == b


def results_equivalent(a, b):
    """Are two program results equal up to partitioning artifacts?

    Lists are compared as multisets (collection order across partitions
    is an executor artifact) and floats with a tight relative tolerance
    (driver-side folds sum partitions in layout order).
    """
    return _approx_equal(_canonical(a), _canonical(b))


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


#: The named invariants a config change may be required to preserve:
#: ``name -> (what, view, holds)``.  ``view(run)`` picks the quantity
#: out of a :class:`Run`, ``holds(base, variant)`` says whether two such
#: quantities agree (``None``: by the caller's notion of equal results),
#: ``what`` names it in the error.  ``shuffle_not_more`` is
#: directional: the variant is the optimized side.
INVARIANTS = {
    "results": ("results", attrgetter("result"), None),
    "signature": ("trace signatures", attrgetter("signature"), eq),
    "sim_equal": (
        "simulated seconds", attrgetter("simulated_seconds"), eq,
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


# ----------------------------------------------------------------------
# The table of execution choices
# ----------------------------------------------------------------------


class Choice(NamedTuple):
    """One row: the config overrides of the reference and the chosen
    run, the seam (``seam(monkeypatch, chosen)``, or ``None``) moved
    before each, the invariants the chosen run keeps and the notion of
    equal results, the evidence that a run pair made the choice
    (``made(reference, chosen)``), and the registry programs it holds
    for."""

    reference: dict
    chosen: dict
    seam: object
    preserves: tuple
    results_equal: object
    made: object
    programs: tuple


def disable_elision(monkeypatch):
    """Every later job elides no shuffle: the reference run the
    always-on optimizer is checked against.  Elision is no setting, so
    this moves the rule the executor calls at each wide node."""
    monkeypatch.setattr(
        executor, "choose_elision", lambda node, left, right=None: None
    )


def _decisions(run, prefix):
    return {
        decision for decision in run.decisions
        if decision.startswith(prefix)
    }


def _compile_threshold(monkeypatch, chosen):
    monkeypatch.setattr(
        codegen, "COMPILE_MIN_RECORD_STEPS", 0 if chosen else sys.maxsize
    )


def _elision_planner(monkeypatch, chosen):
    if not chosen:
        disable_elision(monkeypatch)


def _pooled(reference, chosen):
    # A config check only: a run records nothing the process backend
    # alone sets, so this reads back the row's own overrides.
    return (
        reference.config.backend == "serial"
        and chosen.config.backend == "process"
        and chosen.totals["tasks"] > 0
    )


def _compiled(reference, chosen):
    # Every chain was planned; some compiled.
    assert not _decisions(reference, "compiled-pipeline/")
    assert _decisions(chosen, "compiled-pipeline/")
    return "compiled-pipeline/compile" in chosen.decisions


def _elided(reference, chosen):
    assert not _decisions(reference, "shuffle-elision/")
    elided = bool(_decisions(chosen, "shuffle-elision/"))
    assert (chosen.totals["shuffle_records_saved"] > 0) == elided
    assert (
        chosen.totals["shuffle_records"]
        < reference.totals["shuffle_records"]
    ) == elided
    return elided


PROGRAMS = tuple(name for name, _program in _PROGRAMS)

#: One row per execution choice.  Each row runs every registry program
#: with the choice made and again with it made nowhere; see
#: ``docs/analysis.md`` § "Differential verification".
CHOICES = {
    # Where tasks run is invisible to values, strictly, to the trace
    # the cost model reads, and so to simulated seconds; "totals"
    # leaves out the measured retry/straggler counters.  The backend
    # applies to every program, and its evidence is the configs.
    "backend": Choice(
        {"backend": "serial"}, {"backend": "process", "num_workers": 2},
        None, ("results", "signature", "sim_equal", "totals"), eq,
        _pooled, PROGRAMS,
    ),
    # The generated loop must be the interpreter down to the trace.
    "chain-body": Choice(
        {}, {}, _compile_threshold, ("results", "signature", "sim_equal"),
        results_equivalent, _compiled,
        tuple(name for name in PROGRAMS if name != "kmeans-parallel"),
    ),
    # An elided shuffle still opens its (zero-volume) stage, but an
    # adopted layout moves records between tasks: kinds, not counts.
    "elision": Choice(
        {}, {}, _elision_planner,
        ("results", "stage_kinds", "shuffle_not_more"), results_equivalent,
        _elided, (
            "bounce-rate-flat", "pagerank-parallel", "connected-components",
            "avg-distances-nested", "avg-distances-inner",
            "kmeans-nested-grouped",
        ),
    ),
}


def run_choice(choice, program, name="<program>", monkeypatch=None):
    """``[reference, chosen]`` runs of ``program`` for one row, checked
    under the row's invariants; a row with a seam needs
    ``monkeypatch``.  The chosen run goes first: a seam the reference
    moves stays moved."""
    row = CHOICES[choice]
    runs = {}
    for chosen in (True, False):
        if row.seam:
            row.seam(monkeypatch, chosen)
        config = laptop_config(**(row.chosen if chosen else row.reference))
        (runs[chosen],) = run_configs(program, [config], name)
    check_runs(runs[False], runs[True], row.preserves, row.results_equal)
    return [runs[False], runs[True]]
