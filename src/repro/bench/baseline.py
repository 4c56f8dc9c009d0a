"""The engine baseline matrix behind ``--check-regressions``.

A small, fast, fixed grid of (task, scale) cells -- K-means, PageRank,
and Bounce Rate, each in the Matryoshka and inner-parallel formulations
at two group counts, plus a branch-overlap cell exercising the DAG
scheduler, a service-mode pair (``serve-pagerank-cold`` /
``serve-pagerank-warm``) running repeated PageRank jobs through a
long-lived :mod:`repro.serve` daemon, and a reuse-heavy pair
(``reuse-baseline`` / ``reuse-autocache``) where the only difference
is ``optimize_caching``, so the row delta is the simulated seconds the
verified auto-``cache()`` rewrite saves, and a ``pipeline`` cell (a
map/filter-heavy fused chain large enough that the executor compiles
it) -- measured into one
:class:`~repro.observe.RunReport`.  Every
cell runs under both stage schedules (``serial`` and ``dag``; the DAG
rows carry a ``+dag`` system suffix), so the gate holds the DAG
scheduler to the exact same simulated cost as serial execution.  The
committed snapshot lives at ``BENCH_engine.json`` in the repo root.

The regression gate compares **simulated** seconds: the cost model is a
deterministic function of the execution trace, so the committed numbers
are stable across machines and the diff flags genuine cost-model or
planner changes rather than host noise.  Measured wall-clock is stored
in every entry too, for eyeballing, but is not gated by default.  The
``branch-overlap`` cell is where measured wall-clock is interesting: its
plan fans out into independent branches whose tasks carry a fixed
latency, so on the process backend the DAG rows finish in a fraction of
the serial rows' wall time while reporting identical simulated seconds.

Regenerate the snapshot after an intentional cost change::

    python -m repro.bench --emit-baseline

and check the working tree against it::

    python -m repro.bench --check-regressions
"""

import time
from dataclasses import replace

from ..baselines.inner_parallel import group_locally
from ..data import grouped_edges, grouped_points, initial_centroids, visits_log
from ..observe import RunReport
from ..serve import JobService
from ..serve.client import program as service_program
from ..tasks import bounce_rate, kmeans, pagerank
from .figures import _cluster
from .harness import run_measured

#: Where the committed snapshot lives, relative to the repo root.
BASELINE_FILENAME = "BENCH_engine.json"

_K = 4
_KMEANS_ITERS = 4
_PAGERANK_ITERS = 4
_GROUP_COUNTS = (4, 16)
_SCHEDULERS = ("serial", "dag")

#: Per-task latency of one branch in the branch-overlap cell, modelling
#: the fixed remote-fetch cost of that branch's input split.  Real
#: wall-clock (the task sleeps), invisible to the simulated counters.
_BRANCH_TASK_SLEEP_S = 0.05

#: The service-mode cell: how many times the same PageRank program is
#: resubmitted against one daemon, and the warm artifact budget.  The
#: cold row pins ``cache_limit_bytes=0`` so every repeat rebuilds the
#: graph; warm repeats reuse the cached edges/links/vertices artifacts
#: and adopt the links layout instead of reshuffling.
_SERVE_REPEATS = 3
_SERVE_PAGERANK_ITERS = 2
_SERVE_WARM_BYTES = 256 * 1024 * 1024

#: The pipeline cell: records per group.  Large enough that the chain
#: compiles (7 steps x 32,768 records at 4 groups, against
#: ``codegen.COMPILE_MIN_RECORD_STEPS``) and that task bodies, not
#: per-task overhead, set the measured wall-clock.
_PIPELINE_RECORDS_PER_GROUP = 8192

#: The reuse cell: how many identical jobs consume the same shared,
#: deliberately *uncached* feature subtree.  With ``optimize_caching``
#: off every job recomputes the subtree once per consumer; with it on
#: the effect analysis proves the subtree pure and deterministic, the
#: optimizer inserts the ``cache()`` itself, and jobs after the first
#: short-circuit through the materialized partitions.
_REUSE_JOBS = 3


def _scheduled(config, system, scheduler):
    """Apply the scheduler dimension to a cell's config and row name."""
    if scheduler == "serial":
        return config, system
    return config.with_scheduler(scheduler), "%s+%s" % (system, scheduler)


def _kmeans_cell(system, groups, scheduler="serial"):
    config, system = _scheduled(
        _cluster(2.0, 512, overhead=2.0), system, scheduler
    )
    records = grouped_points(groups, 512, _K, seed=11)
    configs = initial_centroids(_K, groups, seed=11)
    kwargs = {"max_iterations": _KMEANS_ITERS, "tolerance": None}
    if system.startswith("kmeans-matryoshka"):
        return run_measured(
            config, system, groups,
            lambda ctx: kmeans.kmeans_nested_grouped(
                ctx.bag_of(records), configs, **kwargs
            ).save(),
        )
    local = group_locally(records)
    return run_measured(
        config, system, groups,
        lambda ctx: kmeans.kmeans_inner(ctx, local, configs, **kwargs),
    )


def _pagerank_cell(system, groups, scheduler="serial"):
    config, system = _scheduled(_cluster(20.0, 1024), system, scheduler)
    records = grouped_edges(groups, 1024, seed=13)
    if system.startswith("pagerank-matryoshka"):
        return run_measured(
            config, system, groups,
            lambda ctx: pagerank.pagerank_nested(
                ctx.bag_of(records), iterations=_PAGERANK_ITERS
            ).save(),
        )
    local = group_locally(records)
    return run_measured(
        config, system, groups,
        lambda ctx: pagerank.pagerank_inner(
            ctx, local, iterations=_PAGERANK_ITERS
        ),
    )


def _bounce_rate_cell(system, groups, scheduler="serial"):
    config, system = _scheduled(
        _cluster(48.0, 2048, overhead=8.0), system, scheduler
    )
    records = visits_log(groups, 2048, seed=23)
    if system.startswith("bounce-matryoshka"):
        return run_measured(
            config, system, groups,
            lambda ctx: bounce_rate.bounce_rate_nested(
                ctx.bag_of(records)
            ).save(),
        )
    local = group_locally(records)
    return run_measured(
        config, system, groups,
        lambda ctx: bounce_rate.bounce_rate_inner(ctx, local),
    )


def _branch_pause(item):
    time.sleep(_BRANCH_TASK_SLEEP_S)
    return item


def _branch_overlap_cell(system, branches, scheduler="serial"):
    """``branches`` independent single-partition pipelines merged by one
    union: the group count doubles as the fan-out width.

    Each branch's only task sleeps for a fixed latency, so the serial
    schedule pays ``branches`` latencies back to back while the DAG
    schedule overlaps them across the worker pool.  The process backend
    and the concurrency knobs are pinned explicitly because the default
    dispatch width is derived from the host CPU count -- the point of
    this cell is scheduling overlap, not host parallelism.
    """
    config = replace(
        _cluster(2.0, 64),
        backend="process",
        num_workers=4,
        max_concurrent_stages=8,
    )
    config, system = _scheduled(config, system, scheduler)

    def program(ctx):
        parts = [
            ctx.bag_of([index], num_partitions=1).map(_branch_pause)
            for index in range(branches)
        ]
        return parts[0].union(*parts[1:]).count()

    return run_measured(config, system, branches, program)


def _serve_pagerank_cell(system, groups, scheduler="serial"):
    """Repeated PageRank jobs through a long-lived :class:`JobService`.

    The service adopts the harness-provided context (``retain_trace=True``
    keeps every job in the live trace so the harness costs and validates
    it as usual) and runs ``_SERVE_REPEATS`` identical submissions of the
    registered ``pagerank`` program on one worker slot.  The only knob
    that differs between the two rows is the artifact budget, so the
    cold-vs-warm delta in simulated seconds is exactly what the cache
    buys.
    """
    config, system = _scheduled(_cluster(20.0, 1024), system, scheduler)
    limit = 0 if system.startswith("serve-pagerank-cold") else _SERVE_WARM_BYTES
    prog = service_program(
        "pagerank",
        num_groups=groups,
        total_edges=1024,
        iterations=_SERVE_PAGERANK_ITERS,
        seed=13,
    )

    def program(ctx):
        service = JobService(
            ctx=ctx,
            num_slots=1,
            cache_limit_bytes=limit,
            seed=1,
            retain_trace=True,
        )
        service.add_tenant("bench")
        service.start()
        try:
            for repeat in range(_SERVE_REPEATS):
                handle = service.submit(
                    "bench", prog, label="repeat-%d" % repeat
                )
                handle.result(timeout=600)
        finally:
            service.shutdown(timeout=600)

    return run_measured(config, system, groups, program)


def _reuse_scale(x):
    return (x * 3 + 1) % 997


def _reuse_shift(x):
    return x - 500


def _auto_cache_cell(system, groups, scheduler="serial"):
    """A reuse-heavy workload: ``_REUSE_JOBS`` jobs over one shared
    uncached subtree with two consumers each.

    The two rows differ only in ``optimize_caching``: the baseline row
    recomputes the shared feature map twice per job, the autocache row
    lets the verified rewrite materialize it once -- the simulated
    delta is exactly what the auto-inserted ``cache()`` buys.  The
    UDFs are module-level and provably pure/deterministic on purpose:
    an unprovable subtree would (correctly) suppress the rewrite and
    collapse the delta to zero.
    """
    config, system = _scheduled(_cluster(2.0, 512), system, scheduler)
    config = replace(
        config,
        optimize_caching=system.startswith("reuse-autocache"),
    )

    def program(ctx):
        feats = ctx.bag_of(range(groups * 128)).map(_reuse_scale)
        total = 0
        for _ in range(_REUSE_JOBS):
            total += (
                feats.map(_reuse_shift)
                .union(feats.map(_reuse_scale))
                .sum()
            )
        return total

    return run_measured(config, system, groups, program)


def _pipe_scale(x):
    return x * 3 + 1


def _pipe_mix(x):
    return x ^ (x >> 3)


def _pipe_keep(x):
    return x % 7 != 0


def _pipe_shift(x):
    return x * 2 - 5


def _pipe_sparse(x):
    return x % 11 != 3


def _pipe_offset(x):
    return x + 13


def _pipe_bucket(x):
    return x % 1000


def _pipeline_cell(system, groups, scheduler="serial"):
    """A map/filter-heavy fused chain over few large partitions.

    Its task set is far above ``codegen.COMPILE_MIN_RECORD_STEPS``, so
    the chain runs as the generated loop
    (:mod:`repro.engine.codegen`).  Which chain body runs never shows
    in the gated metric -- both credit exactly the same per-operator
    record counts (asserted by the baseline tests) -- so this row pins
    the simulated cost of a long narrow chain.  The UDFs are
    module-level and provably pure on purpose: a lambda capturing
    unknown state would keep the chain on the interpreter.
    """
    config, system = _scheduled(_cluster(2.0, 512), system, scheduler)
    n = groups * _PIPELINE_RECORDS_PER_GROUP

    def program(ctx):
        return (
            ctx.bag_of(range(n), num_partitions=8)
            .map(_pipe_scale)
            .map(_pipe_mix)
            .filter(_pipe_keep)
            .map(_pipe_shift)
            .filter(_pipe_sparse)
            .map(_pipe_offset)
            .map(_pipe_bucket)
            .count()
        )

    return run_measured(config, system, groups, program)


#: The full matrix: system name -> cell runner; every system runs at
#: every group count in ``_GROUP_COUNTS`` under every scheduler in
#: ``_SCHEDULERS``.
CELLS = {
    "kmeans-matryoshka": _kmeans_cell,
    "kmeans-inner": _kmeans_cell,
    "pagerank-matryoshka": _pagerank_cell,
    "pagerank-inner": _pagerank_cell,
    "bounce-matryoshka": _bounce_rate_cell,
    "bounce-inner": _bounce_rate_cell,
    "branch-overlap": _branch_overlap_cell,
    "serve-pagerank-cold": _serve_pagerank_cell,
    "serve-pagerank-warm": _serve_pagerank_cell,
    "reuse-baseline": _auto_cache_cell,
    "reuse-autocache": _auto_cache_cell,
    "pipeline": _pipeline_cell,
}


def run_baseline(label="engine-baseline", progress=None):
    """Run the whole matrix; return a :class:`RunReport`."""
    report = RunReport(
        label,
        meta={
            "matrix": sorted(CELLS),
            "group_counts": list(_GROUP_COUNTS),
            "schedulers": list(_SCHEDULERS),
            "metric": "simulated",
        },
    )
    for system, cell in CELLS.items():
        for groups in _GROUP_COUNTS:
            for scheduler in _SCHEDULERS:
                result = cell(system, groups, scheduler)
                report.add(result.entry)
                if progress is not None:
                    progress(result)
    return report
