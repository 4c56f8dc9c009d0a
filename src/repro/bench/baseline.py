"""The engine baseline matrix behind ``--check-regressions``.

A small, fast, fixed grid of (task, scale) cells -- K-means, PageRank,
and Bounce Rate, each in the Matryoshka and inner-parallel formulations
at two group counts, plus a service-mode pair (``serve-pagerank-cold`` /
``serve-pagerank-warm``) running repeated PageRank jobs through a
long-lived :mod:`repro.serve` daemon, and a ``pipeline`` cell (a
map/filter-heavy fused chain large enough that the executor compiles
it).

The committed snapshot, ``BENCH_engine.json`` in the repo root, holds
the **simulated clock only**, one row per ``system@groups`` cell
(:func:`cell_row`): its ``status``, its ``simulated_seconds``, the
deterministic run totals and one ``stage_columns`` row per stage, jobs
in order.  All of it is a deterministic function of the execution
trace, so nothing in the file depends on the host, the backend or the
run, and the gate is **exact** (:func:`differences`): integers and
strings must be equal, seconds equal to a relative ``1e-9`` (CPython
3.12 sums floats with compensation, 3.11 does not; nothing else may
move them).  A cell that got slower, *faster*, changed status,
vanished or appeared fails the gate alike -- a faster cell means the
file is stale.  Wall-clock is no part of this file; ``benchmarks/wall``
measures it.

Check the working tree against the snapshot::

    python -m repro.bench --check-regressions

A failure names the cell, the job and stage and both values.  When
the change in cost is intended, rewrite the snapshot and say why in the
PR::

    python -m repro.bench --emit-baseline
"""

import json
import math
from itertools import zip_longest

from ..baselines.inner_parallel import group_locally
from ..data import grouped_edges, grouped_points, initial_centroids, visits_log
from ..engine.validate import deterministic_totals
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

#: What the snapshot keeps of a report entry's stage, in row order.
STAGE_COLUMNS = (
    "kind", "origin", "tasks", "records", "shuffle_records",
    "simulated_seconds",
)

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
#: ``codegen.COMPILE_MIN_RECORD_STEPS``).
_PIPELINE_RECORDS_PER_GROUP = 8192

def _kmeans_cell(system, groups):
    config = _cluster(2.0, 512, overhead=2.0)
    records = grouped_points(groups, 512, _K, seed=11)
    configs = initial_centroids(_K, groups, seed=11)
    kwargs = {"max_iterations": _KMEANS_ITERS, "tolerance": None}
    if system == "kmeans-matryoshka":
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


def _pagerank_cell(system, groups):
    config = _cluster(20.0, 1024)
    records = grouped_edges(groups, 1024, seed=13)
    if system == "pagerank-matryoshka":
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


def _bounce_rate_cell(system, groups):
    config = _cluster(48.0, 2048, overhead=8.0)
    records = visits_log(groups, 2048, seed=23)
    if system == "bounce-matryoshka":
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


def _serve_pagerank_cell(system, groups):
    """Repeated PageRank jobs through a long-lived :class:`JobService`.

    The service adopts the harness-provided context (``retain_trace=True``
    keeps every job in the live trace so the harness costs and validates
    it as usual) and runs ``_SERVE_REPEATS`` identical submissions of the
    registered ``pagerank`` program on one worker slot.  The only knob
    that differs between the two rows is the artifact budget, so the
    cold-vs-warm delta in simulated seconds is exactly what the cache
    buys.
    """
    config = _cluster(20.0, 1024)
    limit = 0 if system == "serve-pagerank-cold" else _SERVE_WARM_BYTES
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


def _pipeline_cell(system, groups):
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
    config = _cluster(2.0, 512)
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
#: every group count in ``_GROUP_COUNTS``.
CELLS = {
    "kmeans-matryoshka": _kmeans_cell,
    "kmeans-inner": _kmeans_cell,
    "pagerank-matryoshka": _pagerank_cell,
    "pagerank-inner": _pagerank_cell,
    "bounce-matryoshka": _bounce_rate_cell,
    "bounce-inner": _bounce_rate_cell,
    "serve-pagerank-cold": _serve_pagerank_cell,
    "serve-pagerank-warm": _serve_pagerank_cell,
    "pipeline": _pipeline_cell,
}


def cell_row(entry):
    """The snapshot row of one report entry: what of it is simulated."""
    return {
        "status": entry["status"],
        "simulated_seconds": entry["simulated_seconds"],
        "totals": deterministic_totals(entry["totals"]),
        "jobs": [
            [
                [stage[column] for column in STAGE_COLUMNS]
                for stage in job["stages"]
            ]
            for job in entry["jobs"]
        ],
    }


def run_baseline(progress=None):
    """Run the whole matrix; one ``(cell, row)`` per run."""
    runs = []
    for system, cell in CELLS.items():
        for groups in _GROUP_COUNTS:
            result = cell(system, groups)
            runs.append(("%s@%s" % (system, groups), cell_row(result.entry)))
            if progress is not None:
                progress(result)
    return runs


def snapshot(runs):
    """What :func:`save` commits of ``runs``."""
    return {"stage_columns": list(STAGE_COLUMNS), "cells": dict(runs)}


def _is_scalar(value):
    return not isinstance(value, (dict, list))


def _dumps(value, depth=0):
    """JSON with a container of scalars (a stage row, the totals) on one
    line and anything else one member per line: a changed stage is a
    one-line diff."""
    members = value.values() if isinstance(value, dict) else value
    if _is_scalar(value) or all(map(_is_scalar, members)):
        return json.dumps(value)
    pad = " " * (depth + 1)
    if isinstance(value, dict):
        brackets = "{}"
        lines = [
            "%s%s: %s" % (pad, json.dumps(key), _dumps(member, depth + 1))
            for key, member in value.items()
        ]
    else:
        brackets = "[]"
        lines = [pad + _dumps(member, depth + 1) for member in value]
    return "%s\n%s\n%s%s" % (
        brackets[0], ",\n".join(lines), " " * depth, brackets[1]
    )


def save(stored, path):
    with open(path, "w") as handle:
        handle.write(_dumps(stored) + "\n")


def load(path):
    with open(path) as handle:
        stored = json.load(handle)
    if stored.get("stage_columns") != list(STAGE_COLUMNS):
        raise ValueError(
            "%s is not an engine-baseline snapshot with stage columns "
            "%s; rewrite it with --emit-baseline"
            % (path, ", ".join(STAGE_COLUMNS))
        )
    return stored


def _same(stored, ran):
    if isinstance(stored, float) and isinstance(ran, float):
        return math.isclose(stored, ran, rel_tol=1e-9)
    return stored == ran


def _flat(row):
    """``{what: value}`` over everything a snapshot row holds."""
    flat = {
        "status": row["status"],
        "simulated_seconds": row["simulated_seconds"],
    }
    for key, value in row["totals"].items():
        flat["totals.%s" % key] = value
    for j, job in enumerate(row["jobs"]):
        for s, stage in enumerate(job):
            for column, value in zip_longest(STAGE_COLUMNS, stage):
                flat["job%d/stage%d %s" % (j, s, column)] = value
    return flat


def _row_differences(name, stored, ran):
    stored, ran = _flat(stored), _flat(ran)
    return [
        "%s %s: stored %r, this run %r"
        % (name, what, stored.get(what), ran.get(what))
        for what in dict.fromkeys([*stored, *ran])
        if not _same(stored.get(what), ran.get(what))
    ]


def differences(stored, runs):
    """Every way ``runs`` (:func:`run_baseline`'s pairs) differs from
    the ``stored`` snapshot, one line each; empty when they agree
    exactly."""
    cells = stored["cells"]
    ran = dict(runs)
    found = [
        "%s: in the file, not in this run" % cell
        for cell in cells if cell not in ran
    ]
    found += [
        "%s: in this run, not in the file" % cell
        for cell in sorted(set(ran).difference(cells))
    ]
    for cell, row in runs:
        if cell in cells:
            found += _row_differences(cell, cells[cell], row)
    return found
