"""Differential verification along the engine's config axes.

Flattening, and every physical choice the engine makes under it, must
preserve a nested program's meaning.  This module states that once.
Each way a :class:`~repro.engine.config.ClusterConfig` can change how a
program executes is one row of :data:`AXES`: the field, its base and
variant value, and the invariants
(:data:`repro.engine.validate.INVARIANTS`) the change *preserves*.  One
runner (:func:`repro.engine.validate.run_configs`) executes a program
on a fresh, always-validated, always-closed context per config.

* :func:`verify` runs a program at one axis's base and variant value
  and checks the pair under that axis's ``preserves``.
* :func:`library_programs` is the registry: all of :mod:`repro.tasks`.

Choices the executor makes by itself -- which body a fused chain runs,
which shuffles it elides -- are no axis, because they are no setting;
the tests check each against a reference run with the choice taken
nowhere, by moving a seam instead of a field.

Results are compared canonicalized (:func:`results_equivalent`).  From
the command line (CI runs the first form once per backend)::

    PYTHONPATH=src python -m repro.analysis.equivalence [--backend process]
    PYTHONPATH=src python -m repro.analysis.equivalence --compare backend

The axes, as :func:`axes_table` (and ``--help``) renders them::

"""

import argparse
import math
import sys
from dataclasses import replace
from typing import NamedTuple

from ..data import generators as gen
from ..engine.config import laptop_config
from ..engine.validate import (
    check_runs,
    config_difference,
    run_configs,
)
from ..errors import PlanError
from ..tasks import (
    avg_distances, bounce_rate, graphs, kmeans, matrix, pagerank,
)

__all__ = [
    "AXES",
    "Axis",
    "EquivalenceError",
    "axes_table",
    "library_programs",
    "main",
    "results_equivalent",
    "verify",
    "verify_library",
]


class EquivalenceError(PlanError):
    """Two configs that must agree on a program did not."""


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
# The axes table and the verifiers driven by it
# ----------------------------------------------------------------------


class Axis(NamedTuple):
    """One way a config can change how a program executes: moving
    ``field`` from ``base`` to ``variant`` must leave the ``preserves``
    invariants (names from :data:`~repro.engine.validate.INVARIANTS`)
    intact."""

    field: str
    base: object
    variant: object
    preserves: tuple


AXES = {
    # Replacing recompute stages with a ``cached`` read *is* the
    # rewrite, so stage shapes are free; it must only never cost time.
    "caching": Axis(
        "optimize_caching", False, True, ("results", "sim_not_slower")
    ),
    # Where tasks run is invisible to values, to the trace the cost
    # model reads, and so to simulated seconds; "totals" leaves out the
    # measured retry/straggler counters.
    "backend": Axis(
        "backend", "serial", "process",
        ("results", "signature", "sim_equal", "totals"),
    ),
}


def axes_table():
    """The :data:`AXES` table as aligned text (docs and ``--help``)."""
    rows = [("axis", "field", "base -> variant", "preserves")]
    rows += [
        (
            name,
            axis.field,
            "%s -> %s" % (axis.base, axis.variant),
            ", ".join(axis.preserves),
        )
        for name, axis in AXES.items()
    ]
    widths = [max(len(row[i]) for row in rows) for i in range(4)]
    return "\n".join(
        "    " + "  ".join(map(str.ljust, row, widths)).rstrip()
        for row in rows
    )


__doc__ += axes_table() + "\n"


def axis_configs(axis, config):
    """The base and variant config of one :data:`AXES` row."""
    spec = AXES[axis]
    return [
        replace(config, **{spec.field: value})
        for value in (spec.base, spec.variant)
    ]


def verify(program, axis, config=None, name="<program>"):
    """Prove ``program`` (fresh ``EngineContext`` -> comparable value)
    unchanged along one :data:`AXES` row; ``config`` (default
    ``laptop_config()``) is what both runs share otherwise.  Returns the
    ``[base, variant]`` :class:`~repro.engine.validate.Run` records or
    raises :class:`EquivalenceError`."""
    base, variant = run_configs(
        program, axis_configs(axis, config or laptop_config()), name
    )
    check_runs(
        base, variant, AXES[axis].preserves, EquivalenceError,
        results_equivalent,
    )
    return [base, variant]


def verify_library(axis, config=None, only=None):
    """:func:`verify` every registry program; the list of run pairs."""
    return [
        verify(program, axis, config=config, name=name)
        for name, program in library_programs(only)
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.equivalence",
        description="Differential verifier: every repro.tasks program "
        "must keep its meaning however the engine is configured.\n"
        "Runs each at one axis's base and variant value and checks the "
        "pair under the axis's preserved invariants.\n\n%s"
        % axes_table(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--backend", choices=("serial", "process"), default="serial",
        help="task runtime backend for every run (default: serial)",
    )
    parser.add_argument(
        "--compare", choices=tuple(AXES), default="caching",
        help="the axis to verify (default: caching)",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="worker processes for the process backend (default: 2)",
    )
    parser.add_argument(
        "--only", action="append", default=None, metavar="SUBSTRING",
        help="only programs whose name contains SUBSTRING (repeatable)",
    )
    args = parser.parse_args(argv)
    config = laptop_config(backend=args.backend, num_workers=args.workers)
    verified = failures = 0
    for name, program in library_programs(args.only):
        try:
            base, variant = verify(program, args.compare, config, name)
        except EquivalenceError as error:
            failures += 1
            print("FAIL %s" % error)
            continue
        verified += 1
        print(
            "ok   %-24s shuffle %d -> %d, simulated %.3fs -> %.3fs, "
            "decisions: %s" % (
                name,
                base.totals["shuffle_records"],
                variant.totals["shuffle_records"],
                base.simulated_seconds, variant.simulated_seconds,
                ", ".join(
                    "%d %s" % (count, decision) for decision, count
                    in sorted(variant.decisions.items())
                ) or "none",
            )
        )
    base, variant = axis_configs(args.compare, config)
    print(
        "repro.analysis.equivalence: %d program(s) verified over %s on "
        "the %s backend, %d failure(s); 2 configs each, lines report %s"
        % (
            verified, args.compare, args.backend, failures,
            config_difference(base, variant),
        )
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
