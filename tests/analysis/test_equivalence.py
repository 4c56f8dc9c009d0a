"""The differential verifier: one runner, one table of axes.

Every behaviour is a parameter over :data:`AXES`: a real program passes
each axis, a rigged result fails each axis, a rigged trace fails each
axis that preserves trace shape, and the decision counts each optimizer
flag reports are pinned on small programs.  The lattice tests prove the
flags in combination.  Which body a fused chain runs is no axis -- the
executor picks it from the task set's size -- so the harness moves the
threshold instead: every registry program with every chain compiled
against the interpreter as the reference.
"""

import pathlib
import sys

import pytest

from repro.analysis import equivalence
from repro.analysis.equivalence import (
    AXES,
    EquivalenceError,
    axes_table,
    lattice_configs,
    library_programs,
    main,
    preserved,
    results_equivalent,
    verify,
    verify_lattice,
    verify_library,
)
from repro.engine import (
    EngineContext,
    assert_backend_parity,
    codegen,
    laptop_config,
)
from repro.engine.validate import INVARIANTS, check_runs, run_configs

#: Axes cheap enough to run per-parameter in tier-1 (``backend`` spawns
#: a process pool; tests/engine/test_backend_parity.py covers it).
IN_PROCESS_AXES = [name for name in AXES if name != "backend"]


def _scale(x):
    return x * 3 + 1


def _keep(x):
    return x % 7 != 0


def _split(x):
    return [x, x + 1]


def _key(x):
    return (x % 5, x)


def _add(a, b):
    return a + b


def chain_program(ctx):
    """A map/filter/flat_map chain into a shuffle."""
    return sorted(
        ctx.bag_of(range(120), num_partitions=4)
        .map(_scale)
        .filter(_keep)
        .flat_map(_split)
        .map(_key)
        .reduce_by_key(_add)
        .collect()
    )


def branching_program(ctx):
    left = (
        ctx.bag_of(range(30))
        .map(lambda x: (x % 3, x))
        .reduce_by_key(lambda a, b: a + b)
    )
    right = (
        ctx.bag_of(range(30))
        .map(lambda x: (x % 3, 1))
        .group_by_key()
    )
    return sorted(left.cogroup(right).collect())


def reuse_program(ctx):
    feats = ctx.bag_of(range(50)).map(lambda x: x * 2)
    return (
        feats.map(lambda x: x + 1).union(feats.map(lambda x: -x)).sum()
    )


def linear_program(ctx):
    return ctx.bag_of(range(30)).map(lambda x: x + 1).sum()


# ---------------------------------------------------------------------------
# The table itself
# ---------------------------------------------------------------------------


def test_registry_covers_every_task_module():
    names = [name for name, _program in library_programs()]
    assert len(names) == len(set(names))
    for fragment in (
        "bounce-rate", "pagerank", "connected", "avg-distances",
        "kmeans", "matrix",
    ):
        assert any(fragment in name for name in names)


def test_axes_name_real_fields_and_invariants():
    config = lattice_configs(laptop_config())[0]
    for axis in AXES.values():
        assert hasattr(config, axis.field)
        assert set(axis.preserves) <= set(INVARIANTS)


def test_docs_print_the_table_from_the_code():
    docs = pathlib.Path(__file__).parents[2] / "docs" / "analysis.md"
    assert axes_table() in docs.read_text()
    assert axes_table() in equivalence.__doc__


def test_results_equivalent_is_order_and_ulp_insensitive():
    assert results_equivalent([(1, 0.1 + 0.2)], [(1, 0.3)])
    assert results_equivalent([("b", 2), ("a", 1)], [("a", 1), ("b", 2)])
    assert not results_equivalent([("a", 1)], [("a", 2)])
    assert not results_equivalent([("a", 1)], [("a", 1), ("a", 1)])


# ---------------------------------------------------------------------------
# Every axis: passes real programs, rejects rigged ones
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("axis", IN_PROCESS_AXES)
@pytest.mark.parametrize(
    "program", [chain_program, branching_program, reuse_program]
)
def test_axis_passes_on_a_real_program(axis, program):
    base, variant = verify(program, axis, name=program.__name__)
    spec = AXES[axis]
    assert getattr(base.config, spec.field) == spec.base
    assert getattr(variant.config, spec.field) == spec.variant
    assert base.name == variant.name == program.__name__
    if "signature" in spec.preserves:
        # The signature pins identical shuffle volume.
        assert base.totals["shuffle_records"] == (
            variant.totals["shuffle_records"]
        )


@pytest.mark.parametrize("axis", IN_PROCESS_AXES)
def test_axis_passes_on_the_library(axis):
    pairs = verify_library(axis, only=["bounce-rate-flat", "matrix"])
    assert [base.name for base, _variant in pairs] == [
        "bounce-rate-flat", "matrix-row-norms", "matrix-vector-product",
    ]


@pytest.mark.parametrize("axis", IN_PROCESS_AXES)
def test_axis_rejects_a_rigged_result(axis):
    field = AXES[axis].field

    def rigged(ctx):
        return [getattr(ctx.config, field)]

    with pytest.raises(EquivalenceError, match="different results"):
        verify(rigged, axis, name="rigged-result")


@pytest.mark.parametrize(
    "axis",
    [
        name for name in IN_PROCESS_AXES
        if {"signature", "stage_kinds"} & set(AXES[name].preserves)
    ],
)
def test_axis_rejects_a_rigged_trace(axis):
    spec = AXES[axis]

    def rigged(ctx):
        bag = ctx.bag_of(range(12)).map(lambda x: (x % 2, x))
        result = sorted(bag.reduce_by_key(lambda a, b: a + b).collect())
        if getattr(ctx.config, spec.field) == spec.variant:
            bag.count()  # an extra job only the variant runs
        return result

    with pytest.raises(EquivalenceError, match="signature|stage kinds"):
        verify(rigged, axis, name="rigged-trace")


def test_caching_rejects_a_slower_variant():
    def slower(ctx):
        bag = ctx.bag_of(range(12))
        if ctx.config.optimize_caching:
            bag.count()  # same answer, one more job's worth of time
        return bag.sum()

    with pytest.raises(EquivalenceError, match="slower"):
        verify(slower, "caching", name="slower")


def test_backend_totals_tolerate_retry_wobble():
    # Retries are measured runtime behavior: a backend-dependent
    # wobble in retry counts must not fail the verifier, so only the
    # deterministic totals are compared.
    def program(ctx):
        if ctx.config.backend == "process":
            ctx.fault_injector.kill_task(task_index=0, stage=0)
        return sorted(
            ctx.bag_of(range(16))
            .map(lambda x: (x % 2, x))
            .reduce_by_key(lambda a, b: a + b)
            .collect()
        )

    assert "totals" in AXES["backend"].preserves
    base, variant = verify(
        program, "backend", config=laptop_config(num_workers=2),
        name="retry-wobble",
    )
    assert variant.totals["retries"] > base.totals["retries"]


# ---------------------------------------------------------------------------
# Decision counts per optimizer flag
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "axis, program, decision, expected",
    [
        ("caching", reuse_program, "auto-cache/cache", 1),
        ("caching", linear_program, "auto-cache/cache", 0),
    ],
)
def test_decision_counts(axis, program, decision, expected):
    base, variant = verify(program, axis, name=program.__name__)
    assert variant.decisions[decision] == expected
    assert base.decisions[decision] == 0


def test_elision_decisions_and_savings():
    (base, variant), = verify_library("elision", only=["bounce-rate-flat"])
    assert sum(
        count for decision, count in variant.decisions.items()
        if decision.startswith("shuffle-elision/")
    ) >= 1
    assert variant.totals["shuffle_records_saved"] > 0
    assert (
        variant.totals["shuffle_records"] < base.totals["shuffle_records"]
    )
    (base, variant), = verify_library("elision", only=["matrix-row-norms"])
    assert not variant.decisions
    assert (
        variant.totals["shuffle_records"] == base.totals["shuffle_records"]
    )


# ---------------------------------------------------------------------------
# The lattice: flags in combination
# ---------------------------------------------------------------------------


def test_lattice_points():
    configs = lattice_configs(laptop_config())
    flags = [AXES[name] for name in equivalence.LATTICE_FLAGS]
    assert len(configs) == len(flags) + 2 == 4
    assert len(set(configs)) == len(configs)
    all_off, all_on = configs[0], configs[-1]
    for axis in flags:
        assert getattr(all_off, axis.field) == axis.base
        assert getattr(all_on, axis.field) == axis.variant
    # A pair one axis apart gets that axis's check; all-off vs all-on
    # differ on everything and still must agree on results.
    assert preserved(all_off, all_off) == list(INVARIANTS)
    assert preserved(all_off, all_on) == ["results"]
    elision_alone, caching_alone = configs[1], configs[2]
    assert preserved(elision_alone, caching_alone) == ["results"]
    assert preserved(all_off, caching_alone) == list(
        AXES["caching"].preserves
    )


@pytest.mark.parametrize(
    "name, program", library_programs(),
    ids=[name for name, _program in library_programs()],
)
def test_lattice_over_the_library(name, program):
    runs = verify_lattice(program, name=name)
    assert len(runs) == 4


#: Registry programs none of whose chains passes the compile gate.
NOTHING_COMPILES = ("kmeans-parallel",)


@pytest.mark.parametrize(
    "name, program", library_programs(),
    ids=[name for name, _program in library_programs()],
)
def test_compiled_chains_match_the_interpreter(monkeypatch, name, program):
    runs = []
    for threshold in (0, sys.maxsize):
        monkeypatch.setattr(codegen, "COMPILE_MIN_RECORD_STEPS", threshold)
        runs += run_configs(program, [laptop_config()], name)
    compiled, interpreted = runs
    check_runs(
        interpreted, compiled, ("results", "signature", "sim_equal"),
        EquivalenceError, results_equivalent,
    )
    # Not vacuous: the first run planned its chains and, in all programs
    # but the listed ones, compiled some; the second planned nothing.
    assert _chain_decisions(compiled) and not _chain_decisions(interpreted)
    assert ("compiled-pipeline/compile" in _chain_decisions(compiled)) == (
        name not in NOTHING_COMPILES
    )


def _chain_decisions(run):
    return {
        decision for decision in run.decisions
        if decision.startswith("compiled-pipeline/")
    }


def test_lattice_catches_what_no_single_axis_can():
    # A bug that needs two flags at once: every pairwise comparison
    # holds one of them at its default, so only the lattice sees it.
    def joint(ctx):
        return [
            ctx.config.optimize_caching
            and not ctx.config.optimize_shuffles
        ]

    for axis in IN_PROCESS_AXES:
        verify(joint, axis, name="joint")
    with pytest.raises(EquivalenceError, match="different results"):
        verify_lattice(joint, name="joint")


# ---------------------------------------------------------------------------
# The shared runner closes what it opens
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "entry",
    [
        lambda program: verify(program, "elision"),
        verify_lattice,
        lambda program: assert_backend_parity(
            program, backends=("serial",)
        ),
    ],
    ids=["verify", "verify_lattice", "backend_parity"],
)
def test_a_raising_program_still_closes_its_context(monkeypatch, entry):
    opened, closed = [], []
    close = EngineContext.close

    def recording_close(self):
        closed.append(self)
        close(self)

    monkeypatch.setattr(EngineContext, "close", recording_close)

    def raising(ctx):
        opened.append(ctx)
        ctx.bag_of(range(8)).count()
        raise RuntimeError("mid-run")

    with pytest.raises(RuntimeError, match="mid-run"):
        entry(raising)
    assert opened and closed == opened


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("axis", [None] + IN_PROCESS_AXES)
def test_cli(capsys, axis):
    argv = ["--only", "matrix-row-norms"]
    if axis:
        argv += ["--compare", axis]
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2
    assert out[0].startswith("ok   matrix-row-norms")
    assert "1 program(s) verified over %s" % (axis or "the lattice") in out[1]
    assert "0 failure(s)" in out[1]


def test_cli_reports_failures(capsys, monkeypatch):
    monkeypatch.setattr(
        equivalence, "_PROGRAMS",
        [("rigged", lambda ctx: [ctx.config.optimize_caching])],
    )
    assert main(["--compare", "caching"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("FAIL rigged")
    assert "0 program(s) verified" in out[-1]
    assert "1 failure(s)" in out[-1]
