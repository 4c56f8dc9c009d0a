"""The differential verifier: one runner, one table of axes.

Every behaviour is a parameter over :data:`AXES`: a real program passes
each axis, a rigged result fails each axis, and the decision counts the
optimizer flag reports are pinned on small programs.  Which body a
fused chain runs and which shuffles are elided are no axis -- the
executor makes both choices by itself -- so the harness moves a seam
instead (the compile threshold, the elision planner): every registry
program, making each choice, against a reference run that makes it
nowhere.
"""

import pathlib
import sys

import pytest

from repro.analysis import equivalence
from repro.analysis.equivalence import (
    AXES,
    EquivalenceError,
    axes_table,
    library_programs,
    main,
    results_equivalent,
    verify,
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
    config = laptop_config()
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


@pytest.mark.parametrize("invariant", ["signature", "stage_kinds"])
def test_trace_invariants_reject_a_rigged_trace(invariant):
    def rigged(ctx):
        bag = ctx.bag_of(range(12)).map(lambda x: (x % 2, x))
        result = sorted(bag.reduce_by_key(lambda a, b: a + b).collect())
        if ctx.config.optimize_caching:
            bag.count()  # an extra job only the variant runs
        return result

    base, variant = run_configs(
        rigged, [laptop_config(), laptop_config(optimize_caching=True)],
        "rigged-trace",
    )
    with pytest.raises(EquivalenceError, match="signature|stage kinds"):
        check_runs(
            base, variant, [invariant], EquivalenceError,
            results_equivalent,
        )


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


# ---------------------------------------------------------------------------
# The choices the executor makes by itself, against their references
# ---------------------------------------------------------------------------


#: Registry programs none of whose chains passes the compile gate.
NOTHING_COMPILES = ("kmeans-parallel",)

#: Registry programs with a shuffle the elision planner elides.
ELIDING = (
    "bounce-rate-flat", "pagerank-parallel", "connected-components",
    "avg-distances-nested", "avg-distances-inner", "kmeans-nested-grouped",
)

#: ``choice -> (decision prefix, invariants kept against the reference)``.
#: The generated loop must be the interpreter down to the trace.  An
#: elided shuffle still opens its (zero-volume) stage, but an adopted
#: layout moves records between tasks: kinds, not counts.
CHOICES = {
    "chain-body": (
        "compiled-pipeline/", ("results", "signature", "sim_equal"),
    ),
    "elision": (
        "shuffle-elision/", ("results", "stage_kinds", "shuffle_not_more"),
    ),
}


@pytest.mark.parametrize(
    "name, program", library_programs(),
    ids=[name for name, _program in library_programs()],
)
@pytest.mark.parametrize("choice", list(CHOICES))
def test_executor_choices_match_their_reference(
    monkeypatch, without_elision, choice, name, program
):
    prefix, preserves = CHOICES[choice]
    if choice == "chain-body":
        monkeypatch.setattr(codegen, "COMPILE_MIN_RECORD_STEPS", 0)
    (chosen,) = run_configs(program, [laptop_config()], name)
    if choice == "chain-body":
        monkeypatch.setattr(codegen, "COMPILE_MIN_RECORD_STEPS", sys.maxsize)
    else:
        without_elision()
    (reference,) = run_configs(program, [laptop_config()], name)
    check_runs(
        reference, chosen, preserves, EquivalenceError, results_equivalent,
    )
    # Not vacuous: the reference made the choice nowhere, and the
    # chosen run made it where the program offers it.
    made = _decisions(chosen, prefix)
    assert not _decisions(reference, prefix)
    if choice == "chain-body":
        # Every chain was planned, and in all programs but the listed
        # ones some compiled.
        assert made
        assert ("compiled-pipeline/compile" in made) == (
            name not in NOTHING_COMPILES
        )
        return
    eliding = name in ELIDING
    assert bool(made) == eliding
    assert (chosen.totals["shuffle_records_saved"] > 0) == eliding
    assert (
        chosen.totals["shuffle_records"]
        < reference.totals["shuffle_records"]
    ) == eliding


def _decisions(run, prefix):
    return {
        decision for decision in run.decisions
        if decision.startswith(prefix)
    }


# ---------------------------------------------------------------------------
# The shared runner closes what it opens
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "entry",
    [
        lambda program: verify(program, "caching"),
        lambda program: run_configs(program, [laptop_config()]),
        lambda program: assert_backend_parity(
            program, backends=("serial",)
        ),
    ],
    ids=["verify", "run_configs", "backend_parity"],
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
    assert "1 program(s) verified over %s" % (axis or "caching") in out[1]
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
