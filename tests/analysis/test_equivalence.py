"""The differential harness's tests: every row of
:data:`tests.programs.CHOICES` passes the registry programs and small
ones, and a rigged program fails it.  Each row pins the registry
programs it applies to; the chain-body and elision rows read that off
the decisions and totals a run recorded, while the backend row, which
applies everywhere, can only read back its configs.
"""

import pathlib

import pytest

from repro.engine import EngineContext, laptop_config
from tests.programs import (
    CHOICES, INVARIANTS, PROGRAMS, check_runs, library_programs,
    results_equivalent, run_choice, run_configs,
    stale_layout_adopt_program, stale_layout_elide_both_program,
)


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


def cached_program(ctx):
    """An explicit ``cache()`` read back by a second job."""
    feats = ctx.bag_of(range(40), num_partitions=4).map(_key).cache()
    return sorted(feats.reduce_by_key(_add).collect()), feats.count()


SMALL_PROGRAMS = [
    chain_program, branching_program, reuse_program, cached_program,
    stale_layout_adopt_program, stale_layout_elide_both_program,
]


def test_registry_covers_every_task_module():
    assert len(PROGRAMS) == len(set(PROGRAMS)) == 12
    for fragment in (
        "bounce-rate", "pagerank", "connected", "avg-distances",
        "kmeans", "matrix",
    ):
        assert any(fragment in name for name in PROGRAMS)


def test_rows_name_real_fields_invariants_and_programs():
    config = laptop_config()
    for row in CHOICES.values():
        for field in {**row.reference, **row.chosen}:
            assert hasattr(config, field)
        assert set(row.preserves) <= set(INVARIANTS)
        assert set(row.programs) <= set(PROGRAMS)


def test_docs_list_every_row():
    docs = pathlib.Path(__file__).parents[2] / "docs" / "analysis.md"
    text = docs.read_text()
    for choice, row in CHOICES.items():
        assert "| `%s` |" % choice in text
        assert ", ".join("`%s`" % name for name in row.preserves) in text


def test_results_equivalent_is_order_and_ulp_insensitive():
    assert results_equivalent([(1, 0.1 + 0.2)], [(1, 0.3)])
    assert results_equivalent([("b", 2), ("a", 1)], [("a", 1), ("b", 2)])
    assert not results_equivalent([("a", 1)], [("a", 2)])
    assert not results_equivalent([("a", 1)], [("a", 1), ("a", 1)])


# ---------------------------------------------------------------------------
# Every row: passes real programs, rejects rigged ones
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name, program", library_programs(), ids=PROGRAMS,
)
@pytest.mark.parametrize("choice", list(CHOICES))
def test_executor_choices_match_their_reference(
    monkeypatch, choice, name, program
):
    reference, chosen = run_choice(choice, program, name, monkeypatch)
    # Not vacuous: the reference made the choice nowhere, and the
    # chosen run made it where the program offers it.
    assert CHOICES[choice].made(reference, chosen) == (
        name in CHOICES[choice].programs
    )


@pytest.mark.parametrize("choice", list(CHOICES))
@pytest.mark.parametrize("program", SMALL_PROGRAMS)
def test_every_row_passes_on_a_small_program(monkeypatch, choice, program):
    reference, chosen = run_choice(
        choice, program, program.__name__, monkeypatch
    )
    assert reference.name == chosen.name == program.__name__
    for field, value in CHOICES[choice].reference.items():
        assert getattr(reference.config, field) == value
    for field, value in CHOICES[choice].chosen.items():
        assert getattr(chosen.config, field) == value
    if "signature" in CHOICES[choice].preserves:
        # The signature pins identical shuffle volume.
        assert reference.totals["shuffle_records"] == (
            chosen.totals["shuffle_records"]
        )


@pytest.mark.parametrize("choice", ["backend"])
def test_a_setting_row_rejects_a_rigged_result(choice):
    def rigged(ctx):
        return [ctx.config]

    with pytest.raises(AssertionError, match="different results"):
        run_choice(choice, rigged, "rigged-result")


@pytest.mark.parametrize("invariant", ["signature", "stage_kinds"])
def test_trace_invariants_reject_a_rigged_trace(invariant):
    def rigged(ctx):
        bag = ctx.bag_of(range(12)).map(lambda x: (x % 2, x))
        result = sorted(bag.reduce_by_key(lambda a, b: a + b).collect())
        if ctx.config.backend == "process":
            bag.count()  # an extra job only the chosen run runs
        return result

    row = CHOICES["backend"]
    reference, chosen = run_configs(
        rigged,
        [laptop_config(**row.reference), laptop_config(**row.chosen)],
        "rigged-trace",
    )
    with pytest.raises(AssertionError, match="signature|stage kinds"):
        check_runs(reference, chosen, [invariant], results_equivalent)


def test_backend_totals_tolerate_retry_wobble():
    # Retries are measured runtime behavior: a backend-dependent
    # wobble in retry counts must not fail the row, so only the
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

    assert "totals" in CHOICES["backend"].preserves
    reference, chosen = run_choice("backend", program, "retry-wobble")
    assert chosen.totals["retries"] > reference.totals["retries"]


@pytest.mark.parametrize(
    "program, expected",
    # The cogroup of two hash-partitioned shuffles is elidable, and a
    # join may adopt the layout a cached side was built with; a join
    # of two sides laid out by different runs of one shuffle is not.
    list(zip(SMALL_PROGRAMS, [0, 1, 0, 0, 1, 0])),
    ids=[program.__name__ for program in SMALL_PROGRAMS],
)
def test_decision_counts(monkeypatch, program, expected):
    reference, chosen = run_choice(
        "elision", program, program.__name__, monkeypatch
    )
    elided = sum(
        count for decision, count in chosen.decisions.items()
        if decision.startswith("shuffle-elision/")
    )
    assert elided == expected
    assert (chosen.totals["shuffle_records_saved"] > 0) == bool(expected)
    assert CHOICES["elision"].made(reference, chosen) == bool(expected)


# ---------------------------------------------------------------------------
# The shared runner closes what it opens
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "entry",
    [
        lambda program, seams: run_choice(
            "elision", program, monkeypatch=seams
        ),
        lambda program, seams: run_configs(program, [laptop_config()]),
        lambda program, seams: run_choice("backend", program),
    ],
    ids=["elision", "run_configs", "backend"],
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
        entry(raising, monkeypatch)
    assert opened and closed == opened
