"""Runtime shuffle elision: the optimizer pass inside the executor.

Every job plans elisions; the plain runs these compare against take the
planner seam out (the ``without_elision`` fixture).
"""

import os
import warnings

import pytest

from repro.engine import EngineContext, laptop_config
from repro.engine.partitioner import reset_unstable_key_warnings
from repro.engine.validate import validate_trace


def _add(a, b):
    return a + b


def _keyed(ctx, n=60, k=5):
    return ctx.bag_of(list(range(n))).map(lambda x: (x % k, x))


def _total_shuffle(ctx):
    return sum(
        stage.shuffle_read_records
        for job in ctx.trace.jobs
        for stage in job.stages
    )


def _shuffle_decisions(ctx):
    """Shuffle-pass decisions only: the compiled-pipeline pass also logs
    a decision per fused chain under ``--compile-all`` (a CI leg), and
    these assertions are about shuffle elision, not codegen."""
    return [
        d for d in ctx.optimizer_decisions
        if d.kind != "compiled-pipeline"
    ]


def _run_both(program, without_elision):
    """(optimized ctx, plain ctx, optimized result, plain result)."""
    opt_ctx = EngineContext(laptop_config())
    opt = program(opt_ctx)
    without_elision()
    plain_ctx = EngineContext(laptop_config())
    plain = program(plain_ctx)
    validate_trace(opt_ctx.trace)
    validate_trace(plain_ctx.trace)
    return opt_ctx, plain_ctx, opt, plain


def test_full_elision_same_results_lower_shuffle(without_elision):
    def program(ctx):
        bag = _keyed(ctx).reduce_by_key(_add, 4).group_by_key(4)
        return sorted((k, sorted(v)) for k, v in bag.collect())

    opt_ctx, plain_ctx, opt, plain = _run_both(program, without_elision)
    assert opt == plain
    assert _total_shuffle(opt_ctx) < _total_shuffle(plain_ctx)
    decisions = _shuffle_decisions(opt_ctx)
    assert [d.kind for d in decisions] == ["shuffle-elision"]
    assert decisions[0].choice == "elide"
    assert not _shuffle_decisions(plain_ctx)


def test_elided_stage_claims_savings_not_volume():
    ctx = EngineContext(laptop_config())
    _keyed(ctx).reduce_by_key(_add, 4).group_by_key(4).collect()
    elided = ctx.trace.jobs[-1].stages[-1]
    assert elided.kind == "shuffle"
    assert elided.shuffle_read_records == 0
    assert elided.shuffle_records_saved > 0


def test_cogroup_adoption_shuffles_only_one_side(without_elision):
    def program(ctx):
        rbk = _keyed(ctx).reduce_by_key(_add, 4)
        joined = rbk.join(_keyed(ctx, n=40), num_partitions=4)
        return sorted(joined.collect())

    opt_ctx, plain_ctx, opt, plain = _run_both(program, without_elision)
    assert opt == plain
    assert _total_shuffle(opt_ctx) < _total_shuffle(plain_ctx)
    assert [d.choice for d in _shuffle_decisions(opt_ctx)] == [
        "adopt-left"
    ]


def test_cached_bag_adopts_across_jobs():
    ctx = EngineContext(laptop_config())
    grouped = _keyed(ctx).group_by_key(4).cache()
    grouped.count()  # job 1 materializes the layout
    sizes = grouped.join(
        _keyed(ctx, n=40).map(lambda kv: (kv[0], kv[1] * 10)),
        num_partitions=4,
    )
    result = sorted(
        (k, len(groups), v) for k, (groups, v) in sizes.collect()
    )
    assert result
    assert "adopt-left" in [
        d.choice for d in _shuffle_decisions(ctx)
    ]


def test_partition_count_mismatch_is_not_elided(without_elision):
    def program(ctx):
        bag = _keyed(ctx).reduce_by_key(_add, 4).group_by_key(8)
        return sorted((k, sorted(v)) for k, v in bag.collect())

    opt_ctx, plain_ctx, opt, plain = _run_both(program, without_elision)
    assert opt == plain
    assert not _shuffle_decisions(opt_ctx)
    assert _total_shuffle(opt_ctx) == _total_shuffle(plain_ctx)


def test_key_rewriting_map_blocks_elision():
    ctx = EngineContext(laptop_config())
    bag = (
        _keyed(ctx)
        .reduce_by_key(_add, 4)
        .map(lambda kv: (kv[1], kv[0]))
        .group_by_key(4)
    )
    assert bag.count() > 0
    assert not _shuffle_decisions(ctx)


def test_preserves_partitioning_hint_enables_elision():
    def opaque(kv):
        return (kv[0], kv[1] + 1)

    ctx = EngineContext(laptop_config())
    bag = (
        _keyed(ctx)
        .reduce_by_key(_add, 4)
        .map_partitions(
            lambda part, _index: [opaque(kv) for kv in part],
            preserves_partitioning=True,
        )
        .group_by_key(4)
    )
    result = sorted((k, sorted(v)) for k, v in bag.collect())
    assert result
    assert [d.choice for d in _shuffle_decisions(ctx)] == ["elide"]


class _OffEverywhere(dict):
    """An environment answering ``0`` for every ``REPRO_`` variable but
    the two ``ClusterConfig`` reads -- the one that used to switch
    elision off among them."""

    def get(self, name, default=None):
        if name.startswith("REPRO_") and name not in (
            "REPRO_BACKEND", "REPRO_NUM_WORKERS",
        ):
            return "0"
        return super().get(name, default)


def test_no_environment_variable_switches_elision_off(monkeypatch):
    monkeypatch.setattr(os, "environ", _OffEverywhere(os.environ))
    ctx = EngineContext(laptop_config())
    _keyed(ctx).reduce_by_key(_add, 4).group_by_key(4).collect()
    assert [d.choice for d in _shuffle_decisions(ctx)] == ["elide"]
    assert ctx.trace.jobs[-1].stages[-1].shuffle_records_saved > 0


def test_decision_detail_names_both_nodes():
    ctx = EngineContext(laptop_config())
    _keyed(ctx).reduce_by_key(_add, 4).group_by_key(4).collect()
    (decision,) = _shuffle_decisions(ctx)
    assert "GroupByKey" in decision.detail
    assert "ReduceByKey" in decision.detail


# ---------------------------------------------------------------------------
# repr()-fallback hashing warns once per key type (NPL203 at runtime)
# ---------------------------------------------------------------------------


class _ReprKey:
    def __init__(self, value):
        self.value = value

    def __hash__(self):
        return hash(self.value)

    def __eq__(self, other):
        return isinstance(other, _ReprKey) and other.value == self.value

    def __repr__(self):
        return "_ReprKey(%r)" % self.value


@pytest.fixture
def fresh_warnings():
    reset_unstable_key_warnings()
    yield
    reset_unstable_key_warnings()


def test_repr_fallback_warns_once_per_type(ctx, fresh_warnings):
    records = [(_ReprKey(i % 3), i) for i in range(12)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ctx.bag_of(records).reduce_by_key(_add).collect()
        ctx.bag_of(records).group_by_key().collect()
    npl203 = [
        w for w in caught
        if issubclass(w.category, RuntimeWarning)
        and "NPL203" in str(w.message)
    ]
    assert len(npl203) == 1
    assert "_ReprKey" in str(npl203[0].message)


def test_primitive_keys_do_not_warn(ctx, fresh_warnings):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _keyed(ctx).reduce_by_key(_add).collect()
    assert not [
        w for w in caught if "NPL203" in str(w.message)
    ]
