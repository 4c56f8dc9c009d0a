"""NPL3xx plan lint and the ``Bag.collect(lint=...)`` hook."""

import dataclasses
import warnings

import pytest

from repro.analysis import analyze_bag, analyze_plan
from repro.engine import EngineContext, laptop_config
from repro.errors import AnalysisError, PlanError, SimulatedOutOfMemory


def codes(diags):
    return [d.code for d in diags]


def _keyed(ctx, n=60):
    return ctx.bag_of(list(range(n))).map(lambda x: (x % 3, x))


def _key_is_zero(kv):
    return kv[0] == 0


def _value_positive(kv):
    return kv[1] > 0


# ---------------------------------------------------------------------------
# NPL301: uncached reuse
# ---------------------------------------------------------------------------


def test_npl301_uncached_reuse(ctx):
    reduced = _keyed(ctx).reduce_by_key(lambda a, b: a + b)
    merged = reduced.filter(_value_positive).union(reduced.keys())
    diags = [d for d in analyze_bag(merged) if d.code == "NPL301"]
    assert len(diags) == 1
    assert "ReduceByKey" in diags[0].node
    assert diags[0].node.startswith("#")
    assert diags[0].severity == "warning"


def test_npl301_silent_when_cached(ctx):
    reduced = _keyed(ctx).reduce_by_key(lambda a, b: a + b).cache()
    merged = reduced.filter(_value_positive).union(reduced.keys())
    assert "NPL301" not in codes(analyze_bag(merged))


def test_npl301_silent_for_parallelize_reuse(ctx):
    base = ctx.bag_of([1, 2, 3])
    merged = base.map(lambda x: x + 1).union(base.map(lambda x: x - 1))
    assert "NPL301" not in codes(analyze_bag(merged))


def test_cogroup_self_join_counts_two_consumers(ctx):
    keyed = _keyed(ctx).map(lambda kv: kv)
    both = keyed.cogroup(keyed)
    assert "NPL301" in codes(analyze_bag(both))


# ---------------------------------------------------------------------------
# NPL302: pushable key-only filter
# ---------------------------------------------------------------------------


def test_npl302_key_only_filter_above_shuffle(ctx):
    reduced = _keyed(ctx).reduce_by_key(lambda a, b: a + b)
    diags = analyze_bag(reduced.filter(_key_is_zero))
    matching = [d for d in diags if d.code == "NPL302"]
    assert len(matching) == 1
    assert "Filter" in matching[0].node


def test_npl302_silent_for_value_reading_predicate(ctx):
    reduced = _keyed(ctx).reduce_by_key(lambda a, b: a + b)
    diags = analyze_bag(reduced.filter(_value_positive))
    assert "NPL302" not in codes(diags)


def test_npl302_silent_for_filter_over_narrow_node(ctx):
    diags = analyze_bag(_keyed(ctx).filter(_key_is_zero))
    assert "NPL302" not in codes(diags)


# ---------------------------------------------------------------------------
# NPL303: broadcast build side exceeds memory (simulated-OOM prediction)
# ---------------------------------------------------------------------------


def _heavy_ctx():
    config = dataclasses.replace(
        laptop_config(), bytes_per_record=float(10 ** 6)
    )
    return EngineContext(config)


def _broadcast_join(ctx, records=1000):
    left = ctx.bag_of(list(range(records))).map(lambda x: (x, x))
    right = ctx.bag_of(list(range(records))).map(lambda x: (x, -x))
    return left.join(right, strategy="broadcast")


def test_npl303_predicts_simulated_oom():
    joined = _broadcast_join(_heavy_ctx())
    matching = [d for d in analyze_bag(joined) if d.code == "NPL303"]
    assert len(matching) == 1
    assert matching[0].severity == "error"
    assert "SimulatedOutOfMemory" in matching[0].message
    assert "BroadcastJoin" in matching[0].node


def test_npl303_silent_when_build_side_fits(ctx):
    joined = _broadcast_join(ctx, records=10)
    assert "NPL303" not in codes(analyze_bag(joined))


def test_npl303_skipped_without_config():
    joined = _broadcast_join(_heavy_ctx())
    assert "NPL303" not in codes(analyze_plan(joined.node, config=None))


def test_npl303_covers_cross_broadcast():
    ctx = _heavy_ctx()
    left = ctx.bag_of(list(range(2000)))
    right = ctx.bag_of(list(range(2000)))
    crossed = left.cross(right)
    assert "NPL303" in codes(analyze_bag(crossed))


@pytest.mark.parametrize("operator", ["join", "cross"])
@pytest.mark.parametrize(
    "meta, records",
    [(False, 60), (False, 61), (True, 23), (True, 24), (True, 60)],
)
def test_npl303_fires_exactly_when_execution_runs_out_of_memory(
    tight_ctx, operator, meta, records
):
    build = tight_ctx.bag_of(list(range(records))).map(lambda x: (x, -x))
    if meta:
        build = build.as_meta()
    stream = tight_ctx.bag_of([(0, 0), (1, 1)])
    if operator == "join":
        plan = stream.join(build, strategy="broadcast")
    else:
        plan = stream.cross(build)
    predicted = "NPL303" in codes(analyze_bag(plan))
    try:
        plan.count()
        raised = False
    except SimulatedOutOfMemory:
        raised = True
    assert predicted == raised
    # Not vacuous: the bound is 6000 bytes, which 60 data-scale records
    # (100 bytes each) fit and only 23 meta-scale ones (256 bytes).
    assert raised == (records > (23 if meta else 60))


# ---------------------------------------------------------------------------
# NPL304: redundant repartition
# ---------------------------------------------------------------------------


def test_npl304_double_coalesce(ctx):
    bag = ctx.bag_of(list(range(64))).coalesce(8).coalesce(2)
    matching = [d for d in analyze_bag(bag) if d.code == "NPL304"]
    assert len(matching) == 1
    assert "Coalesce" in matching[0].node


def test_shuffle_over_same_partitioning_is_npl401_not_npl304(ctx):
    # The wide-over-wide case moved from NPL304 (smell) to NPL401
    # (proven layout reuse, elided by the engine); exactly one of the
    # two codes must fire so one defect yields one diagnostic.
    bag = (
        _keyed(ctx)
        .reduce_by_key(lambda a, b: a + b, 4)
        .group_by_key(4)
    )
    found = codes(analyze_bag(bag))
    assert "NPL401" in found
    assert "NPL304" not in found


def test_npl304_silent_when_partition_counts_differ(ctx):
    bag = (
        _keyed(ctx)
        .reduce_by_key(lambda a, b: a + b, 4)
        .group_by_key(8)
    )
    assert "NPL304" not in codes(analyze_bag(bag))


def test_clean_plan_has_no_diagnostics(ctx):
    bag = _keyed(ctx).reduce_by_key(lambda a, b: a + b).map_values(abs)
    assert analyze_bag(bag) == []


# ---------------------------------------------------------------------------
# Bag.collect(lint=...)
# ---------------------------------------------------------------------------


def test_collect_lint_error_raises_before_execution():
    joined = _broadcast_join(_heavy_ctx())
    with pytest.raises(AnalysisError) as err:
        joined.collect(lint="error")
    assert "NPL303" in [d.code for d in err.value.diagnostics]


def test_collect_lint_true_means_error():
    joined = _broadcast_join(_heavy_ctx())
    with pytest.raises(AnalysisError):
        joined.collect(lint=True)


def test_collect_lint_warn_runs_and_warns(ctx):
    reduced = _keyed(ctx).reduce_by_key(lambda a, b: a + b)
    merged = reduced.filter(_value_positive).union(reduced.keys())
    with pytest.warns(UserWarning) as record:
        result = merged.collect(lint="warn")
    # The plan lint's NPL301 and the schema pass's union-shape NPL602.
    messages = [str(warning.message) for warning in record]
    assert len(messages) == 2
    assert any("NPL301" in message for message in messages)
    assert any("NPL602" in message for message in messages)
    assert result


def test_collect_lint_strict_raises_on_warnings(ctx):
    reduced = _keyed(ctx).reduce_by_key(lambda a, b: a + b)
    merged = reduced.filter(_value_positive).union(reduced.keys())
    with pytest.raises(AnalysisError):
        merged.collect(lint="strict")


def test_collect_lint_default_off(ctx):
    reduced = _keyed(ctx).reduce_by_key(lambda a, b: a + b)
    merged = reduced.filter(_value_positive).union(reduced.keys())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert merged.collect()


def test_collect_lint_rejects_unknown_mode(ctx):
    bag = ctx.bag_of([1, 2, 3])
    with pytest.raises(PlanError):
        bag.collect(lint="everything")


def test_collect_lint_clean_plan_collects(ctx):
    bag = ctx.bag_of([3, 1, 2]).map(lambda x: x * 2)
    assert sorted(bag.collect(lint="strict")) == [2, 4, 6]
