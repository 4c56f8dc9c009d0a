"""Join strategies: repartition (cogroup-based) and broadcast."""

from collections import Counter

import pytest

from repro.errors import PlanError


def reference_join(left, right):
    """Nested-loop join ground truth."""
    out = []
    for lk, lv in left:
        for rk, rv in right:
            if lk == rk:
                out.append((lk, (lv, rv)))
    return Counter(out)


LEFT = [("a", 1), ("a", 2), ("b", 3), ("d", 9)]
RIGHT = [("a", "x"), ("b", "y"), ("b", "z"), ("c", "w")]
UNHASHABLE = r"hashable keys, got \[0\]"


def _add(a, b):
    return a + b


class TestRepartitionJoin:
    def test_matches_nested_loop_reference(self, ctx):
        got = ctx.bag_of(LEFT).join(ctx.bag_of(RIGHT)).collect()
        assert Counter(got) == reference_join(LEFT, RIGHT)

    def test_empty_left(self, ctx):
        got = ctx.bag_of([]).join(ctx.bag_of(RIGHT)).collect()
        assert got == []

    def test_empty_right(self, ctx):
        got = ctx.bag_of(LEFT).join(ctx.bag_of([])).collect()
        assert got == []

    def test_multiplicity(self, ctx):
        left = ctx.bag_of([("k", 1), ("k", 2)])
        right = ctx.bag_of([("k", "x"), ("k", "y"), ("k", "z")])
        assert len(left.join(right).collect()) == 6


class TestBroadcastJoin:
    def test_matches_nested_loop_reference(self, ctx):
        got = ctx.bag_of(LEFT).join(
            ctx.bag_of(RIGHT), strategy="broadcast"
        ).collect()
        assert Counter(got) == reference_join(LEFT, RIGHT)

    def test_agrees_with_repartition(self, ctx):
        broadcast = ctx.bag_of(LEFT).join(
            ctx.bag_of(RIGHT), strategy="broadcast"
        ).collect()
        repartition = ctx.bag_of(LEFT).join(ctx.bag_of(RIGHT)).collect()
        assert Counter(broadcast) == Counter(repartition)

    def test_records_broadcast_volume(self, ctx):
        ctx.bag_of(LEFT).join(
            ctx.bag_of(RIGHT), strategy="broadcast"
        ).collect()
        job = ctx.trace.jobs[-1]
        assert job.broadcast_records == len(RIGHT)

    def test_unknown_strategy_rejected(self, ctx):
        with pytest.raises(PlanError):
            ctx.bag_of(LEFT).join(ctx.bag_of(RIGHT), strategy="magic")


class TestUnhashableKeys:
    """A key no shuffle or hash table can place raises ``PlanError``
    on every join path, as the repartition join's shuffle does."""

    GOOD = [((0,), 1), ((1,), 2)]
    BAD = [([0], "x")]

    @pytest.mark.parametrize("strategy", ["broadcast", "broadcast_left"])
    def test_broadcast_build_side(self, ctx, strategy):
        good, bad = ctx.bag_of(self.GOOD), ctx.bag_of(self.BAD)
        # The build side is the bag the strategy ships.
        stream, build = (good, bad) if strategy == "broadcast" else (
            bad, good
        )
        with pytest.raises(PlanError, match=UNHASHABLE):
            stream.join(build, strategy=strategy).collect()

    @pytest.mark.parametrize("strategy", ["broadcast", "broadcast_left"])
    def test_broadcast_probe_side(self, ctx, strategy):
        good, bad = ctx.bag_of(self.GOOD), ctx.bag_of(self.BAD)
        stream, build = (bad, good) if strategy == "broadcast" else (
            good, bad
        )
        with pytest.raises(PlanError, match=UNHASHABLE):
            stream.join(build, strategy=strategy).collect()

    def test_adopt_left_cogroup_side(self, ctx):
        # The reduce's output fits the join: it stays in place and the
        # bad side is the one the exchange moves.
        laid_out = ctx.bag_of(LEFT).reduce_by_key(_add, 4)
        with pytest.raises(PlanError, match=UNHASHABLE):
            laid_out.join(ctx.bag_of(self.BAD), num_partitions=4).collect()

    def test_adopt_right_cogroup_side(self, ctx):
        laid_out = ctx.bag_of(LEFT).reduce_by_key(_add, 4)
        with pytest.raises(PlanError, match=UNHASHABLE):
            ctx.bag_of(self.BAD).join(laid_out, num_partitions=4).collect()

    def test_the_sides_adopt_when_every_key_is_hashable(self, ctx):
        laid_out = ctx.bag_of(LEFT).reduce_by_key(_add, 4)
        other = ctx.bag_of(RIGHT)
        laid_out.join(other, num_partitions=4).collect()
        other.join(laid_out, num_partitions=4).collect()
        assert [
            d.choice for d in ctx.optimizer_decisions
            if d.kind == "shuffle-elision"
        ] == ["adopt-left", "adopt-right"]


class TestCross:
    def test_cross_product_size(self, ctx):
        a = ctx.bag_of([1, 2, 3])
        b = ctx.bag_of(["x", "y"])
        got = a.cross(b).collect()
        assert Counter(got) == Counter(
            [(i, s) for i in (1, 2, 3) for s in ("x", "y")]
        )

    def test_cross_broadcast_left_same_result(self, ctx):
        a = ctx.bag_of([1, 2])
        b = ctx.bag_of(["x"])
        right_bcast = a.cross(b, broadcast_side="right").collect()
        a2 = ctx.bag_of([1, 2])
        b2 = ctx.bag_of(["x"])
        left_bcast = a2.cross(b2, broadcast_side="left").collect()
        assert Counter(right_bcast) == Counter(left_bcast)

    def test_cross_with_empty_is_empty(self, ctx):
        assert ctx.bag_of([1]).cross(ctx.empty_bag()).collect() == []
