"""The lowering-phase runtime optimizer (paper Sec. 8)."""

import pytest

from repro.core.nestedbag import group_by_key_into_nested_bag
from repro.core.optimizer import LoweringConfig, Optimizer
from repro.engine import ClusterConfig, EngineContext


@pytest.fixture
def big_cluster_ctx():
    return EngineContext(
        ClusterConfig(machines=25, cores_per_machine=16)
    )


class TestLoweringConfig:
    def test_defaults_are_auto(self):
        lowering = LoweringConfig()
        assert lowering.join_strategy == "auto"
        assert lowering.cross_side == "auto"
        assert lowering.partition_policy == "auto"

    @pytest.mark.parametrize(
        "field,value",
        [
            ("join_strategy", "hash"),
            ("cross_side", "left"),
            ("partition_policy", "many"),
        ],
    )
    def test_rejects_unknown_values(self, field, value):
        with pytest.raises(ValueError):
            LoweringConfig(**{field: value})


class TestPartitionCounts:
    """Sec. 8.1: partition counts follow InnerScalar cardinalities."""

    def test_small_tag_counts_get_few_partitions(self, big_cluster_ctx):
        optimizer = Optimizer(big_cluster_ctx)
        assert optimizer.scalar_partitions(1) == 1
        assert optimizer.scalar_partitions(10) == 10

    def test_large_tag_counts_capped_at_default(self, big_cluster_ctx):
        optimizer = Optimizer(big_cluster_ctx)
        default = big_cluster_ctx.config.default_parallelism
        assert optimizer.scalar_partitions(10 ** 9) == default

    def test_default_policy_ignores_cardinality(self, big_cluster_ctx):
        optimizer = Optimizer(
            big_cluster_ctx, LoweringConfig(partition_policy="default")
        )
        default = big_cluster_ctx.config.default_parallelism
        assert optimizer.scalar_partitions(1) == default


class TestJoinStrategy:
    """Sec. 8.2: broadcast when the InnerScalar cannot feed all cores."""

    def test_few_tags_broadcast(self, big_cluster_ctx):
        optimizer = Optimizer(big_cluster_ctx)
        assert optimizer.scalar_join_strategy(10) == "broadcast"

    def test_enough_tags_repartition(self, big_cluster_ctx):
        optimizer = Optimizer(big_cluster_ctx)
        cores = big_cluster_ctx.config.total_cores
        assert optimizer.scalar_join_strategy(cores) == "repartition"

    def test_forced_strategy_wins(self, big_cluster_ctx):
        optimizer = Optimizer(
            big_cluster_ctx, LoweringConfig(join_strategy="repartition")
        )
        assert optimizer.scalar_join_strategy(1) == "repartition"

    def test_decisions_recorded(self, big_cluster_ctx):
        optimizer = Optimizer(big_cluster_ctx)
        optimizer.scalar_join_strategy(10)
        optimizer.scalar_join_strategy(10 ** 6)
        kinds = [
            d.choice for d in optimizer.decisions_of_kind("scalar-join")
        ]
        assert kinds == ["broadcast", "repartition"]

    def test_join_with_scalar_executes_both_ways(self, ctx):
        nested = group_by_key_into_nested_bag(
            ctx.bag_of([("a", 1), ("a", 2), ("b", 3)])
        )
        counts = nested.inner.count()
        for strategy in ("broadcast", "repartition"):
            optimizer = Optimizer(
                ctx, LoweringConfig(join_strategy=strategy)
            )
            joined = optimizer.join_with_scalar(
                nested.inner.repr, counts
            )
            got = sorted(joined.collect())
            assert got == [
                ("a", (1, 2)), ("a", (2, 2)), ("b", (3, 1)),
            ]


class TestCrossSide:
    """Sec. 8.3: which side of the half-lifted cross to broadcast."""

    def test_single_partition_scalar_broadcasts_scalar(
        self, big_cluster_ctx
    ):
        optimizer = Optimizer(big_cluster_ctx)
        nested = group_by_key_into_nested_bag(
            big_cluster_ctx.bag_of([("only", 1)])
        )
        primary = big_cluster_ctx.bag_of(range(1000))
        side = optimizer.cross_broadcast_side(
            primary, nested.lctx.constant(0)
        )
        assert side == "scalar"

    def test_size_comparison_picks_smaller_side(self, big_cluster_ctx):
        config = big_cluster_ctx.config
        optimizer = Optimizer(big_cluster_ctx)
        records = [("g%d" % i, i) for i in range(2000)]
        nested = group_by_key_into_nested_bag(
            big_cluster_ctx.bag_of(records)
        )
        # Primary bytes (tiny bag, data rate) < scalar bytes (2000 tags).
        small_primary = big_cluster_ctx.bag_of([1])
        side = optimizer.cross_broadcast_side(
            small_primary, nested.lctx.constant(0)
        )
        expected_scalar_bytes = 2000 * config.result_record_bytes
        expected_primary_bytes = 1 * config.bytes_per_record
        assert (side == "primary") == (
            expected_primary_bytes < expected_scalar_bytes
        )

    def test_forced_side(self, big_cluster_ctx):
        optimizer = Optimizer(
            big_cluster_ctx, LoweringConfig(cross_side="primary")
        )
        nested = group_by_key_into_nested_bag(
            big_cluster_ctx.bag_of([("only", 1)])
        )
        side = optimizer.cross_broadcast_side(
            big_cluster_ctx.bag_of([1]), nested.lctx.constant(0)
        )
        assert side == "primary"


class TestEstimateCount:
    def test_driver_data_is_free(self, ctx):
        optimizer = Optimizer(ctx)
        bag = ctx.bag_of(range(42))
        before = ctx.trace.num_jobs
        assert optimizer.estimate_count(bag) == 42
        assert ctx.trace.num_jobs == before

    def test_derived_bags_counted_once(self, ctx):
        optimizer = Optimizer(ctx)
        bag = ctx.bag_of(range(10)).map(lambda x: x)
        before = ctx.trace.num_jobs
        assert optimizer.estimate_count(bag) == 10
        assert optimizer.estimate_count(bag) == 10
        assert ctx.trace.num_jobs == before + 1

    def test_a_node_never_reads_another_nodes_count(self, ctx):
        # Each bag is dropped before the next is built, so a new node
        # may be allocated where a freed one lived: its count must be
        # its own, not the one memoized for the freed node.
        optimizer = Optimizer(ctx)
        for n in range(1, 33):
            bag = ctx.bag_of(range(n)).map(lambda x: x)
            assert optimizer.estimate_count(bag) == n
            del bag
