"""The outer- and inner-parallel workaround runners."""

import pytest

from repro.baselines.inner_parallel import (
    group_locally,
    run_inner_parallel,
)
from repro.baselines.outer_parallel import (
    run_outer_parallel,
    sequential_udf,
)
from repro.engine import ClusterConfig, EngineContext
from repro.errors import SimulatedOutOfMemory


class TestOuterParallel:
    def test_applies_udf_per_group(self, ctx):
        bag = ctx.bag_of([("a", 1), ("a", 2), ("b", 5)])
        result = run_outer_parallel(
            bag, lambda _k, values: (sum(values), len(values))
        ).collect_as_map()
        assert result == {"a": 3, "b": 5}

    def test_sequential_udf_wrapper(self, ctx):
        bag = ctx.bag_of([("a", 1), ("a", 2)])
        udf = sequential_udf(lambda _k, values: max(values))
        assert run_outer_parallel(bag, udf).collect_as_map() == {"a": 2}

    def test_work_is_credited_to_the_trace(self, ctx):
        bag = ctx.bag_of([("a", i) for i in range(10)])
        before = ctx.trace.total_records
        run_outer_parallel(
            bag, lambda _k, values: (0, 10_000)
        ).collect()
        assert ctx.trace.total_records - before > 10_000

    def test_oversized_group_dies(self):
        ctx = EngineContext(
            ClusterConfig(
                machines=1,
                cores_per_machine=1,
                memory_per_machine_bytes=5_000,
                bytes_per_record=100.0,
                memory_overhead_factor=1.0,
                memory_safety_fraction=1.0,
            )
        )
        bag = ctx.bag_of([("hot", i) for i in range(100)])
        with pytest.raises(SimulatedOutOfMemory):
            run_outer_parallel(
                bag, sequential_udf(lambda _k, v: len(v))
            ).collect()

    def test_parallelism_capped_by_group_count(self, ctx):
        """With fewer groups than partitions, only that many reduce
        tasks carry records (the workaround's core weakness)."""
        bag = ctx.bag_of([("g%d" % (i % 3), i) for i in range(60)])
        run_outer_parallel(
            bag, sequential_udf(lambda _k, v: len(v))
        ).collect()
        reduce_stages = [
            stage
            for job in ctx.trace.jobs
            for stage in job.stages
            if stage.kind == "shuffle"
        ]
        busy_tasks = sum(
            1 for r in reduce_stages[-1].task_records.amounts if r > 0
        )
        assert busy_tasks <= 3


class TestInnerParallel:
    def test_results_per_group(self, ctx):
        groups = {"a": [1, 2], "b": [5]}
        results = run_inner_parallel(
            ctx, groups, lambda c, values: c.bag_of(values).sum()
        )
        assert results == [("a", 3), ("b", 5)]

    def test_jobs_scale_with_group_count(self, ctx):
        def per_group(c, values):
            return c.bag_of(values).count()

        ctx.reset_trace()
        run_inner_parallel(ctx, {"a": [1]}, per_group)
        one_group_jobs = ctx.trace.num_jobs
        ctx.reset_trace()
        run_inner_parallel(
            ctx, {k: [1] for k in "abcdefgh"}, per_group
        )
        assert ctx.trace.num_jobs == 8 * one_group_jobs

    def test_group_locally(self):
        records = [("a", 1), ("b", 2), ("a", 3)]
        assert group_locally(records) == {"a": [1, 3], "b": [2]}

    def test_deterministic_order(self, ctx):
        groups = {"b": [1], "a": [2], "c": [3]}
        results = run_inner_parallel(
            ctx, groups, lambda c, values: values[0]
        )
        assert [k for k, _v in results] == ["a", "b", "c"]
