"""Simulated OOM and spill paths (failure injection)."""

import pytest

from repro.engine import ClusterConfig, EngineContext
from repro.errors import SimulatedOutOfMemory


def tiny_memory_context(**overrides):
    defaults = {
        "machines": 2,
        "cores_per_machine": 2,
        "memory_per_machine_bytes": 4_000,
        "bytes_per_record": 100.0,
        "memory_overhead_factor": 1.0,
        "memory_safety_fraction": 1.0,
        "driver_memory_bytes": 10_000_000,
        "parallelism_factor": 1,
    }
    defaults.update(overrides)
    return EngineContext(ClusterConfig(**defaults))


class TestGroupMaterializationOom:
    def test_oversized_group_raises(self):
        ctx = tiny_memory_context()
        # One group of 100 records x 100 B = 10 KB > 4 KB executor limit.
        bag = ctx.bag_of([("hot", i) for i in range(100)])
        with pytest.raises(SimulatedOutOfMemory) as err:
            bag.group_by_key().collect()
        assert "materializing group 'hot'" in str(err.value)

    def test_small_groups_fit(self):
        ctx = tiny_memory_context()
        bag = ctx.bag_of([(i, i) for i in range(40)])
        assert len(bag.group_by_key().collect()) == 40

    def test_lone_task_gets_full_executor_memory(self):
        ctx = tiny_memory_context()
        # 30 records in one group: 3 KB < 4 KB only if the task is alone.
        bag = ctx.bag_of([("only", i) for i in range(30)])
        assert len(bag.group_by_key().collect()) == 1

    def test_overhead_factor_tightens_the_limit(self):
        ctx = tiny_memory_context(memory_overhead_factor=5.0)
        bag = ctx.bag_of([("only", i) for i in range(30)])
        with pytest.raises(SimulatedOutOfMemory):
            bag.group_by_key().collect()


class TestBroadcastOom:
    def test_broadcast_join_build_side_too_large(self):
        ctx = tiny_memory_context()
        left = ctx.bag_of([(i, i) for i in range(5)])
        right = ctx.bag_of([(i, i) for i in range(100)])
        with pytest.raises(SimulatedOutOfMemory):
            left.join(right, strategy="broadcast").collect()

    def test_repartition_join_survives_the_same_inputs(self):
        ctx = tiny_memory_context()
        left = ctx.bag_of([(i, i) for i in range(5)])
        right = ctx.bag_of([(i, i) for i in range(100)])
        assert len(left.join(right).collect()) == 5

    def test_driver_broadcast_checked(self):
        ctx = tiny_memory_context()
        with pytest.raises(SimulatedOutOfMemory):
            ctx.broadcast(list(range(1000)))

    def test_meta_broadcast_is_cheap(self):
        ctx = tiny_memory_context()
        left = ctx.bag_of([(i, i) for i in range(5)])
        right = ctx.bag_of([(i, i) for i in range(100)]).as_meta()
        # 100 records at 256 B (meta) x1 overhead = 25.6 KB... still too
        # big for 4 KB; shrink to demonstrate the meta rate is used.
        small_right = ctx.bag_of([(i, i) for i in range(10)]).as_meta()
        assert left.join(
            small_right, strategy="broadcast"
        ).collect() is not None
        with pytest.raises(SimulatedOutOfMemory):
            left.join(right, strategy="broadcast").collect()


class TestCogroupOom:
    def test_hot_key_cogroup_raises(self):
        ctx = tiny_memory_context()
        left = ctx.bag_of([("hot", i) for i in range(80)])
        right = ctx.bag_of([("hot", i) for i in range(80)])
        with pytest.raises(SimulatedOutOfMemory) as err:
            left.cogroup(right).collect()
        assert "cogrouping key 'hot'" in str(err.value)


class TestSpillAccounting:
    def test_oversized_reduce_task_spills_not_dies(self):
        ctx = tiny_memory_context()
        # reduce_by_key combines map-side; to force volume, use unique
        # keys so nothing combines: 120 records -> 12 KB through one
        # 1-partition shuffle (> 4 KB task limit) => spill, no OOM.
        bag = ctx.bag_of([(i, i) for i in range(120)])
        reduced = bag.reduce_by_key(lambda a, b: a + b, num_partitions=1)
        assert len(reduced.collect()) == 120
        spilled = sum(
            stage.spilled_records
            for job in ctx.trace.jobs
            for stage in job.stages
        )
        assert spilled > 0

    def test_small_shuffles_do_not_spill(self):
        ctx = tiny_memory_context()
        bag = ctx.bag_of([(i, i) for i in range(4)])
        bag.reduce_by_key(lambda a, b: a + b).collect()
        spilled = sum(
            stage.spilled_records
            for job in ctx.trace.jobs
            for stage in job.stages
        )
        assert spilled == 0
