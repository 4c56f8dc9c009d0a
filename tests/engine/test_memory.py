"""Simulated OOM and spill paths (failure injection)."""

import pytest

from repro.engine import ClusterConfig, EngineContext
from repro.engine.metrics import Ledger, StageMetrics
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


def _spilled_by_loop(cfg, stage):
    """``Executor._account_spill`` asking about every task: the oracle."""
    rate = cfg.result_record_bytes if stage.meta else cfg.bytes_per_record
    task_records = stage.task_records.dense()
    nonempty = sum(1 for records in task_records if records)
    per_machine = -(-max(1, nonempty) // cfg.machines)
    task_limit = cfg.task_memory_limit_bytes(per_machine)
    spilled = sum(
        records for records in task_records
        if cfg.materialized_bytes(records, rate) > task_limit
    )
    cluster_limit = cfg.executor_memory_limit_bytes * cfg.machines
    excess = (
        cfg.materialized_bytes(stage.total_records, rate) - cluster_limit
    )
    if excess > 0:
        spilled += int(excess / (rate * cfg.memory_overhead_factor))
    return spilled


class TestSpillShortCut:
    # tiny_memory_context: 4000 B a machine, 2 machines, 100 B a
    # record -- a task of a full machine holds 20 records, the cluster
    # 80.
    @pytest.mark.parametrize(
        "task_records, meta",
        [
            ([], False),                       # empty stage
            ([0, 0, 0], False),
            ([3, 0, 5, 1], False),             # nothing spills
            ([20, 20, 20, 20], False),         # each exactly at its limit
            ([3, 0, 21, 1], False),            # one task over
            ([30, 25, 40, 50], False),         # all over, cluster too
            ([10] * 12, False),                # cluster-level excess only
            ([3, 0, 5000, 1], True),           # meta rate, one over
            ([2.5, 0, 20.5, 1], False),        # weighted work
        ],
    )
    def test_spill_equals_the_per_task_loop(self, task_records, meta):
        ctx = tiny_memory_context()
        stage = StageMetrics(
            stage_id=0, kind="shuffle", meta=meta,
            task_records=Ledger.from_dense(task_records),
        )
        ctx.executor._account_spill(stage)
        assert stage.spilled_records == _spilled_by_loop(ctx.config, stage)

    def test_the_oracle_tells_the_cases_apart(self):
        cfg = tiny_memory_context().config
        spilled = [
            _spilled_by_loop(
                cfg, StageMetrics(
                    0, "shuffle", task_records=Ledger.from_dense(records)
                )
            )
            for records in ([3, 0, 5, 1], [3, 0, 21, 1], [10] * 12)
        ]
        assert spilled == [0, 21, 40]

    def test_a_stage_that_fits_is_asked_about_twice(self, monkeypatch):
        ctx = EngineContext(ClusterConfig())
        calls = []
        real = ClusterConfig.materialized_bytes

        def counting(self, num_records, record_bytes=None):
            calls.append(num_records)
            return real(self, num_records, record_bytes)

        monkeypatch.setattr(ClusterConfig, "materialized_bytes", counting)
        stage = StageMetrics(
            0, "shuffle", task_records=Ledger.from_dense([1, 0, 2] * 400)
        )
        ctx.executor._account_spill(stage)
        assert stage.spilled_records == 0
        # The largest task and the stage's total -- not 1200 tasks.
        assert len(calls) <= 3
