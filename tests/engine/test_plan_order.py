"""Plan-order evaluation: units, their ordinals, failures, and gather.

A job's stages run one at a time in the order ``plan_units`` lists
them (see ``repro.engine.dag``); what overlaps is whole jobs, through
``ctx.gather``.
"""

import threading

import pytest

from repro.engine import EngineContext, laptop_config
from repro.engine.dag import OrdinalCursor, plan_units, total_ordinal_budget
from repro.engine.optimize import plan_shuffle_elisions
from repro.errors import UdfError


class TestPlanOrderExecution:
    def test_cached_bag_materialized_once_and_shared(self):
        ctx = EngineContext(laptop_config())
        shared = (
            ctx.bag_of(range(40))
            .map(lambda x: (x % 4, x))
            .reduce_by_key(lambda a, b: a + b)
            .cache()
        )
        first = sorted(shared.collect())
        assert shared.node.materialized is not None
        second = sorted(shared.map(lambda kv: kv).collect())
        assert first == second
        # The second job reads the cache: it records a "cached" stage
        # and schedules no shuffle of its own.
        second_job = ctx.trace.jobs[-1]
        assert any(s.kind == "cached" for s in second_job.stages)
        assert all(
            s.shuffle_read_records == 0 for s in second_job.stages
        )

    def test_udf_error_propagates_and_context_survives(self):
        ctx = EngineContext(laptop_config())

        def boom(kv):
            raise ValueError("bad record %r" % (kv,))

        left = ctx.bag_of(range(20)).map(lambda x: (x % 2, x))
        right = (
            ctx.bag_of(range(20))
            .map(lambda x: (x % 2, x))
            .reduce_by_key(lambda a, b: a + b)
            .map(boom)
        )
        with pytest.raises(UdfError):
            left.cogroup(right).collect()
        # The context stays usable after a failed job.
        assert ctx.bag_of(range(5)).count() == 5

    def test_a_failing_unit_leaves_its_stages_in_the_job(self):
        ctx = EngineContext(laptop_config())

        def boom(kv):
            raise ValueError("bad record %r" % (kv,))

        failing = (
            ctx.bag_of(range(20))
            .map(lambda x: (x % 2, x))
            .reduce_by_key(lambda a, b: a + b)
            .map(boom)
            .group_by_key()
        )
        with pytest.raises(UdfError):
            failing.collect()
        # The UDF raised in the job's second stage: both stages opened
        # so far stay inspectable, the group_by_key's never opened.
        stages = ctx.trace.jobs[-1].stages
        assert [(s.stage_id, s.kind, s.origin) for s in stages] == [
            (0, "input", "Parallelize"), (1, "shuffle", "ReduceByKey"),
        ]
        assert stages[0].total_records > 0


class TestPlannedOrdinals:
    def test_unit_ordinals_cover_the_reserved_budget(self):
        ctx = EngineContext(laptop_config())
        left = ctx.bag_of(range(12)).map(lambda x: (x % 3, x))
        wide = left.reduce_by_key(lambda a, b: a + b)
        units = plan_units(wide.node)
        budget = total_ordinal_budget(units)
        assert budget == units[-1].ordinal_offset + units[-1].ordinal_budget
        offsets = [u.ordinal_offset for u in units]
        assert offsets == sorted(offsets)

    def test_ordinal_cursor_is_sequential(self):
        cursor = OrdinalCursor(5)
        assert [cursor.take() for _ in range(3)] == [5, 6, 7]


def _shape(units):
    """Per unit: node name, fused chain's node names, ordinal budget."""
    return [
        (
            unit.node.name,
            unit.chain and [node.name for node in unit.chain],
            unit.ordinal_budget,
        )
        for unit in units
    ]


class TestFoldFusion:
    """A ``reduce_by_key`` plans as one unit with the chain below it --
    the map-side combine rides in the chain's task -- exactly where
    fusion could have continued into its child."""

    @staticmethod
    def keyed(ctx):
        return ctx.bag_of(range(12)).map(lambda x: (x % 3, x))

    def test_a_chain_under_a_reduce_is_one_unit_of_three_ordinals(self):
        ctx = EngineContext(laptop_config())
        reduced = (
            self.keyed(ctx).filter(lambda kv: kv[1] != 5)
            .reduce_by_key(lambda a, b: a + b)
        )
        assert _shape(plan_units(reduced.node)) == [
            ("Parallelize", None, 0),
            ("ReduceByKey", ["Map", "Filter"], 3),
        ]
        # With nothing to fuse it is the two task sets it always was.
        plain = ctx.bag_of([(1, 2)]).reduce_by_key(lambda a, b: a + b)
        assert _shape(plan_units(plain.node)) == [
            ("Parallelize", None, 0), ("ReduceByKey", None, 2),
        ]

    def test_fusion_stops_where_a_result_must_exist(self):
        ctx = EngineContext(laptop_config())

        def add(a, b):
            return a + b

        unfused = [
            ("Parallelize", None, 0), ("Map", ["Map"], 1),
            ("ReduceByKey", None, 2),
        ]
        cached = self.keyed(ctx).cache()
        assert _shape(plan_units(cached.reduce_by_key(add).node)) == unfused
        shared = self.keyed(ctx)
        both = shared.reduce_by_key(add).union(shared)
        assert _shape(plan_units(both.node)) == unfused + [("Union", None, 0)]
        # Once materialized the chain top is a cached unit of its own.
        assert cached.count() == 12
        assert _shape(plan_units(cached.reduce_by_key(add).node)) == [
            ("Map", None, 0), ("ReduceByKey", None, 2),
        ]
        # A cached node further down ends the chain there, not the fusion.
        above = self.keyed(ctx).cache().filter(lambda kv: True)
        assert _shape(plan_units(above.reduce_by_key(add).node)) == [
            ("Parallelize", None, 0), ("Map", ["Map"], 1),
            ("ReduceByKey", ["Filter"], 3),
        ]

    def test_a_planned_elision_keeps_the_reduce_unfused(self):
        config = laptop_config(optimize_shuffles=True)
        ctx = EngineContext(config)

        def add(a, b):
            return a + b

        twice = (
            self.keyed(ctx).reduce_by_key(add)
            .filter(lambda kv: kv[1] > 3).reduce_by_key(add)
        )
        elisions = plan_shuffle_elisions(twice.node, config)
        assert list(elisions) == [id(twice.node)]
        # One combine pass on the stage the operator opens: there is no
        # map-side half to ride in the filter's task.
        assert _shape(plan_units(twice.node, unfused=elisions)) == [
            ("Parallelize", None, 0), ("ReduceByKey", ["Map"], 3),
            ("Filter", ["Filter"], 1), ("ReduceByKey", None, 2),
        ]
        assert _shape(plan_units(twice.node))[2:] == [
            ("ReduceByKey", ["Filter"], 3),
        ]
        assert sorted(twice.collect()) == [(0, 18), (1, 22), (2, 26)]
        kinds = [d.kind for d in ctx.optimizer_decisions]
        assert kinds.count("shuffle-elision") == 1
        # Same budget either way: later addresses do not depend on it.
        assert total_ordinal_budget(plan_units(twice.node)) == (
            total_ordinal_budget(plan_units(twice.node, unfused=elisions))
        )


class TestGather:
    def test_results_in_submission_order(self):
        ctx = EngineContext(laptop_config())
        results = ctx.gather(
            lambda: ctx.bag_of(range(10)).count(),
            lambda: sorted(ctx.bag_of([3, 1, 2]).collect()),
            lambda: ctx.bag_of(range(4)).map(lambda x: x * x).count(),
        )
        assert results == [10, [1, 2, 3], 4]

    def test_trace_restored_to_submission_order(self):
        ctx = EngineContext(laptop_config())
        barrier = threading.Barrier(3, timeout=10)

        def job(label, n):
            def run():
                barrier.wait()
                return ctx.bag_of(range(n)).count(label=label)

            return run

        ctx.gather(job("a", 5), job("b", 6), job("c", 7))
        labels = [job.label for job in ctx.trace.jobs]
        assert labels == ["a", "b", "c"]
        assert [job.job_id for job in ctx.trace.jobs] == [0, 1, 2]

    def test_earliest_slot_exception_wins(self):
        ctx = EngineContext(laptop_config())

        def fail(message):
            def run():
                raise RuntimeError(message)

            return run

        with pytest.raises(RuntimeError, match="first"):
            ctx.gather(
                lambda: ctx.bag_of(range(3)).count(),
                fail("first"),
                fail("second"),
            )

    def test_empty_gather(self):
        ctx = EngineContext(laptop_config())
        assert ctx.gather() == []
