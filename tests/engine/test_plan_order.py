"""Plan-order evaluation: units, their ordinals, failures, and gather.

A job's stages run one at a time in the order ``plan_units`` lists
them (see ``repro.engine.dag``); what overlaps is whole jobs, through
``ctx.gather``.
"""

import threading

import pytest

from repro.engine import EngineContext, laptop_config
from repro.engine.dag import OrdinalCursor, plan_units, total_ordinal_budget
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
