"""Straggler detection with concurrently dispatched stages.

The straggler baseline is the task set's *own* per-task attributed
seconds -- never a pool-wide aggregate -- so a slow co-scheduled
sibling stage can neither fabricate stragglers in a uniform stage nor
mask a genuine straggler in a mixed one.  These tests dispatch two
deliberately unbalanced stages at the same time over one scheduler --
from one thread each, as the jobs of a ``ctx.gather`` do -- and check
both directions.
"""

import threading
import time

import pytest

from repro.engine import TaskScheduler, laptop_config
from repro.engine.metrics import ExecutionTrace


class SleepTask:
    operator = "Sleep[test]"

    def __call__(self, seconds):
        time.sleep(seconds)
        return seconds


def concurrent_scheduler():
    return TaskScheduler(
        laptop_config(
            backend="serial",
            straggler_min_task_seconds=0.005,
            straggler_factor=1.5,
        )
    )


def dispatch_both(scheduler, fast_args, slow_args):
    """Run two stages side by side; returns their StageMetrics."""
    trace = ExecutionTrace()
    job = trace.new_job("collect")
    fast_stage = job.new_stage("input", len(fast_args))
    slow_stage = job.new_stage("input", len(slow_args))
    threads = [
        threading.Thread(
            target=scheduler.run_stage, args=(SleepTask(), args, stage)
        )
        for args, stage in ((fast_args, fast_stage), (slow_args, slow_stage))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    return fast_stage, slow_stage


class TestConcurrentStragglerBaselines:
    def test_uniform_stages_unskewed_by_slow_sibling(self):
        # Pooled, the fast tasks would drag the median down and flag
        # every slow-stage task; per-set baselines flag none.
        scheduler = concurrent_scheduler()
        try:
            fast, slow = dispatch_both(
                scheduler,
                fast_args=[(0.0,)] * 5,
                slow_args=[(0.04,)] * 5,
            )
        finally:
            scheduler.close()
        assert fast.straggler_tasks == 0
        assert slow.straggler_tasks == 0

    def test_genuine_straggler_not_masked_by_slow_sibling(self):
        # Pooled, the sibling's uniformly slow tasks would raise the
        # median above the mixed stage's outlier; per-set baselines
        # still flag exactly the one outlier.
        scheduler = concurrent_scheduler()
        try:
            mixed, slow = dispatch_both(
                scheduler,
                fast_args=[(0.0,)] * 5 + [(0.04,)],
                slow_args=[(0.08,)] * 4,
            )
        finally:
            scheduler.close()
        assert mixed.straggler_tasks == 1
        assert slow.straggler_tasks == 0

    def test_retry_accounting_isolated_per_stage(self):
        # Measured seconds land on the stage that ran the task, even
        # when the two dispatches interleave.
        scheduler = concurrent_scheduler()
        try:
            fast, slow = dispatch_both(
                scheduler,
                fast_args=[(0.0,)] * 3,
                slow_args=[(0.02,)] * 3,
            )
        finally:
            scheduler.close()
        assert fast.task_seconds.live == [0, 1, 2]
        assert slow.task_seconds.live == [0, 1, 2]
        assert slow.measured_seconds >= 0.06
        assert fast.measured_seconds < slow.measured_seconds


class TestSparseSetBaseline:
    """The median is taken over the tasks that ran.  Padded with the
    zeros of 1150 undispatched empties it would be 0, and every real
    task would be measured against the absolute floor alone."""

    def scheduler(self):
        return TaskScheduler(
            laptop_config(
                backend="serial",
                straggler_min_task_seconds=0.005,
                straggler_factor=1.5,
            )
        )

    def test_uniform_slow_tasks_among_empties_are_not_stragglers(self):
        ran = list(range(0, 1200, 24))
        seconds = [0.04] * len(ran)
        assert self.scheduler()._straggler_indices(seconds, ran) == []

    def test_outlier_among_empties_is_flagged_under_its_own_index(self):
        ran = list(range(0, 1200, 24))
        seconds = [0.04] * len(ran)
        seconds[ran.index(480)] = 0.2
        assert self.scheduler()._straggler_indices(seconds, ran) == [480]

    def test_sparse_dispatch_end_to_end(self):
        # Three tasks sleep alike, 61 partitions are empty: nothing is
        # a straggler, though each exceeds the floor many times over.
        class SleepOverRecords(SleepTask):
            def empty_result(self):
                return 0.0

            def __call__(self, part):
                return super().__call__(sum(part))

        scheduler = self.scheduler()
        stage = ExecutionTrace().new_job("collect").new_stage("input", 64)
        parts = [[] for _ in range(64)]
        parts[3], parts[30], parts[60] = [0.03], [0.03], [0.03]
        values, live = scheduler.run_stage(
            SleepOverRecords(), [(part,) for part in parts], stage=stage
        )
        assert live == [3, 30, 60]
        assert sum(values) == pytest.approx(0.09)
        assert scheduler.tasks_launched == 3
        assert stage.straggler_tasks == 0
