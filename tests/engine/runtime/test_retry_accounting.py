"""Retried tasks must not double-count records or task seconds.

A retried attempt re-processes its partition from scratch; only the
successful attempt may contribute to the stage's record totals and
``task_seconds``.  Time burned in failed attempts is tracked separately
as ``failed_attempt_seconds``.
"""

import pytest

from repro.engine import EngineContext, laptop_config


def fresh_ctx(**overrides):
    overrides.setdefault("backend", "serial")
    return EngineContext(laptop_config(**overrides))


def narrow_job(ctx):
    return sorted(
        ctx.bag_of(range(40)).map(lambda x: x * 2).collect()
    )


def shuffle_job(ctx):
    return sorted(
        ctx.bag_of(range(40))
        .map(lambda x: (x % 4, x))
        .reduce_by_key(lambda a, b: a + b)
        .collect()
    )


def totals(ctx):
    return {
        "records": ctx.trace.total_records,
        "per_stage": [
            (stage.kind, stage.origin, stage.total_records)
            for job in ctx.trace.jobs
            for stage in job.stages
        ],
    }


class TestRecordAccounting:
    @pytest.mark.parametrize("job", [narrow_job, shuffle_job])
    def test_total_records_unchanged_by_retries(self, job):
        clean = fresh_ctx()
        assert job(clean) is not None
        baseline = totals(clean)

        faulty = fresh_ctx()
        faulty.fault_injector.kill_task(task_index=0, stage=0, times=2)
        assert job(faulty) == job(fresh_ctx())
        assert faulty.runtime.tasks_retried == 2
        assert totals(faulty) == baseline

    @pytest.mark.parametrize("job", [narrow_job, shuffle_job])
    def test_total_records_unchanged_on_process_backend(self, job):
        clean = fresh_ctx()
        job(clean)
        baseline = totals(clean)

        faulty = fresh_ctx(backend="process", num_workers=2)
        faulty.fault_injector.kill_task(task_index=1, stage=0)
        job(faulty)
        assert faulty.runtime.tasks_retried == 1
        assert totals(faulty) == baseline

    def test_reduce_side_retry_does_not_inflate_shuffle_counts(self):
        clean = fresh_ctx()
        shuffle_job(clean)
        baseline = [
            stage.shuffle_read_records
            for job in clean.trace.jobs
            for stage in job.stages
        ]

        faulty = fresh_ctx()
        faulty.fault_injector.kill_task(
            operator="ReduceByKey", task_index=0
        )
        shuffle_job(faulty)
        assert faulty.runtime.tasks_retried == 1
        assert [
            stage.shuffle_read_records
            for job in faulty.trace.jobs
            for stage in job.stages
        ] == baseline


class TestSecondsAccounting:
    def stage_with_retry(self, ctx):
        for job in ctx.trace.jobs:
            for stage in job.stages:
                if stage.task_retries:
                    return stage
        raise AssertionError("no stage recorded a retry")

    def test_failed_attempts_tracked_separately(self):
        ctx = fresh_ctx()
        ctx.fault_injector.kill_task(task_index=0, stage=0, times=2)
        narrow_job(ctx)
        stage = self.stage_with_retry(ctx)
        assert stage.task_retries == 2
        assert stage.failed_attempt_seconds > 0.0
        assert ctx.trace.failed_attempt_seconds == (
            stage.failed_attempt_seconds
        )

    def test_task_seconds_counts_each_task_once(self):
        """With per-task timing, a stage's task_seconds must come from
        exactly ``num_tasks`` successful attempts -- the killed
        attempt's time goes to failed_attempt_seconds instead."""
        ctx = fresh_ctx()
        ctx.fault_injector.kill_task(task_index=0, stage=0)
        narrow_job(ctx)
        stage = self.stage_with_retry(ctx)
        seconds = stage.task_seconds.dense()
        assert len(seconds) == stage.num_tasks
        assert all(share > 0.0 for share in seconds)

    def test_clean_run_has_no_failed_attempt_seconds(self):
        ctx = fresh_ctx()
        shuffle_job(ctx)
        assert ctx.trace.failed_attempt_seconds == 0.0
