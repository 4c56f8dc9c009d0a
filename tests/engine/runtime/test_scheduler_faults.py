"""Fault injection, retries, and runtime measurement via the scheduler."""

import time

import pytest

from repro.engine import EngineContext, TaskScheduler, laptop_config
from repro.engine.metrics import ExecutionTrace
from repro.errors import InjectedFault, TaskFailedError, UdfError


def fresh_ctx(**overrides):
    overrides.setdefault("backend", "serial")
    return EngineContext(laptop_config(**overrides))


class SleepTask:
    operator = "Sleep[test]"

    def __call__(self, seconds):
        time.sleep(seconds)
        return seconds


class TestFaultInjection:
    def test_killed_task_retried_to_success(self):
        ctx = fresh_ctx()
        ctx.fault_injector.kill_task(task_index=1, stage=0)
        data = list(range(20))
        assert sorted(ctx.bag_of(data).map(lambda x: x + 1).collect()) == [
            x + 1 for x in data
        ]
        assert ctx.fault_injector.injected == 1
        assert ctx.fault_injector.pending == 0
        assert ctx.runtime.tasks_retried == 1

    def test_retry_recorded_in_stage_metrics(self):
        ctx = fresh_ctx()
        ctx.fault_injector.kill_task(task_index=0, stage=0)
        ctx.bag_of(range(8)).map(lambda x: x).collect()
        assert ctx.trace.task_retries == 1
        retried_stages = [
            stage
            for job in ctx.trace.jobs
            for stage in job.stages
            if stage.task_retries
        ]
        assert len(retried_stages) == 1

    def test_operator_matcher_kills_n_attempts(self):
        ctx = fresh_ctx()
        ctx.fault_injector.kill_task(operator="Map", times=2)
        data = list(range(20))
        assert sorted(
            ctx.bag_of(data).map(lambda x: x * 2).collect()
        ) == [x * 2 for x in data]
        assert ctx.fault_injector.injected == 2
        assert ctx.runtime.tasks_retried == 2

    def test_exhausted_retry_budget_fails_the_job(self):
        ctx = fresh_ctx(max_task_attempts=3)
        ctx.fault_injector.kill_task(task_index=0, stage=0, times=99)
        with pytest.raises(TaskFailedError) as info:
            ctx.bag_of(range(8)).map(lambda x: x).collect()
        assert info.value.task_index == 0
        assert info.value.attempts == 3
        assert isinstance(info.value.last_error, InjectedFault)
        assert ctx.fault_injector.injected == 3
        # A failed job never poisons the next one.
        ctx.fault_injector.reset()
        assert ctx.bag_of(range(8)).map(lambda x: x).count() == 8

    def test_kill_plan_requires_a_matcher(self):
        ctx = fresh_ctx()
        with pytest.raises(ValueError):
            ctx.fault_injector.kill_task()

    def test_reset_clears_plans(self):
        ctx = fresh_ctx()
        ctx.fault_injector.kill_task(task_index=0)
        ctx.fault_injector.reset()
        assert ctx.fault_injector.pending == 0
        ctx.bag_of(range(4)).map(lambda x: x).collect()
        assert ctx.fault_injector.injected == 0

    def test_injection_works_on_process_backend(self):
        ctx = EngineContext(
            laptop_config(backend="process", num_workers=2)
        )
        ctx.fault_injector.kill_task(task_index=0, stage=0)
        data = list(range(12))
        assert sorted(
            ctx.bag_of(data).map(lambda x: x + 3).collect()
        ) == [x + 3 for x in data]
        assert ctx.fault_injector.injected == 1
        assert ctx.trace.task_retries == 1


class TestRetryPolicy:
    def test_udf_bug_is_not_retried(self):
        ctx = fresh_ctx()
        # A never-matching kill plan keeps the outcome-mediated path
        # active, so this exercises the scheduler's retry decision.
        ctx.fault_injector.kill_task(operator="NoSuchOperator")

        def boom(x):
            raise ValueError("bad record %r" % x)

        with pytest.raises(UdfError):
            ctx.bag_of(range(4)).map(boom).collect()
        assert ctx.runtime.tasks_retried == 0
        assert ctx.trace.task_retries == 0

    def test_udf_bug_fails_fast_on_serial_fast_path(self):
        ctx = fresh_ctx()

        def boom(x):
            raise ValueError("bad record %r" % x)

        with pytest.raises(UdfError) as info:
            ctx.bag_of(range(4)).map(boom).collect()
        assert isinstance(info.value.original, ValueError)
        assert ctx.runtime.tasks_retried == 0


class TestMeasurement:
    def test_task_seconds_recorded_per_stage(self):
        ctx = fresh_ctx()
        ctx.bag_of(range(32)).map(lambda x: x).collect()
        assert ctx.measured_task_seconds() > 0
        for job in ctx.trace.jobs:
            for stage in job.stages:
                if stage.task_records.live:
                    assert stage.task_seconds.live == (
                        stage.task_records.live
                    )

    def test_measure_reports_simulated_and_measured(self):
        ctx = fresh_ctx()
        with ctx.measure() as measurement:
            ctx.bag_of(range(100)).map(lambda x: x + 1).count()
        assert measurement.seconds > 0
        assert measurement.measured_seconds > 0
        assert measurement.task_seconds >= 0
        assert measurement.measured_seconds != measurement.seconds

    def test_straggler_detection(self):
        config = laptop_config(
            backend="serial",
            straggler_min_task_seconds=0.005,
            straggler_factor=1.5,
        )
        scheduler = TaskScheduler(config)
        trace = ExecutionTrace()
        stage = trace.new_job("collect").new_stage("input")
        args = [(0.0,)] * 5 + [(0.03,)]
        values, live = scheduler.run_stage(SleepTask(), args, stage=stage)
        assert values == [0.0] * 5 + [0.03]
        assert live == list(range(6))
        assert stage.straggler_tasks == 1

    def test_no_straggler_when_uniform(self):
        config = laptop_config(backend="serial")
        scheduler = TaskScheduler(config)
        trace = ExecutionTrace()
        stage = trace.new_job("collect").new_stage("input")
        scheduler.run_stage(SleepTask(), [(0.0,)] * 6, stage=stage)
        assert stage.straggler_tasks == 0
