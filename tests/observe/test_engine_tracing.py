"""End-to-end engine tracing: span trees, retries, stragglers, overhead.

These tests drive real engine jobs with tracing on and assert on the
emitted events -- including the cross-backend contract that the span
tree has the same *shape* whether tasks run inline or in worker
processes.
"""

import collections
import os
import threading

import pytest

from repro.engine import EngineContext, laptop_config
from repro.engine.runtime.task import (
    STEP_MAP,
    VECTOR,
    FusedPipelineTask,
)
from repro.observe import MemorySink, Tracer
from repro.observe.events import (
    DRIVER_LANE,
    KIND_BROADCAST,
    KIND_DRIVER,
    KIND_FAULT,
    KIND_JOB,
    KIND_SERDE,
    KIND_SHUFFLE,
    KIND_STAGE,
    KIND_STRAGGLER,
    KIND_TASK,
    KIND_TASK_RETRY,
    KIND_TASK_SET,
    SPAN_KINDS,
)


def traced_ctx(backend="serial", **overrides):
    overrides.setdefault("backend", backend)
    if backend == "process":
        overrides.setdefault("num_workers", 2)
    return EngineContext(laptop_config(**overrides), trace=True)


def shuffle_job(ctx):
    return (
        ctx.bag_of(range(80))
        .map(lambda x: (x % 4, x))
        .reduce_by_key(lambda a, b: a + b)
        .collect()
    )


def kinds_of(events):
    counts = {}
    for event in events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
    return counts


class TestSpanTree:
    def test_driver_wraps_job_wraps_stages(self):
        ctx = traced_ctx()
        shuffle_job(ctx)
        events = ctx.tracer.events()
        (driver,) = [e for e in events if e.kind == KIND_DRIVER]
        (job,) = [e for e in events if e.kind == KIND_JOB]
        stages = [e for e in events if e.kind == KIND_STAGE]
        assert driver.name.startswith("driver:collect")
        assert driver.ts <= job.ts and job.end <= driver.end
        assert stages
        for stage in stages:
            assert job.ts <= stage.ts and stage.end <= job.end

    def test_task_spans_inside_task_sets(self):
        ctx = traced_ctx()
        shuffle_job(ctx)
        events = ctx.tracer.events()
        task_sets = [e for e in events if e.kind == KIND_TASK_SET]
        tasks = [e for e in events if e.kind == KIND_TASK]
        assert task_sets and tasks
        # A task span starts at a ``time.time()`` reading and lasts a
        # ``time.perf_counter()`` duration whose own start is read one
        # statement earlier; the task_set window is two ``time.time()``
        # readings.  The two clocks tick at different resolutions and a
        # busy box can preempt between the paired reads, so the ends
        # disagree by up to about a millisecond -- far below the 1 s
        # ``TaskScheduler.CLOCK_DRIFT_TOLERANCE_S``, which would make
        # this assertion vacuous.
        slack = 1e-3
        for task in tasks:
            assert any(
                ts.ts - slack <= task.ts
                and task.end <= ts.end + slack
                for ts in task_sets
            ), "task span %r outside every task_set window" % task.name

    def test_job_span_records_stage_and_record_counts(self):
        ctx = traced_ctx()
        shuffle_job(ctx)
        (job,) = [
            e for e in ctx.tracer.events() if e.kind == KIND_JOB
        ]
        assert job.args["stages"] == len(ctx.trace.jobs[-1].stages)
        assert job.args["records"] > 0

    def test_shuffle_and_broadcast_instants(self):
        ctx = traced_ctx()
        shuffle_job(ctx)
        shuffles = [
            e for e in ctx.tracer.events() if e.kind == KIND_SHUFFLE
        ]
        assert shuffles
        assert shuffles[0].args["records"] > 0
        assert shuffles[0].args["bytes"] > 0
        ctx.broadcast([1, 2, 3])
        broadcasts = [
            e for e in ctx.tracer.events() if e.kind == KIND_BROADCAST
        ]
        assert broadcasts
        assert broadcasts[-1].args["records"] == 3

    def test_stage_span_carries_full_measured_task_seconds(self):
        ctx = traced_ctx()
        shuffle_job(ctx)
        stages = [
            e for e in ctx.tracer.events() if e.kind == KIND_STAGE
        ]
        total = sum(e.args["task_seconds"] for e in stages)
        assert total == pytest.approx(
            ctx.trace.measured_task_seconds, abs=1e-9
        )


class TestGatheredJobs:
    def test_a_jobs_spans_follow_it_to_its_lane(self):
        # Two jobs that overlap in time over one context.  Everything a
        # job emits on the driver side sits on its own ``driver-<slot>``
        # lane, inside its job span, and the spans of a lane nest.
        ctx = traced_ctx()
        barrier = threading.Barrier(2, timeout=10)

        def job():
            barrier.wait()
            return shuffle_job(ctx)

        ctx.gather(job, job)
        events = ctx.tracer.events()
        jobs = {e.lane: e for e in events if e.kind == KIND_JOB}
        assert sorted(jobs) == ["driver-0", "driver-1"]
        per_lane = {lane: [] for lane in jobs}
        for event in events:
            if event.kind in (KIND_STAGE, KIND_TASK_SET, KIND_SHUFFLE):
                job_span = jobs[event.lane]  # KeyError: the shared lane
                assert job_span.ts <= event.ts <= job_span.end
                per_lane[event.lane].append(event.kind)
        assert per_lane["driver-0"] == per_lane["driver-1"]
        assert {KIND_STAGE, KIND_TASK_SET, KIND_SHUFFLE} == set(
            per_lane["driver-0"]
        )
        # (Task spans are left out: their ends are read off another
        # clock, see ``test_task_spans_inside_task_sets``.)
        nesting = (KIND_DRIVER, KIND_JOB, KIND_STAGE, KIND_TASK_SET)
        for lane in jobs:
            spans = sorted(
                (e for e in events if e.lane == lane and e.kind in nesting),
                key=lambda e: (e.ts, -e.dur),
            )
            open_ends = []
            for span in spans:
                while open_ends and open_ends[-1] <= span.ts:
                    open_ends.pop()
                # Whatever is still open must contain this span.
                assert not open_ends or span.end <= open_ends[-1]
                open_ends.append(span.end)


class TestBackendParity:
    def test_span_tree_shape_matches_across_backends(self):
        """Serial and process runs of the same program must emit the
        same span tree -- same names, same kinds, same nesting counts --
        differing only in timings, lanes, backend-specific serde events,
        and how a set's tasks were cut into batches: the process backend
        cuts smaller ones to keep its workers busy, so task spans are
        compared by the tasks each set ran."""
        results = {}
        shapes = {}
        for backend in ("serial", "process"):
            ctx = traced_ctx(backend)
            results[backend] = sorted(shuffle_job(ctx))
            events = ctx.tracer.events()
            ran = collections.Counter()
            for e in events:
                if e.kind == KIND_TASK:
                    ran[e.args["dispatch"]] += e.args["tasks"]
            shapes[backend] = sorted(
                (e.kind, e.name)
                for e in events
                if e.kind in SPAN_KINDS and e.kind != KIND_TASK
            ), ran
            ctx.close()
        assert results["serial"] == results["process"]
        assert shapes["serial"] == shapes["process"]

    def test_process_tasks_run_on_worker_lanes(self):
        ctx = traced_ctx("process")
        shuffle_job(ctx)
        lanes = {
            e.lane for e in ctx.tracer.events() if e.kind == KIND_TASK
        }
        assert lanes
        assert all(lane.startswith("worker-") for lane in lanes)
        assert DRIVER_LANE not in lanes
        ctx.close()

    def test_worker_serde_events_reanchored_into_dispatch(self):
        ctx = traced_ctx("process")
        shuffle_job(ctx)
        events = ctx.tracer.events()
        worker_serde = [
            e for e in events
            if e.kind == KIND_SERDE and e.lane != DRIVER_LANE
        ]
        assert worker_serde, "worker-side serde spans must come back"
        stages = [e for e in events if e.kind == KIND_STAGE]
        t0 = min(e.ts for e in stages)
        t1 = max(e.end for e in stages)
        for event in worker_serde:
            assert t0 - 1.0 <= event.ts <= t1 + 1.0
        ctx.close()


class TestRetriesAndStragglers:
    def test_one_retry_event_per_scheduler_retry(self):
        ctx = traced_ctx()
        ctx.fault_injector.kill_task(task_index=1, stage=0, times=2)
        shuffle_job(ctx)
        events = ctx.tracer.events()
        retries = [e for e in events if e.kind == KIND_TASK_RETRY]
        faults = [e for e in events if e.kind == KIND_FAULT]
        assert ctx.runtime.tasks_retried == 2
        assert len(retries) == 2
        assert len(faults) == 2
        assert [e.args["task"] for e in retries] == [1, 1]
        assert [e.args["next_attempt"] for e in retries] == [2, 3]
        assert all(
            e.args["error"] == "InjectedFault" for e in faults
        )

    def test_retried_attempts_emit_task_spans_per_attempt(self):
        ctx = traced_ctx()
        ctx.fault_injector.kill_task(task_index=0, stage=0)
        shuffle_job(ctx)
        attempts = [
            e.args["attempt"]
            for e in ctx.tracer.events()
            if e.kind == KIND_TASK and e.args["task"] == 0
            and e.args["dispatch"] == 0
        ]
        assert sorted(attempts) == [1, 2]

    def test_straggler_event_names_offending_partition(self):
        import time

        def slow_tail(items, index):
            if index == 2:
                time.sleep(0.05)
            return list(items)

        ctx = traced_ctx(straggler_min_task_seconds=0.01)
        bag = ctx.bag_of(range(16), num_partitions=4)
        bag.map_partitions(slow_tail).collect()
        stragglers = [
            e for e in ctx.tracer.events()
            if e.kind == KIND_STRAGGLER
        ]
        assert len(stragglers) == 1
        assert stragglers[0].args["partition"] == 2
        assert stragglers[0].args["seconds"] >= 0.05

    def test_a_straggler_names_the_batch_it_was_judged_in(self):
        import time

        def slow_on(target):
            def step(x):
                if x == target:
                    time.sleep(0.05)
                return x
            return step

        # Partitions 0-5 hold a batch's budget each and are timed
        # alone; the three 2-record partitions behind them are one
        # batch, which holds the slow record: its clock pair is spread
        # over that batch's partitions, which are all flagged.
        ctx = traced_ctx(straggler_min_task_seconds=0.01)
        parts = [list(range(VECTOR))] * 6 + [
            [VECTOR + i, VECTOR + i + 1] for i in (0, 2, 4)
        ]
        task = FusedPipelineTask([(STEP_MAP, slow_on(VECTOR + 3), "m")])
        ctx.runtime.run_stage(task, parts)
        stragglers = [
            e for e in ctx.tracer.events() if e.kind == KIND_STRAGGLER
        ]
        assert sorted(e.args["partition"] for e in stragglers) == [6, 7, 8]
        for event in stragglers:
            assert (event.args["task"], event.args["last"]) == (6, 8)
            assert event.args["batch_seconds"] >= 0.05
            assert event.args["seconds"] < event.args["batch_seconds"]


class TestOverheadStructure:
    def test_event_count_independent_of_record_count(self):
        """The granularity contract: events scale with batches and
        stages, never with records.  (Partitions of a batch's budget or
        more are a batch each, however many records they hold.)"""
        counts = {}
        for n in (4 * VECTOR, 24 * VECTOR):
            ctx = EngineContext(
                laptop_config(), trace=Tracer(MemorySink())
            )
            (
                ctx.bag_of(range(n), num_partitions=4)
                .map(lambda x: (x % 4, x))
                .reduce_by_key(lambda a, b: a + b)
                .collect()
            )
            counts[n] = len(ctx.tracer.events())
        assert counts[4 * VECTOR] == counts[24 * VECTOR]

    def test_task_span_cap_bounds_events_per_stage(self):
        # The cap counts batches: here every partition is one.
        tracer = Tracer(MemorySink(), max_task_spans=4)
        ctx = EngineContext(laptop_config(), trace=tracer)
        ctx.bag_of(range(16 * VECTOR), num_partitions=16).map(
            lambda x: x
        ).collect()
        tasks = [
            e for e in ctx.tracer.events() if e.kind == KIND_TASK
        ]
        assert len(tasks) == 4
        assert sorted(e.args["task"] for e in tasks) == [0, 1, 2, 3]
        # The stage span still accounts for every task.
        (stage,) = [
            e for e in ctx.tracer.events() if e.kind == KIND_STAGE
        ]
        assert stage.args["tasks"] == 16

    def test_a_task_span_is_one_batch(self):
        ctx = traced_ctx()
        ctx.bag_of(range(64), num_partitions=16).map(lambda x: x).collect()
        (task,) = [e for e in ctx.tracer.events() if e.kind == KIND_TASK]
        assert task.name.endswith("#0")
        assert (task.args["task"], task.args["last"]) == (0, 15)
        assert task.args["tasks"] == 16
        (task_set,) = [
            e for e in ctx.tracer.events() if e.kind == KIND_TASK_SET
        ]
        assert (task_set.args["tasks"], task_set.args["batches"]) == (16, 1)

    def test_untraced_context_emits_nothing(self):
        ctx = EngineContext(laptop_config())
        shuffle_job(ctx)
        assert not ctx.tracer.enabled
        assert ctx.tracer.events() == []
