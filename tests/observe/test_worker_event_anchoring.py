"""Worker-event clock re-anchoring onto the driver timeline.

The anchor for a task attempt's span -- and for every worker-side event
the attempt recorded -- is the attempt's **own** ``start_epoch``, not
its task set's dispatch time.  A worker that runs two tasks
back-to-back starts the second long after dispatch; anchoring to the
dispatch window would drag the second task's events backwards and
mis-order the worker lane.  The dispatch window only sanity-checks the
epoch: an anchor outside it by more than the drift tolerance falls
back to clamping.
"""

import time

from repro.engine import EngineContext, TaskScheduler, laptop_config
from repro.engine.runtime.task import TaskOutcome, record_worker_event
from repro.observe import MemorySink, Tracer
from repro.observe.events import KIND_SERDE, KIND_TASK, KIND_TASK_SET


class RecordingSleepTask:
    """Sleeps, then records one worker-side event with a known offset."""

    operator = "Recording[test]"

    def __call__(self, seconds):
        time.sleep(seconds)
        record_worker_event(
            "probe:%g" % seconds, KIND_SERDE, dur=0.0, seconds=seconds
        )
        return seconds


def traced_scheduler(**overrides):
    tracer = Tracer(MemorySink())
    scheduler = TaskScheduler(
        laptop_config(backend="serial", **overrides), tracer=tracer
    )
    return scheduler, tracer


class TestAttemptAnchoring:
    def test_back_to_back_tasks_anchor_to_their_own_start(self):
        # Serial backend: task 1 starts ~0.05s after dispatch because
        # task 0 slept first.  Its span must start then, not at the
        # task set's dispatch time.
        scheduler, tracer = traced_scheduler()
        scheduler.run_stage(RecordingSleepTask(), [(0.05,), (0.0,)])
        events = tracer.events()
        (window,) = [e for e in events if e.kind == KIND_TASK_SET]
        tasks = sorted(
            (e for e in events if e.kind == KIND_TASK),
            key=lambda e: e.args["task"],
        )
        assert len(tasks) == 2
        assert tasks[0].ts - window.ts < 0.02
        assert tasks[1].ts >= tasks[0].end - 0.001
        scheduler.close()

    def test_worker_events_round_trip_inside_their_task_span(self):
        scheduler, tracer = traced_scheduler()
        scheduler.run_stage(RecordingSleepTask(), [(0.03,), (0.03,)])
        events = tracer.events()
        tasks = [e for e in events if e.kind == KIND_TASK]
        probes = [e for e in events if e.kind == KIND_SERDE]
        assert len(probes) == 2
        slack = 1e-3
        for probe in probes:
            owner = [
                t
                for t in tasks
                if t.ts - slack <= probe.ts <= t.end + slack
            ]
            assert owner, "probe %r outside every task span" % probe.name
            # The probe fired after the sleep, so it sits near the end
            # of its task span -- anchored to the attempt, not dispatch.
            assert probe.ts - owner[0].ts >= 0.02

    def test_round_trip_across_process_boundary(self):
        ctx = EngineContext(
            laptop_config(backend="process", num_workers=2), trace=True
        )
        try:
            ctx.bag_of(range(8), num_partitions=2).map(
                lambda x: x + 1
            ).collect()
            events = ctx.tracer.events()
        finally:
            ctx.close()
        tasks = [e for e in events if e.kind == KIND_TASK]
        assert tasks
        worker_events = [
            e for e in events if e.lane.startswith("worker-")
        ]
        assert worker_events
        # Every worker-lane event falls inside its task set's window
        # (shared machine clock, re-anchored): nothing is dragged
        # before dispatch.
        windows = [e for e in events if e.kind == KIND_TASK_SET]
        slack = TaskScheduler.CLOCK_DRIFT_TOLERANCE_S
        earliest = min(w.ts for w in windows)
        latest = max(w.end for w in windows)
        for event in worker_events:
            assert event.ts >= earliest - slack
            assert event.end <= latest + slack


class TestDriftClamp:
    def _emit(self, start_epoch, window):
        tracer = Tracer(MemorySink())
        scheduler = TaskScheduler(
            laptop_config(backend="serial"), tracer=tracer
        )
        outcome = TaskOutcome(
            indices=[0],
            ok=True,
            values=[None],
            seconds=0.1,
            worker_pid=12345,
            attempt=1,
            start_epoch=start_epoch,
            events=[("probe", KIND_SERDE, 0.05, 0.0, {})],
        )
        scheduler._emit_task_events(
            outcome, "Clamp[test]", 0, window[0], window[1]
        )
        return tracer.events()

    def test_sane_epoch_used_verbatim(self):
        events = self._emit(100.25, window=(100.0, 101.0))
        (task,) = [e for e in events if e.kind == KIND_TASK]
        (probe,) = [e for e in events if e.kind == KIND_SERDE]
        assert task.ts == 100.25
        assert abs(probe.ts - 100.30) < 1e-9

    def test_adjusted_clock_clamped_into_window(self):
        # start_epoch far before the dispatch window: the wall clock
        # was adjusted between reads, so the anchor clamps to the
        # window instead of trusting the bogus epoch.
        events = self._emit(42.0, window=(100.0, 101.0))
        (task,) = [e for e in events if e.kind == KIND_TASK]
        assert 100.0 <= task.ts <= 101.0
