"""Thread safety of the context's shared state under concurrent jobs.

``ctx.gather`` submits work from many threads into one
``EngineContext``; the trace, stage metrics, optimizer-decision
list, and shuffle-assignment registry must absorb concurrent mutation
without losing or double-counting anything.
"""

import copy
import pickle
import sys
import threading

import pytest

from repro.engine import EngineContext, laptop_config
from repro.engine.metrics import ExecutionTrace, JobMetrics


class TestConcurrentJobs:
    def test_gather_records_every_job_exactly_once(self):
        ctx = EngineContext(laptop_config())
        sizes = [10, 20, 30, 40, 50, 60, 70, 80]
        results = ctx.gather(
            *[
                (lambda n=n: ctx.bag_of(range(n)).count())
                for n in sizes
            ]
        )
        assert results == sizes
        assert ctx.trace.num_jobs == len(sizes)
        assert [job.job_id for job in ctx.trace.jobs] == list(
            range(len(sizes))
        )
        assert ctx.trace.total_records == sum(sizes)

    def test_concurrent_shuffles_record_all_decisions(self):
        # Each thunk's second reduce adopts the layout of its first --
        # one elision decision per thunk, appended concurrently.
        ctx = EngineContext(laptop_config())

        def elision_job(offset):
            def run():
                first = (
                    ctx.bag_of(range(offset, offset + 20))
                    .map(lambda x: (x % 4, x))
                    .reduce_by_key(lambda a, b: a + b)
                )
                return sorted(
                    first.reduce_by_key(lambda a, b: a + b).collect()
                )

            return run

        results = ctx.gather(*[elision_job(100 * i) for i in range(4)])
        assert len(results) == 4
        elisions = [
            decision
            for decision in ctx.optimizer_decisions
            if decision.kind == "shuffle-elision"
        ]
        assert len(elisions) == 4

    def test_trace_totals_match_serial_submission(self):
        def program(ctx, concurrent):
            thunks = [
                (
                    lambda n=n: sorted(
                        ctx.bag_of(range(n))
                        .map(lambda x: (x % 3, 1))
                        .reduce_by_key(lambda a, b: a + b)
                        .collect()
                    )
                )
                for n in (12, 24, 36)
            ]
            if concurrent:
                return ctx.gather(*thunks)
            return [thunk() for thunk in thunks]

        serial_ctx = EngineContext(laptop_config())
        concurrent_ctx = EngineContext(laptop_config())
        try:
            expected = program(serial_ctx, concurrent=False)
            actual = program(concurrent_ctx, concurrent=True)
        finally:
            serial_ctx.close()
            concurrent_ctx.close()
        assert actual == expected
        assert (
            concurrent_ctx.trace.total_records
            == serial_ctx.trace.total_records
        )
        assert (
            concurrent_ctx.trace.num_stages
            == serial_ctx.trace.num_stages
        )


class TestLockedStructures:
    def test_stage_metrics_mutators_do_not_drop_updates(self):
        # Eight threads credit task sets over overlapping index ranges
        # of one shared stage.  The ranges have different lengths, so
        # the credits also race on merging into the ledgers.
        workers = 8
        per_worker = 200
        widths = [4 + 3 * worker for worker in range(workers)]
        trace = ExecutionTrace()
        stage = trace.new_job("collect").new_stage("input", max(widths))

        def hammer(worker):
            width = widths[worker]
            live = list(range(width))
            for i in range(per_worker):
                stage.credit_task_records([1] * width, live)
                stage.credit_task_seconds([0.001] * width, live)
                stage.add_task_retries(1)
                stage.add_straggler_tasks(1)
                stage.add_failed_attempt_seconds(0.001)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=hammer, args=(w,))
                for w in range(workers)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        total = workers * per_worker
        # Task i was credited by every worker whose range covers it.
        expected = [
            per_worker * sum(1 for width in widths if width > index)
            for index in range(max(widths))
        ]
        assert stage.task_records.dense() == expected
        assert stage.task_seconds.dense() == pytest.approx(
            [0.001 * count for count in expected]
        )
        assert stage.task_retries == total
        assert stage.straggler_tasks == total
        assert abs(stage.failed_attempt_seconds - total * 0.001) < 1e-6

    def test_stage_locks_are_taken_per_task_set_not_per_task(
        self, monkeypatch
    ):
        # A 1200-partition fused chain + reduce_by_key dispatches three
        # task sets of 1200 tasks.  The driver credits each set as a
        # whole, so the stage locks are taken a handful of times per
        # set; per task it would be several thousand.
        acquisitions = []

        class CountingLock:
            def __init__(self):
                self._lock = threading.Lock()

            def __enter__(self):
                acquisitions.append(1)
                return self._lock.__enter__()

            def __exit__(self, *exc_info):
                return self._lock.__exit__(*exc_info)

        new_stage = JobMetrics.new_stage

        def new_counted_stage(job, *args, **kwargs):
            stage = new_stage(job, *args, **kwargs)
            stage._lock = CountingLock()
            return stage

        monkeypatch.setattr(JobMetrics, "new_stage", new_counted_stage)
        ctx = EngineContext(laptop_config())
        result = (
            ctx.range_bag(3000, num_partitions=1200)
            .map(lambda x: (x % 7, x))
            .filter(lambda kv: kv[1] % 2 == 0)
            .map(lambda kv: (kv[0], 1))
            .reduce_by_key(lambda a, b: a + b, num_partitions=1200)
            .collect()
        )
        ctx.close()
        assert sum(count for _key, count in result) == 1500
        task_sets = ctx.runtime.dispatch_count
        assert task_sets == 3 and ctx.trace.num_tasks == 2400
        assert len(acquisitions) <= 4 * task_sets

    def test_new_job_ids_unique_under_contention(self):
        trace = ExecutionTrace()
        ids = []
        lock = threading.Lock()

        def submit():
            for _ in range(50):
                job = trace.new_job("count")
                with lock:
                    ids.append(job.job_id)

        threads = [threading.Thread(target=submit) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(ids) == list(range(300))

    def test_trace_copies_and_pickles_after_concurrent_runs(self):
        # The locks guarding trace state are dropped on pickling and
        # recreated on load, so snapshots keep working.
        ctx = EngineContext(laptop_config())
        ctx.gather(
            lambda: ctx.bag_of(range(30))
            .map(lambda x: (x % 3, x))
            .reduce_by_key(lambda a, b: a + b)
            .count(),
            lambda: ctx.bag_of(range(10)).count(),
        )
        snapshot = copy.deepcopy(ctx.trace)
        assert snapshot.summary() == ctx.trace.summary()
        restored = pickle.loads(pickle.dumps(ctx.trace))
        assert restored.summary() == ctx.trace.summary()
        # Restored instances accept further (locked) mutation.
        restored.new_job("count")
        assert restored.num_jobs == ctx.trace.num_jobs + 1
