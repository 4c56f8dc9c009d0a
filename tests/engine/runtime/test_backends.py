"""The execution backends: serial, process pool, and their contract."""

import os
import types

import pytest

from repro.engine import EngineContext, laptop_config
from repro.engine.runtime import (
    ProcessPoolBackend,
    SerialBackend,
    backends,
    make_backend,
    serde,
)
from repro.engine.runtime.task import Invocation, MapPartitionsTask
from repro.errors import SerializationError


def _double_partition(part, _index):
    return [x * 2 for x in part]


class GeneratorResultTask:
    """A task whose *result* cannot be serialized back to the driver."""

    operator = "Gen[test]"

    def __call__(self, part):
        return (x for x in part)


def invocations_for(task, parts, with_index=False):
    return [
        Invocation(task, (part, i) if with_index else (part,), i)
        for i, part in enumerate(parts)
    ]


PARTS = [[1, 2], [3], [], [4, 5, 6]]


class TestSerialBackend:
    def test_runs_inline_in_order(self):
        backend = SerialBackend()
        task = MapPartitionsTask(_double_partition, "Map[x2]")
        outcomes = backend.run_invocations(
            invocations_for(task, PARTS, with_index=True)
        )
        assert [o.task_index for o in outcomes] == [0, 1, 2, 3]
        assert all(o.ok for o in outcomes)
        assert [o.value for o in outcomes] == [
            ([2, 4], 0), ([6], 0), ([], 0), ([8, 10, 12], 0)
        ]
        assert all(o.worker_pid == os.getpid() for o in outcomes)

    def test_failure_comes_back_as_data(self):
        backend = SerialBackend()

        def boom(_part, _index):
            raise ValueError("broken partition")

        task = MapPartitionsTask(boom, "Map[boom]")
        outcomes = backend.run_invocations(
            invocations_for(task, [[1]], with_index=True)
        )
        (outcome,) = outcomes
        assert not outcome.ok
        assert "broken partition" in str(outcome.error)
        assert "ValueError" in outcome.error_traceback
        assert outcome.seconds >= 0


class TestProcessPoolBackend:
    def test_correct_results_in_task_order(self):
        backend = ProcessPoolBackend(num_workers=2)
        task = MapPartitionsTask(
            lambda part, _i: [x * 2 for x in part], "Map[x2]"
        )
        outcomes = backend.run_invocations(
            invocations_for(task, PARTS, with_index=True)
        )
        assert all(o.ok for o in outcomes)
        assert [o.value for o in outcomes] == [
            ([2, 4], 0), ([6], 0), ([], 0), ([8, 10, 12], 0)
        ]

    def test_tasks_run_in_other_processes(self):
        backend = ProcessPoolBackend(num_workers=2)
        task = MapPartitionsTask(lambda part, _i: list(part), "Map[id]")
        outcomes = backend.run_invocations(
            invocations_for(task, PARTS, with_index=True)
        )
        assert all(o.worker_pid != os.getpid() for o in outcomes)
        assert all(o.worker_pid > 0 for o in outcomes)

    def test_unserializable_closure_is_a_preflight_error(self):
        import threading

        lock = threading.Lock()
        backend = ProcessPoolBackend(num_workers=2)
        task = MapPartitionsTask(
            lambda part, _i: (lock.acquire(), part), "Map[locked]"
        )
        with pytest.raises(SerializationError, match=r"Map\[locked\]"):
            backend.run_invocations(
                invocations_for(task, [[1]], with_index=True)
            )

    def test_unserializable_result_reported_per_task(self):
        backend = ProcessPoolBackend(num_workers=2)
        outcomes = backend.run_invocations(
            invocations_for(GeneratorResultTask(), [[1, 2]])
        )
        (outcome,) = outcomes
        assert not outcome.ok
        assert isinstance(outcome.error, SerializationError)
        assert "Gen[test]" in str(outcome.error)

    def test_unserializable_result_fails_alone_inside_a_chunk(self):
        # 18 tasks over 2 workers ship three to a payload; the one bad
        # result must not take its chunk-mates down with it.
        class GeneratorForThrees(GeneratorResultTask):
            def __call__(self, part):
                return super().__call__(part) if part == [3] else part

        backend = ProcessPoolBackend(num_workers=2)
        outcomes = backend.run_invocations(
            invocations_for(GeneratorForThrees(), [[i] for i in range(18)])
        )
        assert [o.task_index for o in outcomes] == list(range(18))
        assert [o.ok for o in outcomes] == [i != 3 for i in range(18)]
        assert isinstance(outcomes[3].error, SerializationError)
        assert outcomes[4].value == [4]

    def test_rejects_negative_worker_count(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(num_workers=-1)

    def test_zero_means_all_cores(self):
        backend = ProcessPoolBackend(num_workers=0)
        assert backend.num_workers == (os.cpu_count() or 1)


class RecordingPool:
    """Stands in for the shared pool; notes what crosses it."""

    def __init__(self, pool):
        self.pool = pool
        self.submissions = []

    def map(self, fn, payloads, chunksize):
        self.submissions.append(
            [len(serde.loads(payload)) for payload in payloads]
        )
        return self.pool.map(fn, payloads, chunksize=chunksize)


class TestChunkedShipping:
    WORKERS = 2
    TASKS = 2000

    @pytest.fixture
    def pool(self, monkeypatch):
        recording = RecordingPool(backends._shared_pool(self.WORKERS))
        monkeypatch.setattr(
            backends, "_shared_pool", lambda num_workers: recording
        )
        return recording

    def ctx(self):
        return EngineContext(
            laptop_config(backend="process", num_workers=self.WORKERS)
        )

    def job(self, ctx):
        bag = ctx.range_bag(self.TASKS, num_partitions=self.TASKS)
        return bag.map(lambda x: x + 1).collect()

    def test_a_large_set_crosses_the_pool_in_a_few_payloads(self, pool):
        ctx = self.ctx()
        assert sorted(self.job(ctx)) == list(range(1, self.TASKS + 1))
        (sizes,) = pool.submissions
        assert sum(sizes) == self.TASKS
        assert len(sizes) <= 8 * self.WORKERS
        assert len(sizes) == backends.CHUNKS_PER_WORKER * self.WORKERS
        assert ctx.runtime.tasks_launched == self.TASKS
        (stage,) = ctx.trace.jobs[-1].stages
        assert len(stage.task_seconds) == self.TASKS
        assert all(seconds > 0 for seconds in stage.task_seconds)

    def test_a_failure_inside_a_chunk_is_retried_alone(self, pool):
        ctx = self.ctx()
        ctx.fault_injector.kill_task(task_index=1234, stage=0)
        assert sorted(self.job(ctx)) == list(range(1, self.TASKS + 1))
        first, retry = pool.submissions
        assert sum(first) == self.TASKS
        assert retry == [1]
        assert ctx.runtime.tasks_launched == self.TASKS + 1
        assert ctx.runtime.tasks_retried == 1
        (stage,) = ctx.trace.jobs[-1].stages
        assert stage.task_retries == 1
        assert stage.failed_attempt_seconds > 0

    def test_small_sets_still_ship_one_task_per_payload(self, pool):
        backend = ProcessPoolBackend(num_workers=self.WORKERS)
        task = MapPartitionsTask(_double_partition, "Map[x2]")
        backend.run_invocations(
            invocations_for(task, PARTS, with_index=True)
        )
        assert pool.submissions == [[1, 1, 1, 1]]


class TestMakeBackend:
    def test_serial(self):
        backend = make_backend(laptop_config(backend="serial"))
        assert isinstance(backend, SerialBackend)

    def test_process_takes_worker_count(self):
        backend = make_backend(
            laptop_config(backend="process", num_workers=3)
        )
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.num_workers == 3

    def test_unknown_backend_rejected(self):
        bogus = types.SimpleNamespace(backend="threads")
        with pytest.raises(ValueError, match="threads"):
            make_backend(bogus)
