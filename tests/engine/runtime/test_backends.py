"""The execution backends: serial, process pool, and their contract."""

import os
import pathlib
import signal
import subprocess
import sys
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
import repro
from repro.engine.runtime.task import (
    CallTask,
    Invocation,
    MapPartitionsTask,
)
from repro.errors import SerializationError


def _double_partition(part, _index):
    return [x * 2 for x in part]


class GeneratorResultTask:
    """A task whose *result* cannot be serialized back to the driver."""

    operator = "Gen[test]"

    def __call__(self, part):
        return (x for x in part)


def invocations_for(task, parts, with_index=False):
    """One batch of one per partition: ``MapPartitionsTask``'s input
    is ``(part, index)``, a plain callable's its argument tuple (run
    through ``CallTask``, as the scheduler runs it)."""
    if not hasattr(task, "run"):
        task = CallTask(task)
    return [
        Invocation(task, [(part, i) if with_index else (part,)], [i])
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
        assert [o.indices for o in outcomes] == [[0], [1], [2], [3]]
        assert all(o.ok for o in outcomes)
        assert [o.values[0] for o in outcomes] == [
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
        assert [o.values[0] for o in outcomes] == [
            ([2, 4], 0), ([6], 0), ([], 0), ([8, 10, 12], 0)
        ]

    def test_a_batch_runs_in_one_invocation(self):
        backend = ProcessPoolBackend(num_workers=2)
        task = MapPartitionsTask(_double_partition, "Map[x2]")
        (outcome,) = backend.run_invocations([
            Invocation(task, [(part, i) for i, part in enumerate(PARTS)],
                       [0, 1, 2, 3])
        ])
        assert outcome.ok and outcome.indices == [0, 1, 2, 3]
        assert outcome.values == [
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
        assert [o.indices for o in outcomes] == [[i] for i in range(18)]
        assert [o.ok for o in outcomes] == [i != 3 for i in range(18)]
        assert isinstance(outcomes[3].error, SerializationError)
        assert outcomes[4].values == [[4]]

    def test_rejects_negative_worker_count(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(num_workers=-1)

    def test_zero_means_all_cores(self):
        backend = ProcessPoolBackend(num_workers=0)
        assert backend.num_workers == (os.cpu_count() or 1)


class TestChunkedShipping:
    WORKERS = 2
    TASKS = 2000

    @pytest.fixture
    def submissions(self, monkeypatch):
        """Per dispatch, the task count of each payload shipped."""
        submissions = []
        run_payloads = backends._run_payloads

        def recording(num_workers, payloads):
            submissions.append([
                sum(len(batch.indices) for batch in serde.loads(payload))
                for payload in payloads
            ])
            return run_payloads(num_workers, payloads)

        monkeypatch.setattr(backends, "_run_payloads", recording)
        return submissions

    def ctx(self):
        return EngineContext(
            laptop_config(backend="process", num_workers=self.WORKERS)
        )

    def job(self, ctx):
        bag = ctx.range_bag(self.TASKS, num_partitions=self.TASKS)
        return bag.map(lambda x: x + 1).collect()

    def test_a_large_set_crosses_the_pool_in_a_few_payloads(self, submissions):
        # One-record partitions: batches of VECTOR tasks, a few batches
        # to a payload.
        ctx = self.ctx()
        assert sorted(self.job(ctx)) == list(range(1, self.TASKS + 1))
        (sizes,) = submissions
        assert sum(sizes) == self.TASKS
        assert len(sizes) <= 8 * self.WORKERS
        assert len(sizes) == backends.CHUNKS_PER_WORKER * self.WORKERS
        assert ctx.runtime.tasks_launched == self.TASKS
        (stage,) = ctx.trace.jobs[-1].stages
        assert len(stage.task_seconds) == self.TASKS
        assert all(seconds > 0 for seconds in stage.task_seconds)

    def test_a_failure_inside_a_chunk_is_retried_alone(self, submissions):
        ctx = self.ctx()
        ctx.fault_injector.kill_task(task_index=1234, stage=0)
        assert sorted(self.job(ctx)) == list(range(1, self.TASKS + 1))
        first, retry = submissions
        assert sum(first) == self.TASKS
        assert retry == [1]
        assert ctx.runtime.tasks_launched == self.TASKS + 1
        assert ctx.runtime.tasks_retried == 1
        (stage,) = ctx.trace.jobs[-1].stages
        assert stage.task_retries == 1
        assert stage.failed_attempt_seconds > 0

    def test_small_sets_still_ship_one_task_per_payload(self, submissions):
        backend = ProcessPoolBackend(num_workers=self.WORKERS)
        task = MapPartitionsTask(_double_partition, "Map[x2]")
        backend.run_invocations(
            invocations_for(task, PARTS, with_index=True)
        )
        assert submissions == [[1, 1, 1, 1]]


#: Run in a child interpreter: a regression here hangs instead of
#: failing, and the child's timeout turns the hang into a failure.  The
#: child leads its own session, so a timeout also ends the pool workers
#: it forked.
WORKER_DEATH = """
import os, sys
from repro.engine import EngineContext, laptop_config
from repro.errors import TaskFailedError, WorkerLostError

def dies_once(marker):
    def udf(x):
        if x == 17 and not os.path.exists(marker):
            open(marker, "w").close()
            os._exit(1)
        return x + 1
    return udf

def always_dies(x):
    if x == 17:
        os._exit(1)
    return x + 1

expected = list(range(1, 65))
with EngineContext(laptop_config(backend="process", num_workers=2)) as ctx:
    # A lost task is retried on a fresh pool and the job completes.
    job = ctx.bag_of(range(64)).map(dies_once(sys.argv[1] + ".1"))
    assert sorted(job.collect()) == expected
    assert ctx.runtime.tasks_retried >= 1
    # Two jobs gathered over the shared pool: the innocent one's tasks
    # in flight are lost with it too, and both finish on its successor.
    jobs = [ctx.bag_of(range(64)).map(dies_once(sys.argv[1] + ".2")),
            ctx.bag_of(range(64)).map(lambda x: x + 1)]
    results = ctx.gather(*(lambda bag=bag: sorted(bag.collect())
                           for bag in jobs))
    assert results == [expected, expected]
    # A task that kills every worker it meets spends its budget.
    try:
        ctx.bag_of(range(64)).map(always_dies).collect()
    except TaskFailedError as error:
        assert isinstance(error.last_error, WorkerLostError), error
        assert error.attempts == ctx.config.max_task_attempts
    else:
        raise AssertionError("the job outlived its workers")
    # The context's next job is unaffected.
    assert sorted(ctx.bag_of(range(8)).map(abs).collect()) == list(range(8))
print("ok")
"""


def test_a_dead_worker_fails_its_tasks_not_the_context(tmp_path):
    env = dict(
        os.environ,
        PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1]),
    )
    child = subprocess.Popen(
        [sys.executable, "-c", WORKER_DEATH, str(tmp_path / "died")],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = child.communicate(timeout=60)
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
    assert child.returncode == 0, err
    assert out.split() == ["ok"]


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
