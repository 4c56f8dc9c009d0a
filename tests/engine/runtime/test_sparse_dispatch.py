"""Sparse dispatch: empty partitions are filled in, not launched.

A flattened program at laptop scale leaves most of its partitions
empty.  Task classes declare what an all-empty input yields
(``empty_result()``), and ``TaskScheduler.run_stage`` fills those
partitions in -- all with the one value the set is asked for, and
``0.0`` measured seconds -- while dispatching only the rest under
their original task indices.  Every per-partition list
in the trace stays dense, so record counts, trace signatures and
simulated seconds cannot tell the difference.
"""

import operator

import pytest

from repro.engine import (
    EngineContext,
    TaskScheduler,
    Weighted,
    laptop_config,
    trace_signature,
)
from repro.engine.codegen import plan_compiled_task
from repro.engine.metrics import ExecutionTrace
from repro.engine.runtime import backends, serde
from repro.engine.runtime import scheduler as scheduler_module
from repro.engine.runtime.task import (
    STEP_FILTER,
    STEP_MAP,
    BroadcastJoinProbeTask,
    CoGroupBucketTask,
    CombineTask,
    CompiledPipelineTask,
    CrossBroadcastTask,
    FusedPipelineTask,
    GroupBucketTask,
    MapPartitionsTask,
)
from repro.errors import TaskFailedError, UdfError, WorkerLostError

PARTITIONS = 64


def serial_ctx(**overrides):
    overrides.setdefault("backend", "serial")
    return EngineContext(laptop_config(**overrides))


class CountingTask:
    """Adds one to every record; remembers the partitions it was given
    and how often it was asked for its empty result."""

    operator = "Counting[test]"

    def __init__(self):
        self.calls = []
        self.empty_results = 0

    def empty_result(self):
        self.empty_results += 1
        return []

    def __call__(self, part):
        self.calls.append(part)
        return [x + 1 for x in part]


def double(x):
    return x * 2


def positive(x):
    return x > 0


def compiled_task():
    task, reason = plan_compiled_task(
        [(STEP_MAP, double, "m"), (STEP_FILTER, positive, "f")]
    )
    assert isinstance(task, CompiledPipelineTask), reason
    return task


def sparse_parts():
    parts = [[] for _ in range(PARTITIONS)]
    parts[0], parts[7], parts[40] = [1], [2, 3], [4]
    return parts


BACKENDS = [
    pytest.param({"backend": "serial"}, id="serial"),
    pytest.param({"backend": "process", "num_workers": 2}, id="process"),
]

#: Key of the records a ``map_partitions`` UDF below emits by itself.
TAG = -1


def append_tag(items, index):
    items.append((TAG, index))
    return items


def sort_then_tag(items, index):
    items.sort()
    return items + [(TAG, index)]


def append_tag_if_empty(items, index):
    # Appending to a *non-empty* engine list was and stays the caller's
    # error: over a cached parent it would edit the cache.
    if not items:
        items.append((TAG, index))
    return items


def to_pair(x):
    return (x, x)


def fused(ctx):
    """``(bag, its records)``: 3 records over 64 partitions, the 61
    empties filled in by a fused set."""
    pairs = ctx.range_bag(3, num_partitions=PARTITIONS).map(to_pair)
    return pairs, [(0, 0), (1, 1), (2, 2)]


def reduced(ctx):
    """The empties are a reduce-side ``CombineTask`` set's."""
    pairs, records = fused(ctx)
    return (
        pairs.reduce_by_key(operator.add, num_partitions=PARTITIONS),
        records,
    )


def grouped(ctx):
    pairs, _records = fused(ctx)
    return (
        pairs.group_by_key(num_partitions=PARTITIONS),
        [(0, [0]), (1, [1]), (2, [2])],
    )


def cached(ctx):
    """Read by two jobs: what the first leaves in it, the second sees."""
    pairs, records = fused(ctx)
    return pairs.cache(), records


class TestEmptyPartitionsAreNotLaunched:
    def test_task_runs_only_on_non_empty_partitions(self):
        scheduler = TaskScheduler(laptop_config(backend="serial"))
        stage = ExecutionTrace().new_job("collect").new_stage("input")
        task = CountingTask()
        values = scheduler.run_stage(
            task, [(part,) for part in sparse_parts()], stage=stage
        )
        assert task.calls == [[1], [2, 3], [4]]
        assert scheduler.tasks_launched == 3
        expected = [[] for _ in range(PARTITIONS)]
        expected[0], expected[7], expected[40] = [2], [3, 4], [5]
        assert values == expected
        # The set's empties are one object -- ``empty_result()`` is
        # asked once per set, partitions being read-only -- and each
        # dispatched task's value is its own.
        live = (0, 7, 40)
        assert task.empty_results == 1
        assert len({
            id(value) for index, value in enumerate(values)
            if index not in live
        }) == 1
        assert len({id(value) for value in values}) == 1 + len(live)
        assert len(stage.task_seconds) == PARTITIONS
        assert [i for i, s in enumerate(stage.task_seconds) if s] == [
            0, 7, 40,
        ]

    def test_trace_lists_stay_dense(self):
        ctx = serial_ctx()
        calls = []

        def seen(x):
            calls.append(x)
            return x

        bag = ctx.range_bag(3, num_partitions=PARTITIONS).map(seen)
        assert sorted(bag.collect()) == [0, 1, 2]
        assert sorted(calls) == [0, 1, 2]
        assert ctx.runtime.tasks_launched == 3
        (stage,) = ctx.trace.jobs[-1].stages
        assert stage.num_tasks == PARTITIONS
        assert stage.task_records == [2, 2, 2] + [0] * (PARTITIONS - 3)
        assert len(stage.task_seconds) == PARTITIONS
        assert all(s == 0.0 for s in stage.task_seconds[3:])
        assert ctx.trace.num_tasks == PARTITIONS

    def test_map_partitions_still_sees_every_partition(self):
        # Its UDF gets the partition index and may emit from an empty
        # partition, so MapPartitionsTask declares no empty result.
        assert not hasattr(MapPartitionsTask, "empty_result")
        ctx = serial_ctx()
        indices = (
            ctx.range_bag(3, num_partitions=PARTITIONS)
            .map_partitions(lambda items, index: [index])
            .collect()
        )
        assert sorted(indices) == list(range(PARTITIONS))
        assert ctx.runtime.tasks_launched == PARTITIONS

    @pytest.mark.parametrize("overrides", BACKENDS)
    @pytest.mark.parametrize(
        "upstream, udf",
        [
            (fused, append_tag), (fused, sort_then_tag),
            (reduced, append_tag), (reduced, sort_then_tag),
            (grouped, append_tag), (grouped, sort_then_tag),
            (cached, append_tag_if_empty), (cached, sort_then_tag),
        ],
        ids=lambda value: value.__name__,
    )
    def test_map_partitions_udf_gets_an_empty_list_of_its_own(
        self, upstream, udf, overrides
    ):
        # A task set's empties are one list (see the test above), and
        # that is why the executor hands the UDF another: the UDF is
        # the one consumer that may write to its input.  Handed the
        # shared list, ``append_tag`` would see it grow from task to
        # task (within a pickled chunk on the process backend) and emit
        # the first tag 61 times; ``sort_then_tag`` pins that what
        # arrives is a real list with every mutator.
        with EngineContext(laptop_config(**overrides)) as ctx:
            bag, records = upstream(ctx)
            out = bag.map_partitions(udf).collect()
            tags = sorted(index for key, index in out if key == TAG)
            assert sorted(r for r in out if r[0] != TAG) == records
            tagged = PARTITIONS - (
                len(records) if udf is append_tag_if_empty else 0
            )
            # Every (empty) partition emits its own index exactly once.
            assert len(tags) == len(set(tags)) == tagged
            if upstream is cached:
                # A second job reads the cached parent: still its 3
                # records, not 3 + 61 copies of a tag left in the
                # shared empty.
                assert sorted(bag.collect()) == records

    @pytest.mark.parametrize(
        "task, empties",
        [
            (FusedPipelineTask([(STEP_MAP, abs, "m"),
                                (STEP_FILTER, bool, "f")]), ([],)),
            (compiled_task(), ([],)),
            (CombineTask(operator.add, "r"), ([],)),
            (GroupBucketTask(1.0, 1.0, 10, "g"), ([],)),
            (CoGroupBucketTask(1.0, 1.0, 10, "c"), ([], [])),
            (BroadcastJoinProbeTask({1: [2]}, "j"), ([],)),
            (CrossBroadcastTask([1, 2], "right", "x"), ([],)),
        ],
        ids=lambda value: type(value).__name__,
    )
    def test_empty_result_is_what_the_task_returns(self, task, empties):
        assert task.empty_result() == task(*empties)


class TestEmptyResultIsAskedOncePerTaskSet:
    @pytest.mark.parametrize(
        "trace, overrides",
        [
            (None, {"backend": "serial"}),
            ("memory", {"backend": "serial"}),
            (None, {"backend": "process", "num_workers": 2}),
        ],
        ids=["serial-fast", "serial-traced", "process"],
    )
    def test_one_call_per_set(self, trace, overrides):
        expected = [[] for _ in range(PARTITIONS)]
        expected[0], expected[7], expected[40] = [2], [3, 4], [5]
        task = CountingTask()
        with EngineContext(laptop_config(**overrides), trace=trace) as ctx:
            for sets in (1, 2, 3):
                values = ctx.runtime.run_stage(
                    task, [(part,) for part in sparse_parts()]
                )
                assert task.empty_results == sets
                assert values == expected
                assert len({id(value) for value in values}) == 1 + 3
            assert ctx.runtime.tasks_launched == 3 * 3

    def test_not_asked_while_a_fault_plan_is_pending(self):
        ctx = serial_ctx()
        ctx.fault_injector.kill_task(task_index=40, stage=0)
        task = CountingTask()
        args_list = [(part,) for part in sparse_parts()]
        values = ctx.runtime.run_stage(task, args_list)
        # Everything was dispatched, the fault at an empty partition
        # fired, and every value is what its own call returned.
        assert task.empty_results == 0
        assert ctx.fault_injector.injected == 1
        assert ctx.runtime.tasks_launched == PARTITIONS + 1
        assert len({id(value) for value in values}) == PARTITIONS
        # The plan is spent: the next set is sparse again.
        ctx.runtime.run_stage(task, args_list)
        assert task.empty_results == 1
        assert ctx.runtime.tasks_launched == PARTITIONS + 1 + 3


class TestFaultsAddressEmptyPartitions:
    def test_fault_at_an_empty_partition_still_fires(self):
        def job(ctx):
            bag = ctx.range_bag(3, num_partitions=PARTITIONS)
            return sorted(bag.map(lambda x: x * 2).collect())

        clean = serial_ctx()
        expected = job(clean)

        faulty = serial_ctx()
        faulty.fault_injector.kill_task(task_index=40, stage=0)
        assert job(faulty) == expected
        assert faulty.fault_injector.injected == 1
        # A pending injector dispatches the whole set, as the parent
        # did: 64 first attempts and the retry.
        assert faulty.runtime.tasks_launched == PARTITIONS + 1
        assert faulty.runtime.tasks_failed == 1
        assert faulty.runtime.tasks_retried == 1
        (stage,) = faulty.trace.jobs[-1].stages
        assert stage.task_retries == 1
        assert stage.failed_attempt_seconds > 0
        assert len(stage.task_seconds) == PARTITIONS
        # The retried (empty) task ran, so it has measured seconds.
        assert stage.task_seconds[40] > 0
        assert trace_signature(faulty.trace) == trace_signature(
            clean.trace
        )

    def test_sparse_again_once_the_fault_is_spent(self):
        ctx = serial_ctx()
        ctx.fault_injector.kill_task(task_index=40, stage=0)
        bag = ctx.range_bag(3, num_partitions=PARTITIONS).map(abs)
        bag.collect()
        launched = ctx.runtime.tasks_launched
        bag.collect()
        assert ctx.runtime.tasks_launched == launched + 3


def keyed_program(ctx):
    """Wide and narrow operators over mostly empty partitions."""
    pairs = ctx.range_bag(5, num_partitions=32).map(
        lambda x: (x % 3, x)
    )
    summed = pairs.reduce_by_key(operator.add, num_partitions=16)
    grouped = pairs.group_by_key(num_partitions=16).map_values(sorted)
    return (
        sorted(summed.join(grouped, num_partitions=16).collect()),
        sorted(pairs.join(summed, strategy="broadcast").collect()),
        sorted(pairs.keys().cross(summed.keys()).collect()),
    )


class TestNothingDependsOnHowTheSetRan:
    def run(self, trace=None, **overrides):
        ctx = EngineContext(laptop_config(**overrides), trace=trace)
        try:
            result = keyed_program(ctx)
            return (
                result, trace_signature(ctx.trace),
                ctx.simulated_seconds(), ctx.runtime.tasks_launched,
            )
        finally:
            ctx.close()

    def test_backends_and_tracing_agree(self):
        reference = self.run(backend="serial")
        assert self.run(backend="process", num_workers=2) == reference
        assert self.run(trace=True, backend="serial") == reference
        assert (
            self.run(trace=True, backend="process", num_workers=2)
            == reference
        )

    def test_most_of_the_program_was_not_launched(self):
        ctx = serial_ctx()
        keyed_program(ctx)
        assert ctx.runtime.tasks_launched < ctx.trace.num_tasks / 2


class TestWeightedWorkMidChain:
    def test_work_is_truncated_per_step_not_over_the_sum(self):
        # Two steps each report one unit of work per record at a
        # slowdown of 1.5: int(1.5) + int(1.5) = 2 a record, where
        # truncating the sum would credit int(3.0) = 3.
        ctx = serial_ctx(sequential_work_factor=1.5)
        bag = (
            ctx.bag_of([10, 20], num_partitions=4)
            .map(lambda x: Weighted(x + 1, 1))
            .filter(lambda x: Weighted(True, 1))
            .map(lambda x: x)
        )
        assert sorted(bag.collect()) == [11, 21]
        (stage,) = ctx.trace.jobs[-1].stages
        # input record + three step counts + two truncated works
        assert stage.task_records == [6, 6, 0, 0]


class TestBatches:
    """Live partitions run in batches; everything else stays per
    partition."""

    def test_one_clock_pair_per_batch_apportioned_by_records(
        self, monkeypatch
    ):
        # A clock that advances one second per read: each batch's pair
        # is exactly 1.0, spread over its partitions by records + 1.
        ticks = iter(range(10 ** 6))
        monkeypatch.setattr(
            scheduler_module.time, "perf_counter", lambda: next(ticks)
        )
        scheduler = TaskScheduler(laptop_config(backend="serial"))
        stage = ExecutionTrace().new_job("collect").new_stage("input")
        parts = [[] for _ in range(PARTITIONS)]
        parts[1], parts[2], parts[5] = [1], [2, 3, 4], [5] * 200
        task = FusedPipelineTask([(STEP_MAP, abs, "m")])
        values = scheduler.run_stage(task, parts, stage=stage)
        assert [value[0] for value in values] == [
            list(map(abs, part)) for part in parts
        ]
        seconds = stage.task_seconds
        # Partitions 1 and 2 are one batch (2 + 4 shares of 1.0); 5
        # holds a budget's worth of records alone and is timed alone.
        assert seconds[1] == pytest.approx(2 / 6)
        assert seconds[2] == pytest.approx(4 / 6)
        assert seconds[5] == 1.0
        assert sum(seconds) == pytest.approx(2.0)
        assert [i for i, s in enumerate(seconds) if s] == [1, 2, 5]
        assert scheduler.tasks_launched == 3

    def test_a_non_retryable_error_raises_in_place(self):
        def picky(x):
            if x == 2:
                raise ValueError("no twos")
            return x

        calls = []

        def seen(x):
            calls.append(x)
            return x

        ctx = serial_ctx()
        bag = ctx.range_bag(8, num_partitions=PARTITIONS).map(seen).map(
            picky
        )
        with pytest.raises(UdfError) as err:
            bag.collect()
        assert isinstance(err.value.original, ValueError)
        # One batch, run once: no partition was re-run to find the
        # culprit.
        assert sorted(calls) == list(range(8))

    @pytest.fixture
    def lose_first_payload(self, monkeypatch):
        """The first dispatch loses its first payload, as a pool a
        worker died in would; returns the task count of every batch
        shipped, per dispatch."""
        shipped = []
        run_payloads = backends._run_payloads

        def losing(num_workers, payloads):
            shipped.append([
                len(batch.indices)
                for payload in payloads
                for batch in serde.loads(payload)
            ])
            results = run_payloads(num_workers, payloads)
            if len(shipped) == 1:
                results[0] = None
            return results

        monkeypatch.setattr(backends, "_run_payloads", losing)
        return shipped

    def test_a_lost_batch_is_retried_partition_by_partition(
        self, lose_first_payload
    ):
        with EngineContext(
            laptop_config(backend="process", num_workers=2)
        ) as ctx:
            bag = ctx.range_bag(1024, num_partitions=PARTITIONS)
            assert sorted(bag.map(abs).collect()) == list(range(1024))
            first, retry = lose_first_payload
            # 16-record partitions: batches of 8, one to a payload; the
            # lost payload's 8 partitions come back as batches of one
            # at attempt 2.
            assert first == [8] * 8
            assert retry == [1] * 8
            runtime = ctx.runtime
            assert (runtime.tasks_failed, runtime.tasks_retried) == (8, 8)
            assert runtime.tasks_launched == PARTITIONS + 8
            (stage,) = ctx.trace.jobs[-1].stages
            assert stage.task_retries == 8
            assert stage.failed_attempt_seconds == 0.0  # lost, not timed
            assert all(seconds > 0 for seconds in stage.task_seconds)

    def test_a_lost_batch_out_of_attempts_names_its_first_partition(
        self, lose_first_payload
    ):
        with EngineContext(laptop_config(
            backend="process", num_workers=2, max_task_attempts=1
        )) as ctx:
            bag = ctx.range_bag(1024, num_partitions=PARTITIONS)
            with pytest.raises(TaskFailedError) as err:
                bag.map(abs).collect()
        assert err.value.task_index == 0
        assert isinstance(err.value.last_error, WorkerLostError)
