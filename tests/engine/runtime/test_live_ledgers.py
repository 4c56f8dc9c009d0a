"""A stage's ledgers hold its live tasks alone.

``StageMetrics.task_records`` and ``task_seconds`` are
:class:`~repro.engine.metrics.Ledger` values: the task count ``n``, the
ascending indices of the tasks credited so far and their amounts.
``TaskScheduler._split_empties`` measures only the inputs that may hold
records.  Every reader must see what it saw when each ledger was a
dense per-task list: each test below keeps the dense code it replaced
as the reference.
"""

import operator

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import TaskScheduler, laptop_config
from repro.engine.costmodel import _makespan
from repro.engine.metrics import JobMetrics, Ledger
from repro.engine.plan import EMPTY_PARTITION
from repro.engine.runtime.task import (
    CoGroupBucketTask,
    CombineTask,
    FusedPipelineTask,
    MapPartitionsTask,
)


def _dense_credit(totals, amounts, live, n, zero):
    """The dense credit the ledger replaced: ``totals[live[k]] +=
    amounts[k]``, first growing ``totals`` to ``n`` entries of
    ``zero``."""
    missing = n - len(totals)
    if missing > 0:
        totals.extend([zero] * missing)
    for index, amount in zip(live, amounts):
        totals[index] += amount


amount = st.one_of(
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
)


@st.composite
def credit_sequences(draw):
    """``(n, [(live, amounts), ...])``: a dense first credit or not,
    then live subsets -- disjoint, overlapping or the previous one
    again -- each with int and float amounts."""
    n = draw(st.integers(min_value=1, max_value=60))
    sets = [list(range(n))] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        if sets and draw(st.booleans()):
            sets.append(sets[-1])
        else:
            sets.append(sorted(draw(
                st.sets(st.integers(0, n - 1), max_size=n)
            )))
    return n, [
        (live, draw(st.lists(amount, min_size=len(live),
                             max_size=len(live))))
        for live in sets
    ]


class TestLedgerAgainstTheDenseList:
    @settings(max_examples=300, deadline=None)
    @given(credit_sequences(), st.integers(min_value=1, max_value=16))
    def test_every_reader_sees_the_dense_list(self, sequence, slots):
        n, credits = sequence
        stage = JobMetrics(job_id=0).new_stage("shuffle", n)
        records, seconds = [], []
        for live, amounts in credits:
            stage.credit_task_records(amounts, live)
            stage.credit_task_seconds(amounts, live)
            _dense_credit(records, amounts, live, n, 0)
            _dense_credit(seconds, amounts, live, n, 0.0)
        records += [0] * (n - len(records))
        seconds += [0.0] * (n - len(seconds))
        ledger = stage.task_records
        assert ledger.live == sorted(set(ledger.live))
        assert len(ledger.live) == len(ledger.amounts) <= n
        assert ledger.dense() == records
        assert stage.task_seconds.dense() == seconds
        assert stage.num_tasks == n
        assert stage.total_records == sum(records)
        assert stage.measured_seconds == sum(seconds)
        amounts = ledger.amounts
        assert len(amounts) - amounts.count(0) == (
            len(records) - records.count(0)
        )
        assert max(amounts, default=0) == max(records)
        # Bit for bit: a zero never reached the slots.
        assert repr(_makespan(amounts, slots)) == repr(
            _makespan(records, slots)
        )

    def test_a_credit_over_the_same_live_adds_element_wise(self):
        ledger = Ledger(1200)
        live = [3, 40, 900]
        ledger.credit([1, 2, 3], live)
        ledger.credit([10, 20, 30], list(live))
        assert (ledger.live, ledger.amounts) == (live, [11, 22, 33])

    def test_any_other_credit_merges(self):
        ledger = Ledger(1200)
        ledger.credit([1, 2], [3, 900])
        ledger.credit([5, 7], [0, 900])
        assert (ledger.live, ledger.amounts) == ([0, 3, 900], [5, 1, 9])
        assert ledger.n == 1200

    def test_the_ledger_never_grows_to_n(self):
        stage = JobMetrics(job_id=0).new_stage("input", 1200)
        stage.credit_task_records([5], [3])
        stage.credit_task_seconds([], [])
        assert (stage.task_records.live, stage.task_seconds.live) == (
            [3], [],
        )
        assert stage.task_records.dense() == [0] * 3 + [5] + [0] * 1196
        assert stage.task_seconds.dense() == [0.0] * 1200

    def test_from_dense_keeps_the_nonzero_entries(self):
        ledger = Ledger.from_dense([0, 4, 0, 0, 2.5])
        assert (ledger.n, ledger.live, ledger.amounts) == (
            5, [1, 4], [4, 2.5],
        )
        assert ledger.dense() == [0, 4, 0, 0, 2.5]


def _split_reference(task, parts):
    """The split the live scan replaced: every input measured; the
    sizes of the inputs that hold records."""
    sizes = list(map(task.size, parts))
    live = [index for index, size in enumerate(sizes) if size]
    return (
        [task.empty_result()] * len(parts),
        list(map(sizes.__getitem__, live)),
        live,
    )


def _scheduler():
    return TaskScheduler(laptop_config(backend="serial"))


partition_lists = st.lists(
    st.one_of(st.just(EMPTY_PARTITION), st.lists(
        st.tuples(st.integers(0, 9), st.integers()), min_size=1,
        max_size=5,
    )),
    min_size=1, max_size=80,
)


class TestSplitEmpties:
    @settings(max_examples=100, deadline=None)
    @given(partition_lists)
    def test_equal_to_measuring_every_input(self, parts):
        for task in (
            FusedPipelineTask((), None),
            CombineTask(operator.add, "Combine[test]"),
        ):
            assert task.size is len
            assert _scheduler()._split_empties(task, parts, False) == (
                _split_reference(task, parts)
            )

    @settings(max_examples=100, deadline=None)
    @given(partition_lists, st.data())
    def test_candidates_are_all_that_is_measured(self, parts, data):
        # A producer's ``live`` may name empty inputs too; only the
        # inputs it names are measured.
        holding = [index for index, part in enumerate(parts) if part]
        candidates = sorted(set(holding) | data.draw(
            st.sets(st.integers(0, len(parts) - 1))
        ))
        measured = []

        class Measured(CombineTask):
            __slots__ = ()

            @staticmethod
            def size(part):
                measured.append(part)
                return len(part)

        task = Measured(operator.add, "Combine[test]")
        split = _scheduler()._split_empties(
            task, parts, False, live=candidates
        )
        assert measured == [parts[index] for index in candidates]
        assert split == _split_reference(task, parts)

    def test_a_class_that_measures_its_inputs_is_asked_about_each(self):
        calls = []

        class Measured(CoGroupBucketTask):
            @staticmethod
            def size(pair):
                calls.append(pair)
                return len(pair[0]) + len(pair[1])

        task = Measured(8.0, 1.0, 1 << 30, "CoGroup[test]")
        empty = (EMPTY_PARTITION, EMPTY_PARTITION)
        parts = [empty, ([(1, 2)], EMPTY_PARTITION), empty]
        values, sizes, live = _scheduler()._split_empties(task, parts, False)
        assert calls == parts
        assert (sizes, live) == ([1], [1])
        assert values == [task.empty_result()] * 3

    def test_map_partitions_measures_every_input(self):
        # No empty_result: every task is dispatched, every input sized.
        task = MapPartitionsTask(lambda part, index: part, "MapPart[test]")
        parts = [([], 0), ([1, 2], 1)]
        values, sizes, live = _scheduler()._split_empties(task, parts, False)
        assert (values, sizes, live) == ([None, None], [0, 2], [0, 1])

    def test_a_pending_plan_dispatches_every_input(self):
        task = CombineTask(operator.add, "Combine[test]")
        parts = [EMPTY_PARTITION, [(1, 2)], EMPTY_PARTITION]
        values, sizes, live = _scheduler()._split_empties(
            task, parts, True, sizes=[1], live=[1]
        )
        assert (values, sizes, live) == ([None] * 3, [0, 1, 0], [0, 1, 2])
