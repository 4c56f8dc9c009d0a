"""A task set's ledgers touch its live tasks alone.

``StageMetrics`` credits a set over the indices of its live tasks, and
``TaskScheduler._split_empties`` measures only the inputs that hold
records.  The dense per-task lists every reader sees must not change:
each test below keeps the dense code it replaced as the reference.
"""

import operator

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import TaskScheduler, laptop_config
from repro.engine.metrics import StageMetrics
from repro.engine.plan import EMPTY_PARTITION
from repro.engine.runtime.task import (
    CoGroupBucketTask,
    CombineTask,
    FusedPipelineTask,
    MapPartitionsTask,
)


def _dense_credit(totals, amounts, zero):
    """The dense credit the live one replaced: ``totals[i] +=
    amounts[i]``, growing ``totals`` with ``zero``."""
    if not totals:
        totals.extend(amounts)
        return
    missing = len(amounts) - len(totals)
    if missing > 0:
        totals.extend([zero] * missing)
    totals[:len(amounts)] = map(operator.add, totals, amounts)


def _scatter(n, live, amounts, zero):
    dense = [zero] * n
    for index, amount in zip(live, amounts):
        dense[index] = amount
    return dense


amount = st.one_of(
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
)


@st.composite
def task_sets(draw, n):
    """``(live, amounts)`` for one set of ``n`` tasks."""
    live = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))
    amounts = draw(st.lists(amount, min_size=len(live), max_size=len(live)))
    return live, amounts


@st.composite
def ledgers(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    first_dense = draw(st.booleans())
    first = draw(st.lists(amount, min_size=n, max_size=n)) if first_dense \
        else None
    sets = draw(st.lists(task_sets(n), min_size=1, max_size=3))
    return n, first, sets


class TestLiveCredits:
    @settings(max_examples=200, deadline=None)
    @given(ledgers())
    def test_equal_to_the_dense_credit_of_the_scattered_list(self, ledger):
        n, first, sets = ledger
        stage = StageMetrics(stage_id=0)
        records, seconds = [], []
        if first is not None:
            # A stage whose first credit was one dense list.
            stage.credit_task_records(first)
            stage.credit_task_seconds(first)
            _dense_credit(records, first, 0)
            _dense_credit(seconds, first, 0.0)
        for live, amounts in sets:
            stage.credit_task_records(amounts, live, n)
            stage.credit_task_seconds(amounts, live, n)
            _dense_credit(records, _scatter(n, live, amounts, 0), 0)
            _dense_credit(seconds, _scatter(n, live, amounts, 0.0), 0.0)
        assert stage.task_records == records
        assert stage.task_seconds == seconds

    def test_a_first_credit_grows_the_stage_to_every_task(self):
        stage = StageMetrics(stage_id=0)
        stage.credit_task_records([5], [3], 1200)
        stage.credit_task_seconds([], [], 1200)
        assert stage.task_records == [0] * 3 + [5] + [0] * 1196
        assert stage.task_seconds == [0.0] * 1200


def _split_reference(task, parts):
    """The split the live scan replaced: every input measured."""
    sizes = list(map(task.size, parts))
    live = [index for index, size in enumerate(sizes) if size]
    return [task.empty_result()] * len(parts), sizes, live


def _scheduler():
    return TaskScheduler(laptop_config(backend="serial"))


class TestSplitEmpties:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(
        st.one_of(st.just(EMPTY_PARTITION), st.lists(
            st.tuples(st.integers(0, 9), st.integers()), min_size=1,
            max_size=5,
        )),
        min_size=1, max_size=80,
    ))
    def test_equal_to_measuring_every_input(self, parts):
        for task in (
            FusedPipelineTask((), None),
            CombineTask(operator.add, "Combine[test]"),
        ):
            assert task.size is len
            assert _scheduler()._split_empties(task, parts, False) == (
                _split_reference(task, parts)
            )

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
        assert (sizes, live) == ([0, 1, 0], [1])
        assert values == [task.empty_result()] * 3

    def test_map_partitions_measures_every_input(self):
        # No empty_result: every task is dispatched, every input sized.
        task = MapPartitionsTask(lambda part, index: part, "MapPart[test]")
        parts = [([], 0), ([1, 2], 1)]
        values, sizes, live = _scheduler()._split_empties(task, parts, False)
        assert (values, sizes, live) == ([None, None], [0, 2], [0, 1])
