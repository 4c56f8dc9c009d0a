"""Fused pipeline edge cases, interpreted and compiled.

Every test runs its program with no chain large enough to compile and
with every chain large enough (the compiled path silently falls back
for unprovable UDFs, so both runs are always well-defined).
"""

import sys

import pytest

from repro.engine import EngineContext, codegen, laptop_config

#: ``COMPILE_MIN_RECORD_STEPS`` that selects each chain body.
THRESHOLDS = {"interpreted": sys.maxsize, "compiled": 0}


def _inc(x):
    return x + 1


def _none(_x):
    return False


def _fan(x):
    return [x] * 8


def _wide(x):
    return list(range(x, x + 200))


@pytest.fixture(params=list(THRESHOLDS))
def fused_ctx(request, monkeypatch):
    monkeypatch.setattr(
        codegen, "COMPILE_MIN_RECORD_STEPS", THRESHOLDS[request.param]
    )
    return EngineContext(laptop_config())


class TestEmptyPartitions:
    def test_empty_bag_through_chain(self, fused_ctx):
        out = (
            fused_ctx.bag_of([], num_partitions=3)
            .map(_inc)
            .filter(_none)
            .flat_map(_fan)
            .collect()
        )
        assert out == []

    def test_sparse_partitions(self, fused_ctx):
        # More partitions than records: most partitions are empty.
        out = (
            fused_ctx.bag_of([5, 9], num_partitions=8)
            .map(_inc)
            .flat_map(_fan)
            .collect()
        )
        assert sorted(out) == [6] * 8 + [10] * 8

    def test_empty_partition_task_records(self, fused_ctx):
        fused_ctx.bag_of([], num_partitions=2).map(_inc).count()
        stage = fused_ctx.trace.jobs[-1].stages[0]
        assert stage.task_records.dense() == [0, 0]


class TestFilterEverything:
    def test_all_filtered_returns_empty(self, fused_ctx):
        out = (
            fused_ctx.bag_of(range(100), num_partitions=4)
            .map(_inc)
            .filter(_none)
            .map(_inc)
            .collect()
        )
        assert out == []

    def test_downstream_operator_counts_zero(self, fused_ctx):
        (
            fused_ctx.bag_of(range(40), num_partitions=2)
            .filter(_none)
            .map(_inc)
            .count()
        )
        stage = fused_ctx.trace.jobs[-1].stages[0]
        # Each task: 20 source records + 20 entering the filter + 0
        # entering the downstream map.
        assert stage.task_records.dense() == [40, 40]


class TestFlatMapFanOut:
    def test_large_fan_out(self, fused_ctx):
        # 10 records x 200 each = 2000, crossing the 1k threshold
        # within a single task.
        out = (
            fused_ctx.bag_of(range(0, 100, 10), num_partitions=2)
            .flat_map(_wide)
            .collect()
        )
        assert len(out) == 2000

    def test_fan_out_then_filter_counts(self, fused_ctx):
        (
            fused_ctx.bag_of([0], num_partitions=1)
            .flat_map(_wide)
            .filter(_none)
            .count()
        )
        stage = fused_ctx.trace.jobs[-1].stages[0]
        # One source record + one entering the flat_map + 200 fanned
        # records entering the filter.
        assert stage.task_records.dense()[0] == 1 + 1 + 200


class TestChainOrderStability:
    """Fused chains must evaluate steps in plan order."""

    def test_order_sensitive_steps(self, fused_ctx):
        # filter-then-map differs from map-then-filter; pin that the
        # fused evaluation respects plan order.
        a = (
            fused_ctx.bag_of(range(10))
            .filter(_odd)
            .map(_inc)
            .collect()
        )
        b = (
            fused_ctx.bag_of(range(10))
            .map(_inc)
            .filter(_odd)
            .collect()
        )
        assert sorted(a) == [2, 4, 6, 8, 10]
        assert sorted(b) == [1, 3, 5, 7, 9]


def _odd(x):
    return x % 2 == 1
