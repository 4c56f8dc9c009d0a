"""Stable hashing and hash partitioning."""

import heapq
import subprocess
import sys
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.partitioner import (
    HashPartitioner,
    _canonical_bytes,
    build_balanced_assignment,
    stable_hash,
)


class TestStableHash:
    def test_deterministic_within_process(self):
        assert stable_hash("abc") == stable_hash("abc")

    def test_stable_across_processes(self):
        code = (
            "from repro.engine.partitioner import stable_hash; "
            "print(stable_hash(('day1', 42)))"
        )
        runs = {
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()
            for _ in range(2)
        }
        assert len(runs) == 1
        assert runs == {str(stable_hash(("day1", 42)))}

    @pytest.mark.parametrize("key", [
        True, False, 0, 1, -7, 2 ** 70, type("Id", (int,), {})(5),
        "", "day1", "\u00e9t\u00e9", type("Name", (str,), {})("x"),
        1.0, -0.0, float("inf"), None, b"raw",
        (1, "a"), ((1, (2.5, None)), True), frozenset([3]),
        (frozenset(["k"]), (type("Id", (int,), {})(5),)),
    ], ids=repr)
    def test_exact_type_dispatch_renders_the_ladders_bytes(self, key):
        # ``int`` and ``str`` by exact class skip the ``isinstance``
        # ladder; a bool, a subclass or anything nested takes it.  One
        # rendering either way, so one assignment.
        assert stable_hash(key) == zlib.crc32(_canonical_bytes(key))
        if isinstance(key, int) and not isinstance(key, bool):
            assert stable_hash(key) == zlib.crc32(b"i:%d" % key)
        assert stable_hash(True) != stable_hash(1)

    @settings(max_examples=200, deadline=None)
    @given(st.recursive(
        st.one_of(
            st.booleans(), st.integers(), st.floats(allow_nan=False),
            st.none(), st.text(max_size=5), st.binary(max_size=5),
            st.builds(type("Name", (str,), {}), st.text(max_size=3)),
        ),
        lambda parts: st.one_of(
            st.lists(parts, max_size=4).map(tuple),
            st.frozensets(parts, max_size=3),
        ),
        max_leaves=8,
    ))
    def test_tuple_parts_by_exact_class_render_the_ladders_bytes(self, key):
        # The ladder alone, as every key class once took it.
        assert stable_hash(key) == zlib.crc32(_ladder_bytes(key))

    def test_distinct_types_do_not_collide_trivially(self):
        assert stable_hash("1") != stable_hash(1)
        assert stable_hash(1.0) != stable_hash(1)

    def test_handles_nested_tuples(self):
        assert stable_hash((("a", 1), ("b", (2, 3)))) == stable_hash(
            (("a", 1), ("b", (2, 3)))
        )

    def test_handles_none_bool_bytes(self):
        for key in (None, True, False, b"xyz"):
            assert stable_hash(key) == stable_hash(key)


def _ladder_bytes(key):
    """The canonical rendering through ``isinstance`` checks only."""
    if isinstance(key, bytes):
        return b"b:" + key
    if isinstance(key, str):
        return b"s:" + key.encode("utf-8")
    if isinstance(key, bool):
        return b"B:%d" % int(key)
    if isinstance(key, int):
        return b"i:%d" % key
    if isinstance(key, float):
        return b"f:" + repr(key).encode("ascii")
    if key is None:
        return b"n"
    assert isinstance(key, (tuple, frozenset))
    return b"t:(" + b",".join(map(_ladder_bytes, key)) + b")"


class TestHashPartitioner:
    def test_partition_in_range(self):
        partitioner = HashPartitioner(7)
        for key in ("a", 1, (2, "b"), None):
            assert 0 <= partitioner.partition_for(key) < 7

    def test_split_preserves_all_records(self):
        partitioner = HashPartitioner(4)
        records = [(i % 10, i) for i in range(100)]
        buckets = partitioner.split(records)
        assert sum(len(b) for b in buckets) == 100

    def test_same_key_same_bucket(self):
        partitioner = HashPartitioner(4)
        buckets = partitioner.split([("k", 1), ("k", 2), ("k", 3)])
        non_empty = [b for b in buckets if b]
        assert len(non_empty) == 1

    def test_rejects_zero_partitions(self):
        with pytest.raises(ValueError):
            HashPartitioner(0)

    def test_equality(self):
        assert HashPartitioner(4) == HashPartitioner(4)
        assert HashPartitioner(4) != HashPartitioner(5)


class TestBalancedAssignment:
    def test_empty_counts(self):
        assert build_balanced_assignment({}, 4) == {}

    def test_single_partition_takes_everything(self):
        assignment = build_balanced_assignment({"a": 5, "b": 1}, 1)
        assert assignment == {"a": 0, "b": 0}

    def test_more_partitions_than_keys(self):
        assignment = build_balanced_assignment({"a": 3, "b": 2}, 8)
        assert set(assignment) == {"a", "b"}
        assert len(set(assignment.values())) == 2
        assert all(0 <= index < 8 for index in assignment.values())

    def test_rejects_non_positive_partition_count(self):
        with pytest.raises(ValueError):
            build_balanced_assignment({"a": 1}, 0)

    def test_uniform_counts_balance_exactly(self):
        counts = {i: 1 for i in range(100)}
        assignment = build_balanced_assignment(counts, 4)
        loads = [0] * 4
        for key, index in assignment.items():
            loads[index] += counts[key]
        assert loads == [25, 25, 25, 25]

    def test_deterministic(self):
        counts = {"k%d" % i: (i * 7) % 13 + 1 for i in range(50)}
        assert build_balanced_assignment(
            counts, 6
        ) == build_balanced_assignment(counts, 6)

    def test_matches_linear_scan_reference(self):
        # The heap-based LPT must reproduce the original linear scan
        # exactly, tie-breaks included.
        counts = {"k%d" % i: (i * 31) % 17 + 1 for i in range(200)}
        num_partitions = 7
        assignment = {}
        loads = [0] * num_partitions
        ordered = sorted(
            counts.items(),
            key=lambda item: (-item[1], stable_hash(item[0])),
        )
        for key, count in ordered:
            index = loads.index(min(loads))
            assignment[key] = index
            loads[index] += count
        assert build_balanced_assignment(
            counts, num_partitions
        ) == assignment


def heap_lpt(key_counts, num_partitions):
    """The reference: LPT over a heap of every bucket's (load, index)."""
    ordered = sorted(
        key_counts.items(),
        key=lambda item: (-item[1], stable_hash(item[0])),
    )
    heap = [(0, index) for index in range(num_partitions)]
    assignment = {}
    for key, count in ordered:
        load, index = heap[0]
        assignment[key] = index
        heapq.heapreplace(heap, (load + count, index))
    return assignment


class TestAssignmentMatchesTheHeapLoop:
    @settings(max_examples=300, deadline=None)
    @given(
        st.dictionaries(
            st.one_of(st.integers(0, 60), st.text(max_size=2)),
            st.integers(0, 9),
            max_size=40,
        ),
        st.integers(1, 48),
    )
    def test_any_counts(self, counts, num_partitions):
        # Keys fewer than, as many as and more than the buckets, zero
        # counts among them.
        assert build_balanced_assignment(
            counts, num_partitions
        ) == heap_lpt(counts, num_partitions)

    @pytest.mark.parametrize("keys", [3, 8, 9, 30])
    @pytest.mark.parametrize("zeros", [0, 1, 5])
    def test_keys_around_the_bucket_count(self, keys, zeros):
        counts = {"k%d" % i: i % 4 + 1 for i in range(keys)}
        counts.update({"z%d" % i: 0 for i in range(zeros)})
        assert build_balanced_assignment(counts, 8) == heap_lpt(counts, 8)

    def test_few_keys_take_the_first_buckets_in_order(self):
        counts = {"a": 1, "b": 5, "c": 2}
        assignment = build_balanced_assignment(counts, 1200)
        assert assignment == {"b": 0, "c": 1, "a": 2}
