"""SizeEstimator behaviour."""

import random
import sys

import pytest

from repro.engine import ClusterConfig
from repro.engine.plan import EMPTY_PARTITION, Parallelize
from repro.engine.sizing import estimate_record_size, estimate_size
from repro.serve import JobService, program


class TestEstimateSize:
    def test_primitives_positive(self):
        for obj in (1, 1.5, "abc", b"abc", True, None):
            assert estimate_size(obj) > 0

    def test_bigger_string_bigger_estimate(self):
        assert estimate_size("x" * 1000) > estimate_size("x")

    def test_container_grows_with_elements(self):
        assert estimate_size(list(range(100))) > estimate_size(
            list(range(10))
        )

    def test_dict_includes_keys_and_values(self):
        assert estimate_size({"key": "value" * 100}) > estimate_size({})

    def test_handles_cycles(self):
        loop = []
        loop.append(loop)
        assert estimate_size(loop) > 0

    def test_sampling_extrapolates_large_lists(self):
        small = estimate_size(["x" * 50] * 100)
        large = estimate_size(["x" * 50] * 10_000)
        assert large > 50 * small

    def test_object_with_dict(self):
        class Record:
            def __init__(self):
                self.payload = "x" * 500

        assert estimate_size(Record()) > 500

    def test_object_with_slots(self):
        class Slotted:
            __slots__ = ("payload",)

            def __init__(self):
                self.payload = "y" * 500

        assert estimate_size(Slotted()) > 500


class TestEstimateRecordSize:
    def test_empty_sequence(self):
        assert estimate_record_size([]) == 0.0

    def test_average_of_sample(self):
        records = [(i, "x") for i in range(10)]
        per_record = estimate_record_size(records)
        assert per_record == estimate_size(records[0])


# ---------------------------------------------------------------------------
# The bill of an engine partition list
# ---------------------------------------------------------------------------


def _exact_size(obj, seen=None):
    """The reference the estimate is held to: every element walked (no
    sampling), each container counted once, an atom once per
    reference."""
    if seen is None:
        seen = set()
    if id(obj) in seen:
        return 0
    size = sys.getsizeof(obj)
    if obj is None or isinstance(
        obj, (str, bytes, bytearray, int, float, bool, complex)
    ):
        return size
    seen.add(id(obj))
    if isinstance(obj, dict):
        items = [*obj, *obj.values()]
    elif isinstance(obj, (list, tuple, set, frozenset)):
        items = obj
    elif hasattr(obj, "__dict__"):
        items = [vars(obj)]
    else:
        items = []
    return size + sum(_exact_size(item, seen) for item in items)


_SLOTS = 1200


def _records(count):
    """``count`` adjacency records shaped like PageRank's ``links``, all
    alike, so that only where the live partitions sit can move the
    estimate."""
    return [
        ("g:%04d" % vertex,
         ["g:%04d" % ((vertex + step) % count) for step in (1, 2, 3)])
        for vertex in range(count)
    ]


def _partitions(live_slots, records):
    """A 1,200-slot partition list with ``records`` dealt round-robin
    over ``live_slots``; every other slot is the shared empty one."""
    partitions = [EMPTY_PARTITION] * _SLOTS
    for rank, slot in enumerate(live_slots):
        partitions[slot] = records[rank::len(live_slots)]
    return partitions


_LIVE = [1, 16, 64, 100, 128, 150, 300, 400, 600, 1000]


class TestPartitionListBill:
    """A partition list is billed about what it holds, wherever its live
    partitions sit: the shared empty partition costs nothing."""

    @pytest.mark.parametrize("live", _LIVE + [_SLOTS])
    def test_live_partitions_at_the_head(self, live):
        # parallelize fills slots 0..n-1, LPT gives keys buckets 0..k-1.
        partitions = _partitions(range(live), _records(4 * live))
        exact = _exact_size(partitions)
        assert estimate_size(partitions) == pytest.approx(exact, rel=0.1)

    @pytest.mark.parametrize("live", _LIVE)
    def test_live_partitions_spread_evenly(self, live):
        # Every 12th slot (100 live) is in step with evenly spaced
        # sample positions.
        slots = [k * _SLOTS // live for k in range(live)]
        partitions = _partitions(slots, _records(4 * live))
        exact = _exact_size(partitions)
        assert estimate_size(partitions) == pytest.approx(exact, rel=0.1)

    @pytest.mark.parametrize("live", _LIVE)
    def test_live_partitions_at_random(self, live):
        # Where a hash-placed layout puts them.
        slots = sorted(random.Random(live).sample(range(_SLOTS), live))
        partitions = _partitions(slots, _records(4 * live))
        exact = _exact_size(partitions)
        assert estimate_size(partitions) == pytest.approx(exact, rel=0.1)

    def test_parallelize_builds_what_is_billed(self):
        partitions = Parallelize(list(range(128)), _SLOTS).build_partitions()
        exact = _exact_size(partitions)
        assert estimate_size(partitions) == pytest.approx(exact, rel=0.1)

    def test_served_pagerank_links_charge(self):
        key = "pagerank:4:512:7"
        with JobService(config=ClusterConfig(), num_slots=1) as service:
            service.add_tenant("t")
            service.submit(
                "t", program("pagerank", num_groups=4, total_edges=512,
                             iterations=1, seed=7)
            ).result(60)
            entry = service.cache.entry(key + "/links")
            exact = _exact_size(entry.value.node.materialized)
            assert entry.bytes == pytest.approx(exact, rel=0.1)
