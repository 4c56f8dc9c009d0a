"""In-memory size estimation for Python objects.

This mirrors Spark's ``SizeEstimator``, which Matryoshka uses in the
half-lifted ``mapWithClosure`` optimization (paper Sec. 8.3) to decide which
side of a cross product to broadcast.  The estimate does not need to be
exact; it needs to rank two datasets by size reliably.
"""

import sys

# Sampling bound: beyond this many elements we extrapolate from a sample,
# exactly like Spark's SizeEstimator does for large arrays.
_SAMPLE_LIMIT = 100


def estimate_size(obj):
    """Estimate the in-memory footprint of ``obj`` in bytes.

    Containers are sampled: for collections larger than 100 elements, the
    per-element cost is extrapolated from the first 100 elements.  Cycles
    are handled by tracking visited object ids.
    """
    return _estimate(obj, seen=set())


def estimate_record_size(records):
    """Average per-record size of a sequence of records, in bytes.

    Returns 0.0 for an empty sequence.
    """
    if not records:
        return 0.0
    sample = records[:_SAMPLE_LIMIT]
    total = sum(estimate_size(record) for record in sample)
    return total / len(sample)


def _estimate(obj, seen):
    obj_id = id(obj)
    if obj_id in seen:
        return 0
    base = sys.getsizeof(obj)
    if isinstance(obj, (str, bytes, bytearray, int, float, bool, complex)):
        return base
    if obj is None:
        return base
    seen.add(obj_id)
    if isinstance(obj, dict):
        return base + _estimate_items(
            [item for pair in obj.items() for item in pair], seen
        )
    if isinstance(obj, (list, tuple, set, frozenset)):
        return base + _estimate_items(list(obj), seen)
    if hasattr(obj, "__dict__"):
        return base + _estimate(vars(obj), seen)
    if hasattr(obj, "__slots__"):
        values = [
            getattr(obj, slot)
            for slot in obj.__slots__
            if hasattr(obj, slot)
        ]
        return base + _estimate_items(values, seen)
    return base


def _estimate_items(items, seen):
    if not items:
        return 0
    if len(items) <= _SAMPLE_LIMIT:
        return sum(_estimate(item, seen) for item in items)
    sampled = sum(_estimate(item, seen) for item in items[:_SAMPLE_LIMIT])
    return int(sampled * (len(items) / _SAMPLE_LIMIT))
