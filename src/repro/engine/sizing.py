"""In-memory size estimation for Python objects.

This mirrors Spark's ``SizeEstimator``, which Matryoshka uses in the
half-lifted ``mapWithClosure`` optimization (paper Sec. 8.3) to decide which
side of a cross product to broadcast, and which the serve daemon's artifact
cache bills artifacts by.  The estimate does not need to be exact; it needs
to rank two datasets by size reliably, and to charge a dataset about what
it holds.
"""

import collections
import itertools
import operator
import sys

# Sampling bound: beyond this many elements we extrapolate from a sample,
# like Spark's SizeEstimator does for large arrays.
_SAMPLE_LIMIT = 100

# Where a long sequence is sampled, as fractions of its length: the
# golden-ratio (Kronecker) sequence, whose first N terms split [0, 1)
# into gaps of at most three sizes.
_FRACTIONS = [k * (5 ** 0.5 - 1) / 2 % 1.0 for k in range(_SAMPLE_LIMIT)]

# Objects counted once per reference; everything else is a container,
# counted once however often it is reached.
_ATOMS = (str, bytes, bytearray, int, float, bool, complex, type(None))


def estimate_size(obj):
    """Estimate the in-memory footprint of ``obj`` in bytes.

    Containers are sampled: for collections larger than 100 elements, the
    per-element cost is extrapolated from 100 elements spread over the
    whole collection -- not its head: an engine partition list holds its
    live partitions first and the shared empty one after.  A container
    reached twice (the shared empty partition, say) is counted once, an
    atom once per reference.  Cycles are handled by tracking visited
    object ids.
    """
    return _estimate(obj, seen=set())


def estimate_record_size(records):
    """Average per-record size of a sequence of records, in bytes,
    over at most 100 records spread over the sequence.

    Returns 0.0 for an empty sequence.
    """
    if not records:
        return 0.0
    sample = _sample(records)
    total = sum(estimate_size(record) for record in sample)
    return total / len(sample)


def _sample(items):
    """``items`` itself up to the sampling bound, else that many
    elements of it at the positions of a golden-ratio sequence:
    deterministic, spread over the whole sequence, and -- unlike evenly
    spaced positions -- in step with no periodic layout, such as live
    partitions at every 12th slot."""
    n = len(items)
    if n <= _SAMPLE_LIMIT:
        return items
    return [items[int(n * fraction)] for fraction in _FRACTIONS]


def _estimate(obj, seen):
    obj_id = id(obj)
    if obj_id in seen:
        return 0
    base = sys.getsizeof(obj)
    if isinstance(obj, _ATOMS):
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
    if len(items) <= _SAMPLE_LIMIT:
        return sum(_estimate(item, seen) for item in items)
    sample = _sample(items)
    repeats = collections.Counter(map(id, sample))
    shared = {
        id(item): item for item in sample
        if repeats[id(item)] > 1 and not isinstance(item, _ATOMS)
    }
    # A container the sample meets twice is shared -- the engine's one
    # empty partition fills most slots of a partition list.  It costs
    # once, and the rest of the sample stands for the rest of the list:
    # the list with its references dropped, in C.  A rest the sample
    # missed altogether is estimated on its own.
    total = 0
    for item in shared.values():
        total += _estimate(item, seen)
        items = list(itertools.compress(
            items, map(operator.is_not, items, itertools.repeat(item))
        ))
    others = [item for item in sample if id(item) not in shared]
    if not others:
        return total + _estimate_items(items, seen)
    sampled = sum(_estimate(item, seen) for item in others)
    return total + int(sampled * (len(items) / len(others)))
