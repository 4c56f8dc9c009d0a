"""Hash partitioning with a process-stable hash.

Python's built-in ``hash`` is salted per process for strings, which would
make shuffles non-reproducible across runs.  The engine therefore uses a
CRC32 over a canonical byte rendering of the key.  Keys must have a stable
``repr`` (primitives, strings, and nested tuples of those do).
"""

import heapq
import warnings
import zlib

#: Key types already warned about for falling back to the repr() hash
#: branch (one warning per type per process).  Tests may clear this via
#: :func:`reset_unstable_key_warnings`.
_UNSTABLE_KEY_TYPES_SEEN = set()


def stable_hash(key):
    """A deterministic, process-stable hash of ``key``."""
    # The two key types shuffles mostly see, by exact class, ahead of
    # the ``isinstance`` ladder: the same bytes it would render.
    cls = key.__class__
    if cls is int:
        return zlib.crc32(b"i:%d" % key)
    if cls is str:
        return zlib.crc32(b"s:" + key.encode("utf-8"))
    return zlib.crc32(_canonical_bytes(key))


def reset_unstable_key_warnings():
    """Forget which key types already triggered the repr()-fallback
    warning (so tests can assert the one-time behavior)."""
    _UNSTABLE_KEY_TYPES_SEEN.clear()


def unstable_key_reason(key):
    """Why hashing ``key`` would fall back to ``repr()``, or ``None``.

    Mirrors :func:`_canonical_bytes`: primitives, ``None``, and nested
    tuples/frozensets of those hash canonically; anything else reaches
    the ``r:`` branch, whose ``repr()`` rendering is not guaranteed
    stable across processes (default object reprs embed addresses).
    """
    if isinstance(key, (bytes, str, bool, int, float)) or key is None:
        return None
    if isinstance(key, (tuple, frozenset)):
        for part in key:
            reason = unstable_key_reason(part)
            if reason is not None:
                return reason
        return None
    return (
        "type %s hashes via its repr(), which is not guaranteed "
        "process-stable" % type(key).__name__
    )


def _canonical_bytes(key):
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
    if isinstance(key, (tuple, frozenset)):
        parts = [_canonical_bytes(part) for part in key]
        return b"t:(" + b",".join(parts) + b")"
    key_type = type(key)
    if key_type not in _UNSTABLE_KEY_TYPES_SEEN:
        _UNSTABLE_KEY_TYPES_SEEN.add(key_type)
        warnings.warn(
            "hashing a %s key via repr(): not guaranteed process-stable; "
            "use primitives or tuples of primitives as shuffle keys "
            "(NPL203)" % key_type.__name__,
            RuntimeWarning,
            stacklevel=3,
        )
    return b"r:" + repr(key).encode("utf-8", errors="replace")


def build_balanced_assignment(key_counts, num_partitions):
    """Assign keys to buckets, balancing record counts (LPT).

    Every simulated record stands for a block of real records, so a
    simulated key stands for a large set of real keys: hash collisions
    between *simulated* keys would fabricate skew that the real, much
    finer-grained hashing does not have.  Balancing by key count keeps
    the irreducible part of skew (a single heavy key still lands in one
    bucket) while removing the granularity artifact.

    Returns a ``{key: bucket_index}`` dict.  Deterministic: ties break on
    the stable hash.
    """
    if num_partitions < 1:
        raise ValueError("num_partitions must be >= 1")
    assignment = {}
    ordered = sorted(
        key_counts.items(),
        key=lambda item: (-item[1], stable_hash(item[0])),
    )
    # A heap of (load, bucket_index) gives the least-loaded bucket in
    # O(log P) per key; ties break on the lower bucket index, exactly
    # like the linear scan this replaces (paper-scale shuffles assign
    # hundreds of thousands of keys over ~1200 buckets).
    heap = [(0, index) for index in range(num_partitions)]
    for key, count in ordered:
        load, index = heap[0]
        assignment[key] = index
        heapq.heapreplace(heap, (load + count, index))
    return assignment


class HashPartitioner:
    """Assigns keyed records to ``num_partitions`` buckets."""

    def __init__(self, num_partitions):
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        self.num_partitions = num_partitions

    def partition_for(self, key):
        return stable_hash(key) % self.num_partitions

    def split(self, records):
        """Bucket an iterable of ``(key, value)`` records."""
        buckets = [[] for _ in range(self.num_partitions)]
        for record in records:
            key = record[0]
            buckets[self.partition_for(key)].append(record)
        return buckets

    def __eq__(self, other):
        return (
            isinstance(other, HashPartitioner)
            and other.num_partitions == self.num_partitions
        )

    def __hash__(self):
        return hash(("HashPartitioner", self.num_partitions))
