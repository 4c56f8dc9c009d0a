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
    # The key classes shuffles mostly see, by exact class, ahead of
    # the ``isinstance`` ladder: the same bytes it renders (a subclass,
    # ``bool`` included, takes the ladder).
    cls = key.__class__
    if cls is int:
        return zlib.crc32(b"i:%d" % key)
    if cls is str:
        return zlib.crc32(b"s:" + key.encode("utf-8"))
    if cls is tuple:
        return zlib.crc32(_tuple_bytes(key))
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


def _tuple_bytes(key):
    """:func:`_canonical_bytes` of a tuple: its ``int``, ``str`` and
    ``tuple`` parts by exact class, the rest through the ladder."""
    parts = []
    for part in key:
        cls = part.__class__
        if cls is int:
            parts.append(b"i:%d" % part)
        elif cls is str:
            parts.append(b"s:" + part.encode("utf-8"))
        elif cls is tuple:
            parts.append(_tuple_bytes(part))
        else:
            parts.append(_canonical_bytes(part))
    return b"t:(" + b",".join(parts) + b")"


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
    ordered = sorted(
        key_counts.items(),
        key=lambda item: (-item[1], stable_hash(item[0])),
    )
    # LPT over a heap of (load, bucket_index) takes the least-loaded
    # bucket, ties on the lower index.  Every load starts at 0, so while
    # counts are >= 1 the first keys take buckets 0, 1, ... in order --
    # assigned here without the heap, which a paper-default shuffle of a
    # few keys over 1200 buckets would build for nothing.  Counts sort
    # descending, so the head ends at the first count below 1 (or at
    # the bucket count).
    head = min(num_partitions, len(ordered))
    while head and ordered[head - 1][1] < 1:
        head -= 1
    assignment = {key: index for index, (key, _count)
                  in enumerate(ordered[:head])}
    if head < len(ordered):
        # The rest go through the heap, in the state the head left it.
        heap = [(count, index) for index, (_key, count)
                in enumerate(ordered[:head])]
        heap += [(0, index) for index in range(head, num_partitions)]
        heapq.heapify(heap)
        for key, count in ordered[head:]:
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
