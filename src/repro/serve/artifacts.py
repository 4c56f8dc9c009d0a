"""The cross-job artifact cache: bounded memory, LRU, pinnable.

Iterative service workloads (PageRank sweeps, hyperparameter searches)
re-read the same inputs job after job; keeping those materialized
across jobs is where a long-running engine wins over one-shot
execution (the same reuse Labyrinth exploits for loop-invariant data
and Flare's resident runtime amortizes).  The :class:`ArtifactCache`
holds two artifact kinds:

* **bags** -- a cached :class:`~repro.engine.bag.Bag` whose
  materialized partitions live on the context.  The cache is charged
  the partitions' estimated in-memory size
  (:func:`repro.engine.sizing.estimate_size`) after each job; eviction
  calls :meth:`Bag.uncache`, which releases the partitions together
  with the shuffle layout they were built with, so a later plan
  rebuilds both from lineage.
* **broadcasts** -- a :class:`~repro.engine.broadcast.Broadcast`
  payload, charged its estimated size on insert.

Entries are keyed by name.  Eviction is strict LRU over *unpinned*
entries: worker slots pin every artifact a job resolves for the job's
duration, so memory pressure can never evict partitions out from under
a running job.  If every entry is pinned the cache may transiently
exceed its budget; it re-evicts at the next unpin.
"""

import threading

from ..engine.sizing import estimate_size

__all__ = ["ArtifactCache", "CacheEntry"]

KIND_BAG = "bag"
KIND_BROADCAST = "broadcast"


class CacheEntry:
    """One cached artifact and its bookkeeping."""

    __slots__ = ("key", "kind", "value", "bytes", "pins", "hits",
                 "fingerprint", "measured")

    def __init__(self, key, kind, value, fingerprint=None):
        self.key = key
        self.kind = kind
        self.value = value
        self.bytes = 0
        self.pins = 0
        self.hits = 0
        # Canonical program fingerprint (see
        # :func:`repro.udf.fingerprint_function`): reuse
        # under the same key is only offered when the caller's
        # fingerprint matches, so an artifact name cannot serve stale
        # data after its builder's code changed.
        self.fingerprint = fingerprint
        # ``(object, bytes)``: the last object :meth:`ArtifactCache.charge`
        # measured for this entry and its estimate.  Partitions and
        # payloads are read-only values, so while the artifact is still
        # that object the estimate stands.
        self.measured = None

    def __repr__(self):
        return (
            "CacheEntry(%r, kind=%s, bytes=%d, pins=%d, hits=%d)"
            % (self.key, self.kind, self.bytes, self.pins, self.hits)
        )


class ArtifactCache:
    """Memory-bounded LRU cache of cross-job artifacts.

    Args:
        limit_bytes: Total estimated-byte budget.  0 disables retention
            entirely (every unpinned entry is evicted on rebalance) --
            the service's "cold" mode.
        on_evict: Callback invoked with each evicted
            :class:`CacheEntry` *outside* any job, *inside* the cache
            lock.  The service uses it to ``uncache()`` bag artifacts.
    """

    def __init__(self, limit_bytes=256 * 1024 * 1024, on_evict=None):
        if limit_bytes < 0:
            raise ValueError("limit_bytes must be >= 0")
        self.limit_bytes = limit_bytes
        self.on_evict = on_evict
        self._entries = {}
        # LRU order: most recent at the end.  Maintained by hand (a
        # plain list of keys) so tests can assert the exact order.
        self._lru = []
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.bytes_evicted = 0

    # -- core ----------------------------------------------------------

    def get_or_build(self, key, factory, kind=KIND_BAG, pin=False,
                     fingerprint=None):
        """Look up ``key``, building it via ``factory()`` on a miss.

        Returns ``(value, hit)``.  With ``pin=True`` the entry is
        pinned before the lock is released, so a concurrent rebalance
        can never evict it between lookup and use.

        ``fingerprint`` (optional) is the canonical identity of the
        program that produces this artifact (see
        :func:`repro.udf.fingerprint_function`).  A hit
        is only served when it matches the stored entry's fingerprint;
        a mismatch means the builder's code or captured values changed
        (or reuse is not provably safe, in which case the service hands
        in a fresh fingerprint per job), so the stale entry is evicted and
        the artifact rebuilt.  If the stale entry is still pinned by a
        running job it stays untouched and the fresh value is built
        *outside* the cache; a later call replaces the slot once the
        entry is unpinned.
        """
        with self._lock:
            entry = self._entries.get(key)
            if (
                entry is not None
                and fingerprint is not None
                and entry.fingerprint != fingerprint
            ):
                if entry.pins == 0:
                    self._evict_locked(key)
                    entry = None
                else:
                    self.misses += 1
                    return factory(), False
            hit = entry is not None
            if hit:
                entry.hits += 1
                self.hits += 1
                self._touch(key)
            else:
                self.misses += 1
                value = factory()
                entry = CacheEntry(key, kind, value,
                                   fingerprint=fingerprint)
                if kind == KIND_BROADCAST:
                    entry.bytes = self._estimate(entry)
                self._entries[key] = entry
                self._lru.append(key)
                self._rebalance()
            if pin:
                entry.pins += 1
            return entry.value, hit

    def pin(self, key):
        """Protect ``key`` from eviction until :meth:`unpin`."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                entry.pins += 1
            return entry is not None

    def unpin(self, key):
        """Release one pin; rebalances once the entry is unpinned."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return
            entry.pins = max(0, entry.pins - 1)
            if entry.pins == 0:
                self._rebalance()

    def charge(self, key, nbytes=None):
        """(Re)measure an entry's footprint and rebalance.

        Called by the service after each job: a bag artifact's
        partitions exist only once a job materialized them, so its
        cost is unknown at build time.  ``nbytes=None`` estimates from
        the artifact itself (materialized partitions for bags, the
        payload for broadcasts), once per object: an artifact that is
        still the object last measured keeps its estimate, and a bag
        materialized anew is measured again.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return 0
            if nbytes is None:
                nbytes = self._estimate(entry)
            entry.bytes = int(nbytes)
            self._rebalance()
            return entry.bytes

    def _estimate(self, entry):
        if entry.kind == KIND_BROADCAST:
            target = entry.value.value
        else:
            target = entry.value.node.materialized
            if target is None:
                entry.measured = None
                return 0
        if entry.measured is None or entry.measured[0] is not target:
            entry.measured = (target, estimate_size(target))
        return entry.measured[1]

    # -- eviction ------------------------------------------------------

    def _touch(self, key):
        self._lru.remove(key)
        self._lru.append(key)

    def _rebalance(self):
        """Evict LRU-first until within budget (pinned entries skip)."""
        while self.total_bytes > self.limit_bytes:
            victim = None
            for key in self._lru:
                if self._entries[key].pins == 0:
                    victim = key
                    break
            if victim is None:
                return  # everything pinned; retry at next unpin
            self._evict_locked(victim)

    def _evict_locked(self, key):
        entry = self._entries.pop(key)
        self._lru.remove(key)
        self.evictions += 1
        self.bytes_evicted += entry.bytes
        if self.on_evict is not None:
            self.on_evict(entry)

    def evict(self, key):
        """Explicitly evict one entry (even a zero-cost one)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.pins > 0:
                return False
            self._evict_locked(key)
            return True

    def clear(self):
        """Evict every unpinned entry."""
        with self._lock:
            for key in list(self._lru):
                if self._entries[key].pins == 0:
                    self._evict_locked(key)

    # -- introspection -------------------------------------------------

    @property
    def total_bytes(self):
        return sum(e.bytes for e in self._entries.values())

    def __len__(self):
        return len(self._entries)

    def __contains__(self, key):
        with self._lock:
            return key in self._entries

    def keys(self):
        """Entry keys in LRU order (least recent first)."""
        with self._lock:
            return list(self._lru)

    def entry(self, key):
        with self._lock:
            return self._entries.get(key)

    def stats(self):
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self.total_bytes,
                "limit_bytes": self.limit_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "bytes_evicted": self.bytes_evicted,
            }
