"""ArtifactCache: LRU accounting, pinning, and eviction callbacks."""

import pytest

from repro.serve.artifacts import (
    KIND_BAG,
    KIND_BROADCAST,
    ArtifactCache,
)


class _FakeBroadcast:
    """Quacks like repro.engine.broadcast.Broadcast for sizing."""

    __slots__ = ("value", "num_records")

    def __init__(self, value):
        self.value = value
        self.num_records = 1


def _put(cache, key, nbytes, **kwargs):
    cache.get_or_build(
        key, lambda: _FakeBroadcast(None), kind=KIND_BROADCAST,
        **kwargs,
    )
    cache.charge(key, nbytes)


class TestLRU:
    def test_hit_miss_counters(self):
        cache = ArtifactCache(limit_bytes=1000)
        value, hit = cache.get_or_build(
            "a", lambda: _FakeBroadcast(1), kind=KIND_BROADCAST
        )
        assert not hit and value.value == 1
        value, hit = cache.get_or_build(
            "a", lambda: _FakeBroadcast(2), kind=KIND_BROADCAST
        )
        assert hit and value.value == 1  # factory not re-invoked
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_evicts_least_recently_used_first(self):
        evicted = []
        cache = ArtifactCache(
            limit_bytes=250, on_evict=lambda e: evicted.append(e.key)
        )
        _put(cache, "a", 100)
        _put(cache, "b", 100)
        # Touch a so b becomes the LRU victim.
        cache.get_or_build("a", None, kind=KIND_BROADCAST)
        _put(cache, "c", 100)
        assert evicted == ["b"]
        assert cache.keys() == ["a", "c"]

    def test_oversized_entry_evicts_everything_else(self):
        evicted = []
        cache = ArtifactCache(
            limit_bytes=150, on_evict=lambda e: evicted.append(e.key)
        )
        _put(cache, "a", 60)
        _put(cache, "b", 60)
        _put(cache, "big", 140)
        assert evicted == ["a", "b"]
        assert cache.keys() == ["big"]

    def test_zero_limit_is_cold(self):
        evicted = []
        cache = ArtifactCache(
            limit_bytes=0, on_evict=lambda e: evicted.append(e.key)
        )
        _put(cache, "a", 10)
        assert evicted == ["a"]
        assert len(cache) == 0
        # Every lookup is a miss forever.
        _put(cache, "a", 10)
        assert cache.stats()["misses"] == 2
        assert cache.stats()["hits"] == 0

    def test_explicit_evict_and_clear(self):
        cache = ArtifactCache(limit_bytes=1000)
        _put(cache, "a", 10)
        _put(cache, "b", 10)
        assert cache.evict("a") is True
        assert cache.evict("a") is False
        assert "a" not in cache
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["evictions"] == 2


class TestPinning:
    def test_pinned_entry_survives_pressure(self):
        evicted = []
        cache = ArtifactCache(
            limit_bytes=150, on_evict=lambda e: evicted.append(e.key)
        )
        _put(cache, "a", 100, pin=True)
        _put(cache, "b", 100)
        # a is pinned and oldest; b must be the victim even though it
        # is more recently used.
        assert evicted == ["b"]
        assert cache.keys() == ["a"]
        assert cache.total_bytes == 100

    def test_all_pinned_overshoots_then_reclaims_on_unpin(self):
        evicted = []
        cache = ArtifactCache(
            limit_bytes=150, on_evict=lambda e: evicted.append(e.key)
        )
        _put(cache, "a", 100, pin=True)
        _put(cache, "b", 100, pin=True)
        assert evicted == []
        assert cache.total_bytes == 200  # transient overshoot
        cache.unpin("a")
        assert evicted == ["a"]
        assert cache.keys() == ["b"]

    def test_pin_refcounts(self):
        cache = ArtifactCache(limit_bytes=100)
        _put(cache, "a", 90)
        assert cache.pin("a")
        assert cache.pin("a")
        cache.unpin("a")
        assert cache.evict("a") is False  # still pinned once
        cache.unpin("a")
        assert cache.evict("a") is True
        assert not cache.pin("missing")

    def test_get_or_build_pin_is_atomic(self):
        cache = ArtifactCache(limit_bytes=50)
        value, hit = cache.get_or_build(
            "a", lambda: _FakeBroadcast(None), kind=KIND_BROADCAST,
            pin=True,
        )
        # Charging over-limit cannot evict the pinned entry.
        cache.charge("a", 100)
        assert "a" in cache
        cache.unpin("a")
        assert "a" not in cache


class TestCharging:
    def test_charge_estimates_broadcast_payload(self):
        cache = ArtifactCache(limit_bytes=1 << 20)
        cache.get_or_build(
            "a", lambda: _FakeBroadcast(list(range(100))),
            kind=KIND_BROADCAST,
        )
        assert cache.entry("a").bytes > 0

    def test_charge_missing_key_is_noop(self):
        cache = ArtifactCache(limit_bytes=100)
        assert cache.charge("ghost", 10) == 0

    def test_bag_kind_charges_materialized_partitions(self, ctx):
        cache = ArtifactCache(limit_bytes=1 << 20)
        bag, _ = cache.get_or_build(
            "data", lambda: ctx.bag_of(range(500)).cache(),
            kind=KIND_BAG,
        )
        # Not yet materialized: nothing to charge.
        assert cache.charge("data") == 0
        assert bag.count() == 500
        assert cache.charge("data") > 0

    def test_eviction_of_bag_calls_back_with_entry(self, ctx):
        seen = []
        cache = ArtifactCache(
            limit_bytes=0, on_evict=lambda e: seen.append(e)
        )
        bag, _ = cache.get_or_build(
            "data", lambda: ctx.bag_of(range(10)).cache(),
            kind=KIND_BAG, pin=True,
        )
        assert bag.count() == 10
        cache.charge("data")
        cache.unpin("data")
        (entry,) = seen
        assert entry.kind == KIND_BAG
        assert entry.value is bag

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            ArtifactCache(limit_bytes=-1)
