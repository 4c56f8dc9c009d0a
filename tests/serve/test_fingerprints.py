"""Artifact fingerprinting: cross-job reuse only for provably
deterministic builders whose code and captured values have not changed.

The service keys every artifact with a canonical AST fingerprint of
its builder (:func:`repro.udf.fingerprint_function`) plus the values
the builder captures.  A re-registered program with a different body,
or the same body over other captured values, can never be served the
old program's artifact, and a builder whose determinism is *refuted*
(or whose captured values cannot be compared) gets a fresh fingerprint
per job -- its artifacts are never reused.
"""

import functools
import random

import pytest

from repro.serve import JobService
from repro.serve.artifacts import ArtifactCache


@pytest.fixture
def service():
    svc = JobService(num_slots=1, seed=1)
    svc.add_tenant("alice")
    svc.start()
    yield svc
    svc.shutdown(drain=False, timeout=10)


def _submit(service, program):
    return service.submit("alice", program).result(timeout=30)


class TestServiceFingerprints:
    def test_stable_builder_still_hits(self, service):
        def program(job):
            data = job.dataset(
                "nums", lambda ctx: ctx.bag_of(range(30))
            )
            return data.count()

        assert _submit(service, program) == 30
        assert _submit(service, program) == 30
        stats = service.cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1

    def test_changed_builder_body_rebuilds(self, service):
        def program_v1(job):
            data = job.dataset(
                "nums", lambda ctx: ctx.bag_of(range(10))
            )
            return data.count()

        def program_v2(job):
            data = job.dataset(
                "nums", lambda ctx: ctx.bag_of(range(20))
            )
            return data.count()

        assert _submit(service, program_v1) == 10
        # same artifact key, different builder AST: the stale entry
        # must be evicted and rebuilt, not served
        assert _submit(service, program_v2) == 20
        stats = service.cache.stats()
        assert stats["misses"] == 2
        assert stats["hits"] == 0
        assert stats["evictions"] == 1

    def test_nondeterministic_builder_never_reused(self, service):
        def program(job):
            data = job.dataset(
                "noise",
                lambda ctx: ctx.bag_of(
                    [random.random() for _ in range(10)]
                ),
            )
            return data.count()

        assert _submit(service, program) == 10
        assert _submit(service, program) == 10
        stats = service.cache.stats()
        assert stats["misses"] == 2
        assert stats["hits"] == 0


    def test_builders_over_other_captured_values_never_share(self, service):
        def make_builder(n):
            return lambda ctx: ctx.bag_of(range(n))

        def make_program(n):
            return lambda job: job.dataset("numbers", make_builder(n)).count()

        counts = [_submit(service, make_program(n)) for n in (3, 5)]
        assert counts == [3, 5]
        assert _submit(service, make_program(5)) == 5
        stats = service.cache.stats()
        assert (stats["misses"], stats["hits"]) == (2, 1)

    def test_partial_bindings_are_captured_values(self, service):
        def build(n, ctx):
            return ctx.bag_of(range(n))

        def make_program(n):
            builder = functools.partial(build, n)
            return lambda job: job.dataset("numbers", builder).count()

        counts = [_submit(service, make_program(n)) for n in (4, 6, 6)]
        assert counts == [4, 6, 6]
        stats = service.cache.stats()
        assert (stats["misses"], stats["hits"]) == (2, 1)

    def test_incomparable_captured_value_is_never_reused(self, service):
        class Opaque:
            def __eq__(self, other):
                raise TypeError("no equality")

            __hash__ = object.__hash__

        token = Opaque()

        def program(job):
            data = job.dataset(
                "nums", lambda ctx: ctx.bag_of(range(7)) if token else None
            )
            return data.count()

        assert _submit(service, program) == 7
        assert _submit(service, program) == 7
        stats = service.cache.stats()
        assert (stats["misses"], stats["hits"]) == (2, 0)


class TestCacheFingerprints:
    def test_matching_fingerprint_hits(self):
        cache = ArtifactCache(on_evict=None)
        evicted = []
        cache.on_evict = evicted.append
        value, hit = cache.get_or_build(
            "k", lambda: object(), kind="broadcast-free",
            fingerprint="abc",
        )
        assert not hit
        again, hit = cache.get_or_build(
            "k", lambda: object(), kind="broadcast-free",
            fingerprint="abc",
        )
        assert hit
        assert again is value
        assert not evicted

    def test_mismatch_evicts_and_rebuilds(self):
        evicted = []
        cache = ArtifactCache(on_evict=evicted.append)
        first, _ = cache.get_or_build(
            "k", lambda: "old", kind="x", fingerprint="abc"
        )
        fresh, hit = cache.get_or_build(
            "k", lambda: "new", kind="x", fingerprint="def"
        )
        assert not hit
        assert fresh == "new"
        assert [e.value for e in evicted] == ["old"]
        assert cache.entry("k").fingerprint == "def"

    def test_mismatch_on_pinned_entry_builds_outside_cache(self):
        evicted = []
        cache = ArtifactCache(on_evict=evicted.append)
        cache.get_or_build(
            "k", lambda: "old", kind="x", fingerprint="abc", pin=True
        )
        fresh, hit = cache.get_or_build(
            "k", lambda: "new", kind="x", fingerprint="def"
        )
        assert not hit
        assert fresh == "new"
        # the running job's pinned value stays untouched
        assert not evicted
        assert cache.entry("k").value == "old"
        # once unpinned, the next mismatch replaces the slot
        cache.unpin("k")
        cache.get_or_build(
            "k", lambda: "new", kind="x", fingerprint="def"
        )
        assert cache.entry("k").value == "new"
        assert [e.value for e in evicted] == ["old"]

    def test_no_fingerprint_preserves_plain_lru_behavior(self):
        cache = ArtifactCache()
        cache.get_or_build("k", lambda: "v", kind="x")
        _, hit = cache.get_or_build("k", lambda: "v2", kind="x")
        assert hit
