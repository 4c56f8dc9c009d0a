"""``plan_auto_caches``: which reused subtrees a ``cache()`` could be
inserted on safely -- only those *proven* pure and deterministic.

The engine never inserts one; the pass survives for the wall-clock
probes that time it.  A reused subtree is recomputed once per consumer
unless the program calls ``cache()`` itself.
"""

import random

import pytest

from repro.engine import EngineContext, dag, laptop_config
from repro.engine.optimize import plan_auto_caches
from tests.programs import PROGRAMS, library_programs


def _double(x):
    return x * 2


def _negate(x):
    return -x


def _noisy(x):
    return x + random.random()


def _keyed(x):
    return (x % 3, x)


def reuse_job(ctx, fn=_double):
    feats = ctx.bag_of(range(20)).map(fn)
    return feats.map(_double).union(feats.map(_negate)), feats


def stage_kinds(ctx):
    return [[stage.kind for stage in job.stages] for job in ctx.trace.jobs]


class TestPlanAutoCaches:
    def test_proven_reused_subtree_is_chosen(self, ctx):
        feats = ctx.bag_of(range(20)).map(_double)
        merged = feats.map(_double).union(feats.map(_negate))
        chosen = plan_auto_caches(merged.node)
        assert id(feats.node) in chosen

    def test_unproven_subtree_is_not_chosen(self, ctx):
        feats = ctx.bag_of(range(20)).map(_noisy)
        merged = feats.map(_double).union(feats.map(_negate))
        assert plan_auto_caches(merged.node) == {}

    def test_already_cached_subtree_is_not_rechosen(self, ctx):
        feats = ctx.bag_of(range(20)).map(_double).cache()
        merged = feats.map(_double).union(feats.map(_negate))
        assert plan_auto_caches(merged.node) == {}

    def test_single_consumer_is_not_chosen(self, ctx):
        feats = ctx.bag_of(range(20)).map(_double)
        assert plan_auto_caches(feats.map(_negate).node) == {}

    def test_cogroup_self_join_counts_two_consumers(self, ctx):
        keyed = ctx.bag_of(range(20)).map(_keyed)
        chosen = plan_auto_caches(keyed.cogroup(keyed).node)
        assert list(chosen) == [id(keyed.node)]

    def test_driver_data_is_not_chosen(self, ctx):
        base = ctx.bag_of(range(20))
        merged = base.map(_double).union(base.map(_negate))
        assert plan_auto_caches(merged.node) == {}

    def test_choosing_leaves_the_plan_untouched(self, ctx):
        merged, feats = reuse_job(ctx)
        assert plan_auto_caches(merged.node) == {id(feats.node): feats.node}
        assert not feats.node.cached
        assert merged.sum() == sum(x * 2 for x in range(20))
        assert not feats.node.cached
        assert feats.node.materialized is None


class TestTheEngineNeverCaches:
    def test_a_proven_reused_subtree_is_recomputed(self):
        with EngineContext(laptop_config(), trace=True) as ctx:
            merged, feats = reuse_job(ctx)
            assert merged.sum() == sum(x * 2 for x in range(20))
            assert merged.count() == 40
            assert stage_kinds(ctx) == [["input", "union"]] * 2
            assert not feats.node.cached
            assert not [
                d for d in ctx.optimizer_decisions if "cache" in d.kind
            ]

    def test_an_explicit_cache_is_read_by_a_second_job(self):
        with EngineContext(laptop_config(), trace=True) as ctx:
            merged, feats = reuse_job(ctx)
            feats.cache()
            assert merged.sum() == sum(x * 2 for x in range(20))
            assert merged.count() == 40
            assert stage_kinds(ctx) == [
                ["input", "union"], ["cached", "union"],
            ]
            assert feats.node.materialized is not None

    def test_results_identical_with_and_without_an_explicit_cache(self):
        with EngineContext(laptop_config()) as plain:
            expected = reuse_job(plain)[0].collect()
        with EngineContext(laptop_config()) as cached:
            merged, feats = reuse_job(cached)
            feats.cache()
            assert sorted(merged.collect()) == sorted(expected)


#: Registry programs where the pass finds reuse, and how many distinct
#: subtrees it would cache across all of the program's jobs.
_REUSE = {"pagerank-nested": 30, "kmeans-nested-grouped": 27}


@pytest.mark.parametrize("name, program", library_programs(), ids=PROGRAMS)
def test_registry_reuse_is_found_and_left_alone(monkeypatch, name, program):
    planned = dag.plan_units
    chosen = {}

    def planning(root):
        chosen.update(plan_auto_caches(root))
        return planned(root)

    monkeypatch.setattr(dag, "plan_units", planning)
    with EngineContext(laptop_config()) as ctx:
        program(ctx)
        decisions = {decision.kind for decision in ctx.optimizer_decisions}
    assert len(chosen) == _REUSE.get(name, 0)
    assert not any(node.cached for node in chosen.values())
    assert decisions <= {"shuffle-elision", "compiled-pipeline"}
