"""Snapshot-isolated planning: node ids and unit graphs must not
depend on how concurrently gathered jobs interleave.

``plan_units`` reads each node's ``cached`` / ``materialized`` state
from a single snapshot taken at the start of the walk
(:func:`repro.engine.dag.snapshot_plan_state`), so a concurrent job
materializing a shared cached subtree (or the auto-cache pass flipping
``cached``) mid-walk can never produce a hybrid unit graph.
"""

from repro.engine import EngineContext, laptop_config
from repro.engine.dag import snapshot_plan_state
from repro.engine.plan import assign_node_ids


def _double(x):
    return x * 2


def _negate(x):
    return -x


def _even(x):
    return x % 4 == 0


def fresh_ctx(**overrides):
    overrides.setdefault("backend", "serial")
    return EngineContext(laptop_config(**overrides))


def test_snapshot_records_cached_and_materialized(ctx):
    shared = ctx.bag_of(range(10)).map(_double).cache()
    state = snapshot_plan_state(shared.node)
    assert state[id(shared.node)] == (True, None)
    shared.sum()
    cached, materialized = snapshot_plan_state(shared.node)[
        id(shared.node)
    ]
    assert cached
    assert materialized is not None


def test_gathered_jobs_keep_node_ids_stable():
    for _ in range(3):
        ctx = fresh_ctx()
        shared = ctx.bag_of(range(40)).map(_double).cache()
        left = shared.map(_negate)
        right = shared.filter(_even)
        ids_left = assign_node_ids(left.node)
        ids_right = assign_node_ids(right.node)
        results = ctx.gather(
            lambda: left.sum(), lambda: right.count()
        )
        assert results == [sum(-x * 2 for x in range(40)), 20]
        # ids are a pure function of plan shape: execution (and the
        # concurrent materialization of the shared subtree) must not
        # have moved them
        assert assign_node_ids(left.node) == ids_left
        assert assign_node_ids(right.node) == ids_right


def test_gathered_auto_cache_decision_recorded_once():
    for _ in range(3):
        ctx = fresh_ctx(optimize_caching=True)
        shared = ctx.bag_of(range(40)).map(_double)
        left = shared.map(_negate).union(shared.map(_double))
        right = shared.filter(_even).union(shared.map(_negate))
        results = ctx.gather(
            lambda: left.sum(), lambda: right.count()
        )
        assert results == [
            sum(-x * 2 + x * 4 for x in range(40)),
            20 + 40,
        ]
        decisions = [
            d for d in ctx.optimizer_decisions if d.kind == "auto-cache"
        ]
        # both gathered jobs prove the same reused subtree safe; the
        # flip (and its Decision) must land exactly once
        assert len(decisions) == 1
        assert shared.node.cached
