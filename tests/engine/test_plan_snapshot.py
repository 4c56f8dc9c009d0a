"""Snapshot-isolated planning: node ids and unit graphs must not
depend on how concurrently gathered jobs interleave.

``plan_units`` reads each node's ``cached`` / ``materialized`` state
from a single snapshot taken at the start of the walk
(:func:`repro.engine.dag.snapshot_plan_state`), so a concurrent job
materializing a shared cached subtree mid-walk can never produce a
hybrid unit graph.
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


def fresh_ctx():
    return EngineContext(laptop_config(backend="serial"))


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


class _Unread:
    """A plan node no walk may touch: any attribute read fails."""

    def __getattr__(self, name):
        raise AssertionError("read %s of a node below a materialized one"
                             % name)


def test_a_job_over_a_materialized_node_reads_nothing_below_it(ctx):
    keyed = ctx.bag_of(range(40)).map(lambda x: (x % 4, x))
    shared = keyed.reduce_by_key(lambda a, b: a + b, 4).cache()
    assert shared.count() == 4
    # Cut the lineage below the cached node: a later job, its snapshot
    # and the shuffle elision its group-by makes still work.
    shared.node.child = _Unread()
    grouped = shared.filter(lambda kv: kv[0] > 0).group_by_key(4)
    assert len(snapshot_plan_state(grouped.node)) == 3
    assert sorted(grouped.map_values(sorted).collect()) == [
        (k, [sum(range(k, 40, 4))]) for k in range(1, 4)
    ]
    assert [
        d.choice for d in ctx.optimizer_decisions
        if d.kind == "shuffle-elision"
    ] == ["elide"]


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


def test_gathered_jobs_leave_an_uncached_shared_subtree_alone():
    for _ in range(3):
        ctx = fresh_ctx()
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
        # both jobs recompute the reused subtree: the engine caches
        # only what the program cache()s
        assert snapshot_plan_state(shared.node)[id(shared.node)] == (
            False, None,
        )


def test_gathered_jobs_materialize_an_explicit_cache():
    for _ in range(3):
        ctx = fresh_ctx()
        shared = ctx.bag_of(range(40)).map(_double).cache()
        left = shared.map(_negate).union(shared.map(_double))
        right = shared.filter(_even).union(shared.map(_negate))
        results = ctx.gather(
            lambda: left.sum(), lambda: right.count()
        )
        assert results == [
            sum(-x * 2 + x * 4 for x in range(40)),
            20 + 40,
        ]
        cached, materialized = snapshot_plan_state(shared.node)[
            id(shared.node)
        ]
        assert cached
        assert sorted(
            value for part in materialized for value in part
        ) == [x * 2 for x in range(40)]
