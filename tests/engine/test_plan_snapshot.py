"""Snapshot-isolated planning: node ids and unit graphs must not
depend on how concurrently gathered jobs interleave.

``plan_units`` reads each node's ``cached`` / ``materialized`` state
from a single snapshot taken at the start of the walk
(:func:`repro.engine.dag.snapshot_plan_state`), so a concurrent job
materializing a shared cached subtree mid-walk can never produce a
hybrid unit graph.
"""

import threading

import pytest

from repro.engine import EngineContext, dag, laptop_config
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


def _units_signature(units):
    """A unit graph by shape: each unit's node class, whether it reads
    cached partitions, and the classes of its fused chain."""
    return [
        (type(unit.node).__name__, unit.cached,
         [type(node).__name__ for node in unit.chain or ()])
        for unit in units
    ]


@pytest.mark.parametrize("flip", ["before", "after"])
def test_a_cached_node_materialized_mid_plan_gives_a_serial_outcome(
    monkeypatch, flip
):
    # Job A's planning walk is held at its snapshot while job B, gathered
    # with it, materializes the cached node A reads.  Whether B's flip
    # lands before A's snapshot or after it, A plans exactly as it would
    # have with B run wholly after it or wholly before it, and returns
    # what a serial run returns.
    planned = []
    plan_units = dag.plan_units

    def recording_plan_units(root):
        units = plan_units(root)
        planned.append((threading.get_ident(), _units_signature(units)))
        return units

    monkeypatch.setattr(dag, "plan_units", recording_plan_units)

    def program(ctx):
        shared = ctx.bag_of(range(40), num_partitions=4).map(_double).cache()
        return shared, shared.map(_negate)

    serial = {}
    for first in ("A", "B"):
        ctx = fresh_ctx()
        shared, left = program(ctx)
        if first == "B":
            assert shared.count() == 40
        del planned[:]
        assert left.sum() == sum(-x * 2 for x in range(40))
        (serial[first],) = [units for _thread, units in planned]
    assert serial["A"] != serial["B"]  # the flip is visible to planning

    snapshot = dag.snapshot_plan_state
    paused, resume = threading.Event(), threading.Event()
    walker = []

    def pausing_snapshot(root):
        if threading.get_ident() not in walker or paused.is_set():
            return snapshot(root)
        state = snapshot(root) if flip == "after" else None
        paused.set()
        assert resume.wait(10), "job B never materialized the node"
        return state if state is not None else snapshot(root)

    monkeypatch.setattr(dag, "snapshot_plan_state", pausing_snapshot)
    ctx = fresh_ctx()
    shared, left = program(ctx)

    def job_a():
        walker.append(threading.get_ident())
        return left.sum()

    def job_b():
        assert paused.wait(10), "job A's walk never reached its snapshot"
        try:
            return shared.count()
        finally:
            resume.set()

    del planned[:]
    assert ctx.gather(job_a, job_b) == [sum(-x * 2 for x in range(40)), 40]
    (units,) = [units for thread, units in planned if thread in walker]
    assert units in serial.values()
    assert units == serial["A" if flip == "after" else "B"]
