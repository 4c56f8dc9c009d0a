"""Result lifetime: a job holds only the partitions it still reads.

``Executor._eval`` drops a unit's result once the last unit that reads
it (``EvalUnit.reads``) has run.  These tests watch the ``results`` dict
at every unit boundary, follow records through weak references, and
check that sharing, self-reads and explicit caching are unaffected.
"""

import operator
import weakref

import pytest

from repro.engine import EngineContext, laptop_config
from repro.engine import dag
from repro.engine.executor import Executor


class Rec:
    """A record the test can reference weakly (picklable, so it crosses
    the process backend)."""

    __slots__ = ("v", "__weakref__")

    def __init__(self, v):
        self.v = v

    def __reduce__(self):
        return Rec, (self.v,)


def to_rec(x):
    return x % 4, Rec(x)


def rec_sum(kv):
    return kv[0], sum(r.v for r in kv[1])


def _watch(monkeypatch):
    """Record, per job, its units and per unit the ids held in
    ``results`` when it starts."""
    jobs = []
    plan_units = dag.plan_units
    run_unit = Executor._run_unit

    def planned(root):
        units = plan_units(root)
        jobs.append({"units": units, "held": []})
        return units

    def spy(self, unit, job, results, *rest):
        jobs[-1]["held"].append(set(results))
        return run_unit(self, unit, job, results, *rest)

    monkeypatch.setattr(dag, "plan_units", planned)
    monkeypatch.setattr(Executor, "_run_unit", spy)
    return jobs


def _still_read(units, index):
    """Ids of results produced before unit ``index`` that it or a later
    unit reads: all ``results`` may hold when unit ``index`` starts."""
    produced = {id(unit.node) for unit in units[:index]}
    return {
        key for unit in units[index:] for key in unit.reads
    } & produced


def _unit_of(units, node):
    (index,) = [i for i, unit in enumerate(units) if unit.node is node]
    return index


def test_results_hold_only_what_later_units_read(ctx, monkeypatch):
    jobs = _watch(monkeypatch)
    pairs = ctx.bag_of(range(40), num_partitions=4).map(to_rec)
    sums = pairs.group_by_key().map(rec_sum).reduce_by_key(operator.add)
    assert sorted(sums.map(lambda kv: kv).collect()) == [
        (k, sum(range(k, 40, 4))) for k in range(4)
    ]
    (job,) = jobs
    units = job["units"]
    assert len(units) >= 4
    for index, held in enumerate(job["held"]):
        assert held == _still_read(units, index)


def test_consumed_records_are_gone_when_a_later_unit_starts(
    ctx, monkeypatch
):
    pairs = ctx.bag_of(range(40), num_partitions=4).map(to_rec)
    grouped = pairs.group_by_key()
    sums = grouped.map(rec_sum).reduce_by_key(operator.add)
    last = sums.map(lambda kv: kv)
    refs = []
    run_unit = Executor._run_unit

    def spy(self, unit, job, results, *rest):
        if unit.node is last.node:
            # Every unit that read a record has run: none is alive.
            assert refs and all(ref() is None for ref in refs)
        result = run_unit(self, unit, job, results, *rest)
        if unit.node is pairs.node:
            refs.extend(weakref.ref(rec) for part in result.partitions
                        for _k, rec in part)
        elif unit.node is grouped.node:
            refs.extend(weakref.ref(rec) for part in result.partitions
                        for _k, recs in part for rec in recs)
        return result

    monkeypatch.setattr(Executor, "_run_unit", spy)
    assert len(last.collect()) == 4
    assert len(refs) == 80


def test_consumed_records_are_gone_when_a_later_udf_runs():
    # The UDF runs in this process only on the serial backend.
    ctx = EngineContext(laptop_config(backend="serial"))
    refs = []

    def keep(x):
        rec = Rec(x)
        refs.append(weakref.ref(rec))
        return x % 4, rec

    def check(kv):
        assert all(ref() is None for ref in refs)
        return kv

    sums = (
        ctx.bag_of(range(40), num_partitions=4).map(keep).group_by_key()
        .map(rec_sum).reduce_by_key(operator.add).map(check)
    )
    assert sorted(sums.collect()) == [
        (k, sum(range(k, 40, 4))) for k in range(4)
    ]
    assert len(refs) == 40
    ctx.close()


@pytest.mark.parametrize("shape", ["union", "join"])
def test_a_node_read_twice_by_one_unit(ctx, monkeypatch, shape):
    jobs = _watch(monkeypatch)
    x = ctx.bag_of(range(12), num_partitions=3).map(lambda v: (v % 3, v))
    xs = [(v % 3, v) for v in range(12)]
    if shape == "union":
        both, want = x.union(x).map(lambda kv: kv), xs * 2
    else:
        both = x.join(x)
        want = [(k, (a, b)) for k, a in xs for j, b in xs if j == k]
    assert sorted(both.collect()) == sorted(want)
    (job,) = jobs
    units = job["units"]
    reader = [u for u in units if u.reads.count(id(x.node)) == 2]
    assert len(reader) == 1
    index = units.index(reader[0])
    assert id(x.node) in job["held"][index]
    assert index + 1 < len(units)
    assert all(id(x.node) not in held for held in job["held"][index + 1:])


def test_a_node_with_two_reader_units_outlives_the_first(
    ctx, monkeypatch
):
    jobs = _watch(monkeypatch)
    x = ctx.bag_of(range(12), num_partitions=3).map(lambda v: v * 10)
    a = x.map(lambda v: v + 1)
    b = x.map(lambda v: v + 2)
    assert sorted(a.union(b).collect()) == sorted(
        [v * 10 + 1 for v in range(12)] + [v * 10 + 2 for v in range(12)]
    )
    (job,) = jobs
    units, held = job["units"], job["held"]
    first, second = _unit_of(units, a.node), _unit_of(units, b.node)
    first, second = min(first, second), max(first, second)
    assert id(x.node) in held[first]
    assert id(x.node) in held[second]
    assert id(x.node) not in held[second + 1]


def test_an_explicit_cache_is_read_back_by_a_second_job(ctx, monkeypatch):
    jobs = _watch(monkeypatch)
    cached = ctx.bag_of(range(20), num_partitions=4).map(
        lambda v: v * 2
    ).cache()
    assert cached.map(lambda v: v + 1).count() == 20
    assert sorted(cached.map(lambda v: v + 1).collect()) == [
        v * 2 + 1 for v in range(20)
    ]
    assert cached.node.materialized is not None
    second = ctx.trace.jobs[-1]
    assert [stage.kind for stage in second.stages][0] == "cached"
    assert jobs[-1]["units"][0].cached
    assert jobs[-1]["units"][0].reads == ()
