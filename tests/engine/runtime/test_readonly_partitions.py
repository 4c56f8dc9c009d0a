"""Tripwire: a partition, once produced, is a read-only value.

``TaskScheduler.run_stage`` fills every undispatched task of a set with
*one* ``empty_result()`` object, so that object -- and every partition
built from it -- is shared by up to a whole stage.  That is sound only
while the executor and the task bodies build new lists from the
partitions they are given and never write through one.  Here every
``empty_result`` returns lists whose mutators raise, and the whole task
library runs on top of them.
"""

import contextlib

import pytest

from repro.analysis.equivalence import library_programs, results_equivalent
from repro.data import grouped_points, initial_centroids, visits_log
from repro.engine import (
    ClusterConfig,
    EngineContext,
    TaskScheduler,
    laptop_config,
)
from repro.engine.runtime import task as task_module
from repro.tasks import bounce_rate, kmeans

MUTATORS = (
    "append", "extend", "insert", "pop", "remove", "clear", "sort",
    "reverse", "__setitem__", "__delitem__", "__iadd__", "__imul__",
)

#: Every class that states its own ``empty_result`` (the cogroup bucket
#: inherits the group bucket's).
DECLARING = [
    cls for cls in vars(task_module).values()
    if isinstance(cls, type) and "empty_result" in vars(cls)
]

BACKENDS = [
    pytest.param({"backend": "serial"}, id="serial"),
    pytest.param({"backend": "process", "num_workers": 2}, id="process"),
]

#: Mutations attempted on a frozen list in this process (a worker's
#: attempt fails its task, and with it the job).
fired = []


def _refuse(name):
    def mutator(self, *args, **kwargs):
        fired.append(name)
        raise AssertionError(
            "%s() on a partition shared by a task set" % name
        )

    mutator.__name__ = name
    return mutator


class FrozenList(list):
    """A list that can be read in every way and written in none."""

    def __reduce__(self):
        # Workers rebuild it through the constructor, not ``extend``.
        return (FrozenList, (list(self),))


for _name in MUTATORS:
    setattr(FrozenList, _name, _refuse(_name))


def freeze(value):
    if isinstance(value, list):
        return FrozenList(map(freeze, value))
    if isinstance(value, tuple):
        return tuple(map(freeze, value))
    return value


@contextlib.contextmanager
def frozen_empties():
    """Freeze every declared empty result; yields the calls seen.  No
    mutator may have fired by the time the block ends."""
    calls = []
    del fired[:]
    with pytest.MonkeyPatch.context() as patch:
        for cls in DECLARING:

            def empty_result(self, _original=vars(cls)["empty_result"]):
                calls.append(type(self).__name__)
                return freeze(_original(self))

            patch.setattr(cls, "empty_result", empty_result)
        yield calls
    assert fired == []


def run(program, config):
    with EngineContext(config) as ctx:
        return program(ctx)


def test_the_frozen_list_refuses_every_mutator():
    for name in MUTATORS:
        frozen = FrozenList([3, 1, 2])
        args = {
            "append": (0,), "extend": ([0],), "insert": (0, 0),
            "remove": (1,), "__setitem__": (0, 0), "__delitem__": (0,),
            "__iadd__": ([0],), "__imul__": (2,),
        }.get(name, ())
        with pytest.raises(AssertionError, match="shared by a task set"):
            getattr(frozen, name)(*args)
        assert frozen == [3, 1, 2]
    assert sorted(FrozenList([3, 1, 2])) == [1, 2, 3]
    assert FrozenList([1]) + [2] == [1, 2]
    del fired[:]


def test_the_frozen_value_is_what_the_partitions_hold():
    # Not vacuous: the patched value reaches the stage's partitions,
    # one object for all 61 empties, so a write anywhere downstream
    # would hit a mutator.
    with frozen_empties() as calls:
        with EngineContext(laptop_config(backend="serial")) as ctx:
            bag = ctx.range_bag(3, num_partitions=64).map(abs).cache()
            assert sorted(bag.collect()) == [0, 1, 2]
            empties = [part for part in bag.node.materialized if not part]
    assert len(calls) == 1
    assert len(empties) == 61
    assert {type(part) for part in empties} == {FrozenList}
    assert len({id(part) for part in empties}) == 1


def test_a_chain_that_folds_shares_one_frozen_empty_too(monkeypatch):
    # The chain's task is the reduce's map-side combine as well: one
    # task set where there were two, its 61 empties one frozen value
    # (combined partition, counts and works) that the shuffle only
    # reads.
    sets = []
    run_stage = TaskScheduler.run_stage

    def recording_run_stage(self, task, args_list, **kwargs):
        sets.append(run_stage(self, task, args_list, **kwargs))
        return sets[-1]

    monkeypatch.setattr(TaskScheduler, "run_stage", recording_run_stage)
    with frozen_empties() as calls:
        with EngineContext(laptop_config(backend="serial")) as ctx:
            bag = (
                ctx.range_bag(3, num_partitions=64)
                .map(lambda x: (x % 2, x))
                .reduce_by_key(lambda a, b: a + b)
            )
            assert sorted(bag.collect()) == [(0, 2), (1, 1)]
    assert [name.replace("Compiled", "Fused") for name in calls] == [
        "FusedPipelineTask", "CombineTask",
    ]
    folded, _reduced = sets
    empties = [value for value in folded if not value[0]]
    assert len(empties) == 61 and len({id(value) for value in empties}) == 1
    records, counts, works, fold_work = empties[0]
    assert {type(records), type(counts), type(works)} == {FrozenList}
    assert (records, counts, works, fold_work) == ([], [0], [0], 0)


@pytest.mark.parametrize("overrides", BACKENDS)
@pytest.mark.parametrize(
    "name, program", library_programs(),
    ids=[name for name, _program in library_programs()],
)
def test_library_never_writes_through_a_partition(name, program, overrides):
    with frozen_empties() as calls:
        frozen = run(program, laptop_config(**overrides))
    assert calls, "no task set had an empty partition"
    assert results_equivalent(frozen, run(program, laptop_config()))


def flattened_pair(ctx):
    """A ``nested_serial``-shaped op: two flattened paper tasks on the
    context's default parallelism."""
    points = ctx.bag_of(grouped_points(4, 256, 4, seed=3))
    centroids = kmeans.kmeans_nested_grouped(
        points, initial_centroids(4, 4, seed=3),
        max_iterations=1, tolerance=None,
    ).collect()
    rates = bounce_rate.bounce_rate_nested(
        ctx.bag_of(visits_log(4, 256, seed=3))
    ).collect()
    return sorted(centroids), sorted(rates)


def test_paper_default_parallelism_never_writes_through_a_partition(
    monkeypatch
):
    config = ClusterConfig(backend="serial")
    assert config.default_parallelism == 1200
    sets = []
    run_stage = TaskScheduler.run_stage

    def counted_run_stage(self, task, args_list, **kwargs):
        sets.append(len(args_list))
        return run_stage(self, task, args_list, **kwargs)

    monkeypatch.setattr(TaskScheduler, "run_stage", counted_run_stage)
    with frozen_empties() as calls:
        with EngineContext(config) as ctx:
            frozen = flattened_pair(ctx)
            undispatched = sum(sets) - ctx.runtime.tasks_launched
    # Nearly every partition is empty here -- the shared value is what
    # most of each stage holds -- and ``empty_result()`` was asked at
    # most once per task set, not once per undispatched task.  Counts,
    # so this cannot flake.
    assert undispatched > 20000
    assert 30 < len(calls) <= len(sets) < 100
    assert results_equivalent(frozen, run(flattened_pair, config))


def _tag_each(items, index):
    return [(index, item) for item in items]


def test_batched_bodies_never_write_through_their_inputs():
    # Every body over one batch of frozen partitions -- the one frozen
    # empty among them several times, as a pending fault plan would
    # dispatch it -- reads them and writes only lists of its own.
    from repro.engine.codegen import plan_compiled_task
    from repro.engine.runtime.task import (
        STEP_FILTER, STEP_FLATMAP, STEP_MAP,
        BroadcastJoinProbeTask, CoGroupBucketTask, CombineTask,
        CrossBroadcastTask, FusedPipelineTask, GroupBucketTask,
        MapPartitionsTask,
    )

    empty = FrozenList()
    pairs = [freeze([(x % 3, x) for x in range(start, start + 5)])
             for start in (0, 5)]
    batch = [pairs[0], empty, pairs[1], empty]
    steps = [(STEP_MAP, _swap, "swap"), (STEP_FILTER, _even, "keep"),
             (STEP_FLATMAP, _twice, "twice"), (STEP_MAP, _swap, "back")]
    compiled, reason = plan_compiled_task(steps, fold=(_add, "add"))
    assert reason is None, reason
    bodies = [
        (FusedPipelineTask(steps), batch),
        (FusedPipelineTask(steps, (_add, "add")), batch),
        (compiled, batch),
        (CombineTask(_add, "c"), batch),
        (GroupBucketTask(1.0, 1.0, 10 ** 6, "g"), batch),
        (CoGroupBucketTask(1.0, 1.0, 10 ** 6, "cg"),
         list(zip(batch, reversed(batch)))),
        (BroadcastJoinProbeTask({0: ["a"]}, "j"), batch),
        (CrossBroadcastTask(freeze([1, 2]), "left", "x"), batch),
        (MapPartitionsTask(_tag_each, "mp"),
         [(part, index) for index, part in enumerate(batch)]),
    ]
    del fired[:]
    for task, inputs in bodies:
        values = task.run(inputs)
        assert len(values) == len(inputs)
        assert values == task.run(_thaw(inputs)), type(task).__name__
    assert fired == []


def _thaw(value):
    if isinstance(value, list):
        return list(map(_thaw, value))
    if isinstance(value, tuple):
        return tuple(map(_thaw, value))
    return value


def _even(pair):
    return pair[0] % 2 == 0


def _swap(pair):
    return (pair[1], pair[0])


def _twice(pair):
    return (pair, pair)


def _add(a, b):
    return a + b
