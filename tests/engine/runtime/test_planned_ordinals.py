"""Kill plans address stages by ordinals the *plan* fixes.

Every evaluation unit reserves its maximum dispatch count before
anything runs (see ``repro.engine.dag``), so which dispatch a
``kill_task(stage=...)`` plan hits does not depend on what happened at
run time before it: a shuffle elided on the way uses fewer ordinals
than it reserved and leaves a gap, a ``reduce_by_key`` whose map-side
combine rides in the task of the chain below it leaves the combine's,
and the jobs of a ``ctx.gather`` each draw one contiguous range however
their stages interleave.
"""

import threading

from repro.engine import EngineContext, laptop_config
from repro.engine.runtime.task import VECTOR
from repro.observe.events import KIND_FAULT, KIND_STAGE, KIND_TASK_SET


def branching_program(ctx, fused=True):
    """A cogroup of two shuffled arms.  The left arm reduces twice by
    the same key: the second reduce adopts the first one's layout and
    dispatches one task set instead of the two it reserved (unless the
    elision planner is taken out).  The first reduce sits on a map and
    plans as one unit with it, unless the map is cached
    (``fused=False``): then the same three ordinals are a chain's and a
    two-sided reduce's."""
    keyed = ctx.bag_of(range(24)).map(lambda x: (x % 3, x))
    if not fused:
        keyed = keyed.cache()
    left = (
        keyed
        .reduce_by_key(lambda a, b: a + b).with_label("first")
        .reduce_by_key(lambda a, b: a + b).with_label("second")
    )
    right = (
        ctx.bag_of(range(18))
        .map(lambda x: (x % 3, x + 100))
        .group_by_key()
    )
    return sorted(left.cogroup(right).collect())


def run_with_kill(ordinal, fused=True):
    """Run the program killing ``(ordinal, task 0)`` once.

    Returns ``(result, hit)``: ``hit`` is ``None`` when no dispatch drew
    the ordinal, else ``(operator, (job, origin))`` -- the operator
    whose task set was killed and the stage its retry was credited to.
    """
    with EngineContext(laptop_config(), trace=True) as ctx:
        ctx.fault_injector.kill_task(task_index=0, stage=ordinal)
        result = branching_program(ctx, fused)
        faults = [
            event for event in ctx.tracer.events()
            if event.kind == KIND_FAULT
        ]
        credited = [
            (job_index, stage.origin)
            for job_index, job in enumerate(ctx.trace.jobs)
            for stage in job.stages
            if stage.task_retries
        ]
        if not faults:
            assert ctx.fault_injector.pending == 1 and not credited
            return result, None
        (fault,), (stage,) = faults, credited
        assert fault.args["dispatch"] == ordinal
        operator = fault.name.split(":", 1)[1].rsplit("#", 1)[0]
        return result, (operator, stage)


def test_ordinals_are_fixed_by_the_plan(without_elision):
    with EngineContext(laptop_config()) as ctx:
        expected = branching_program(ctx)
        budget = ctx.runtime.dispatch_count
    elided = [run_with_kill(ordinal) for ordinal in range(budget)]
    without_elision()
    plain = [run_with_kill(ordinal) for ordinal in range(budget)]
    assert all(result == expected for result, _hit in plain + elided)
    plain = [hit for _result, hit in plain]
    elided = [hit for _result, hit in elided]
    # The first reduce's map-side combine runs in the map's tasks, on
    # the input's stage, under the chain's ordinal; the ordinal reserved
    # for a combine task set of its own is never drawn.
    assert plain[:3] == [
        ("Map+ReduceByKey[first]", (0, "Parallelize")),
        None,
        ("ReduceByKey[first]", (0, "ReduceByKey[first]")),
    ]
    # Unoptimized, every other reserved ordinal is drawn: the second
    # reduce, on no chain, combines map-side on its input's stage, then
    # on the one it opens.
    assert None not in plain[3:]
    reduce_side = ("ReduceByKey[second]", (0, "ReduceByKey[second]"))
    gap = plain.index(reduce_side)
    assert plain[gap - 1] == ("ReduceByKey[second]", (0, "ReduceByKey[first]"))
    # Elided, its one task set runs on the stage it opens and its
    # second ordinal is never drawn ...
    assert elided[gap - 1:gap + 1] == [reduce_side, None]
    # ... and every other ordinal still hits the same operator on the
    # same stage of the same job: a gap, never a shift.
    assert elided[:gap - 1] == plain[:gap - 1]
    assert elided[gap + 1:] == plain[gap + 1:] != []


def test_a_fused_reduce_leaves_a_gap_not_a_shift(without_elision):
    without_elision()
    with EngineContext(laptop_config()) as ctx:
        expected = branching_program(ctx)
        budget = ctx.runtime.dispatch_count
    fused, unfused = (
        [run_with_kill(ordinal, fused=choice)
         for ordinal in range(budget)]
        for choice in (True, False)
    )
    assert all(result == expected for result, _hit in fused + unfused)
    fused = [hit for _result, hit in fused]
    unfused = [hit for _result, hit in unfused]
    # Unfused, the three ordinals are the chain's, the map-side
    # combine's and the reduce side's; fused, the first carries chain
    # and combine, the second is the gap ...
    assert unfused[:3] == [
        ("Map", (0, "Parallelize")),
        ("ReduceByKey[first]", (0, "Parallelize")),
        ("ReduceByKey[first]", (0, "ReduceByKey[first]")),
    ]
    assert fused[:2] == [("Map+ReduceByKey[first]", (0, "Parallelize")), None]
    # ... and every later ordinal hits the same operator on the same
    # stage of the same job.
    assert fused[2:] == unfused[2:] and len(fused) > 3


def test_a_killed_chain_and_fold_task_is_credited_once():
    def run(kill):
        with EngineContext(laptop_config(), trace=True) as ctx:
            if kill:
                ctx.fault_injector.kill_task(task_index=0, stage=0)
            result = branching_program(ctx)
            assert ctx.fault_injector.pending == 0
            (job,) = ctx.trace.jobs
            return (
                result,
                [list(stage.task_records) for stage in job.stages],
                [stage.task_retries for stage in job.stages],
                ctx.simulated_seconds(),
            )

    result, records, retries, seconds = run(kill=True)
    clean_result, clean_records, clean_retries, clean_seconds = run(kill=False)
    assert (result, records, seconds) == (
        clean_result, clean_records, clean_seconds
    )
    # The retry is the input stage's: that is where chain and map-side
    # combine are credited, each once.
    assert retries[0] == 1 and not any(retries[1:] + clean_retries)


def test_gathered_jobs_draw_contiguous_ordinal_ranges():
    with EngineContext(laptop_config(), trace=True) as ctx:
        barrier = threading.Barrier(2, timeout=10)

        def job():
            barrier.wait()
            return branching_program(ctx)

        first, second = ctx.gather(job, job)
        assert first == second
        drawn = {}
        for event in ctx.tracer.events():
            if event.kind == KIND_STAGE:
                drawn.setdefault(event.lane, []).append(
                    event.args["dispatch"]
                )
        budget = ctx.runtime.dispatch_count // 2
    # Each job's dispatches are increasing and stay inside one
    # reservation of the job's whole budget; the two do not interleave.
    ranges = sorted(drawn.values())
    assert len(ranges) == 2
    for base, ordinals in zip((0, budget), ranges):
        assert ordinals == sorted(ordinals)
        assert base <= ordinals[0] and ordinals[-1] < base + budget


def test_a_kill_in_the_middle_of_a_batch_hits_its_partition_alone():
    # 64 one-record partitions are one batch (on the serial backend;
    # the process backend cuts a set into enough batches for its
    # workers) -- unless a kill plan is pending: then the set runs as
    # batches of one, and the plan hits partition 30 and nothing else.
    def run(kill):
        with EngineContext(laptop_config(), trace=True) as ctx:
            if kill:
                ctx.fault_injector.kill_task(task_index=30, stage=0)
            result = sorted(
                ctx.bag_of(range(64), num_partitions=64)
                .map(lambda x: x * 3).collect()
            )
            (stage,) = ctx.trace.jobs[-1].stages
            faults = [
                event.args for event in ctx.tracer.events()
                if event.kind == KIND_FAULT
            ]
            batches = [
                (event.args["tasks"], event.args["batches"])
                for event in ctx.tracer.events()
                if event.kind == KIND_TASK_SET
            ]
            runtime = ctx.runtime
            budget = runtime.backend.batch_budget(VECTOR, [1] * 64)
            return (
                result, list(stage.task_records), stage.task_retries,
                faults, batches,
                (runtime.tasks_launched, runtime.tasks_failed,
                 runtime.tasks_retried),
                -(-64 // budget),
            )

    result, records, retries, faults, sets, counts, _ = run(kill=True)
    clean = run(kill=False)
    assert (result, records) == clean[:2]
    assert retries == 1 and clean[2] == 0
    ((fault,),) = [faults]
    assert (fault["task"], fault["tasks"]) == (30, 1)
    assert sets == [(64, 64), (1, 1)]  # batches of one, then the retry
    assert counts == (65, 1, 1)
    assert clean[4] == [(64, clean[6])] and clean[5] == (64, 0, 0)
