"""Property-based sanity of the cost model.

The absolute constants are calibration; these properties are what the
benchmark conclusions actually rest on.
"""

import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import ClusterConfig, CostModel, EngineContext
from repro.engine.costmodel import _makespan
from repro.engine.metrics import ExecutionTrace, Ledger


def run_trace(config, records, num_groups):
    ctx = EngineContext(config)
    bag = ctx.bag_of([(i % num_groups, i) for i in range(records)])
    bag.reduce_by_key(lambda a, b: a + b).collect()
    return ctx.trace, ctx.cost_model


machines = st.integers(min_value=1, max_value=40)
records = st.integers(min_value=1, max_value=400)


@settings(max_examples=25, deadline=None)
@given(machines_a=machines, machines_b=machines, n=records)
def test_more_machines_never_slower(machines_a, machines_b, n):
    low, high = sorted((machines_a, machines_b))
    config = ClusterConfig(machines=low, cores_per_machine=4)
    trace, _model = run_trace(config, n, num_groups=max(1, n // 4))
    slow = CostModel(config).simulated_seconds(trace)
    fast = CostModel(
        config.with_machines(high)
    ).simulated_seconds(trace)
    assert fast <= slow + 1e-9


@settings(max_examples=25, deadline=None)
@given(n_small=records, n_big=records)
def test_more_records_cost_at_least_as_much(n_small, n_big):
    small, big = sorted((n_small, n_big))
    config = ClusterConfig(machines=2, cores_per_machine=4)
    trace_small, model = run_trace(config, small, num_groups=4)
    trace_big, _ = run_trace(config, big, num_groups=4)
    assert model.simulated_seconds(
        trace_big
    ) >= model.simulated_seconds(trace_small) - 1e-9


@settings(max_examples=25, deadline=None)
@given(n=records)
def test_cost_is_positive_and_finite(n):
    config = ClusterConfig(machines=2, cores_per_machine=4)
    trace, model = run_trace(config, n, num_groups=3)
    seconds = model.simulated_seconds(trace)
    assert seconds > 0
    assert seconds == seconds and seconds != float("inf")


@settings(max_examples=30, deadline=None)
@given(
    tasks=st.lists(
        st.integers(min_value=0, max_value=100), max_size=20
    ),
    slots=st.integers(min_value=1, max_value=16),
)
def test_makespan_bounds(tasks, slots):
    span = _makespan(tasks, slots)
    total = sum(tasks)
    biggest = max(tasks, default=0)
    # Lower bounds: the biggest task, and perfect parallelism.
    assert span >= biggest
    assert span * slots >= total or len(
        [t for t in tasks if t]
    ) <= slots
    # Upper bound: fully serial.
    assert span <= total


@settings(max_examples=30, deadline=None)
@given(
    tasks=st.lists(
        st.integers(min_value=0, max_value=100), max_size=20
    ),
    slots_a=st.integers(min_value=1, max_value=16),
    slots_b=st.integers(min_value=1, max_value=16),
)
def test_makespan_monotone_in_slots(tasks, slots_a, slots_b):
    low, high = sorted((slots_a, slots_b))
    assert _makespan(tasks, high) <= _makespan(tasks, low)


def _makespan_by_scan(task_records, slots):
    """The rule ``_makespan`` implements, the way it was first written:
    every task goes to the first least-loaded slot, found by scanning.
    O(tasks x slots); kept here as the oracle."""
    active = [records for records in task_records if records > 0]
    if not active:
        return 0
    if len(active) <= slots:
        return max(active)
    loads = [0] * slots
    for records in sorted(active, reverse=True):
        loads[loads.index(min(loads))] += records
    return max(loads)


@settings(max_examples=200, deadline=None)
@given(
    tasks=st.one_of(
        # Few distinct sizes: equally loaded slots at almost every step.
        st.lists(st.sampled_from([0, 1, 2, 3, 5, 8, 100]), max_size=200),
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            max_size=200,
        ),
    ),
    slots=st.integers(min_value=1, max_value=32),
)
@example(tasks=[4, 0, 9, 0, 2], slots=1)  # one slot: the sum
@example(tasks=[4, 0, 9, 0, 2], slots=3)  # as many live tasks as slots
@example(tasks=[4, 0, 9, 0, 2], slots=8)  # fewer live tasks than slots
@example(tasks=[5] * 7, slots=3)          # nothing but ties
@example(tasks=[0, 0, 0], slots=2)
@example(tasks=[], slots=4)
def test_makespan_equals_the_scanning_rule(tasks, slots):
    # Equal to the bit, floats included: which of several equally
    # loaded slots takes a task permutes the loads and nothing else.
    assert _makespan(tasks, slots) == _makespan_by_scan(tasks, slots)


def test_makespan_is_not_quadratic():
    # A size tripwire, not a stopwatch race: scanning 10,000 slots for
    # each of 50,000 tasks took 9 s, the heap takes about 0.01 s.
    start = time.perf_counter()
    assert _makespan([1] * 50_000, 10_000) == 5
    assert time.perf_counter() - start < 1.0


def test_empty_trace_is_free():
    model = CostModel(ClusterConfig())
    assert model.simulated_seconds(ExecutionTrace()) == 0.0


@settings(max_examples=15, deadline=None)
@given(n=records)
def test_cost_additive_over_jobs(n):
    config = ClusterConfig(machines=2, cores_per_machine=4)
    ctx = EngineContext(config)
    bag = ctx.bag_of(list(range(n)))
    bag.count()
    one = ctx.simulated_seconds()
    bag.count()
    two = ctx.simulated_seconds()
    assert abs(two - 2 * one) < 1e-9


# ----------------------------------------------------------------------
# Stage-accounting properties of the iterative executor.
#
# The fused pipelines and the single-stage cogroup must not shift any
# non-cogroup cost: for narrow chains and reduce_by_key plans the trace
# is compared against an independently computed reference.  Cogroup
# plans must cost *strictly less* than the seed's double-charged layout
# (which left the right side's folded shuffle stage in the job).
# ----------------------------------------------------------------------

import copy

from repro.engine.partitioner import build_balanced_assignment

chain_specs = st.lists(
    st.tuples(st.sampled_from(["map", "filter"]),
              st.integers(min_value=0, max_value=6)),
    max_size=5,
)


def _apply_spec(kind, param, value):
    if kind == "map":
        return value + param
    return (value + param) % 3 != 0


def _reference_trace(config, data, specs, reduce_partitions):
    """Expected trace of parallelize -> narrow chain -> reduce_by_key ->
    collect, computed without the executor."""
    from repro.engine.metrics import ExecutionTrace

    num_partitions = min(config.default_parallelism, max(1, len(data)))
    parts = [[] for _ in range(num_partitions)]
    for index, record in enumerate(data):
        parts[index % num_partitions].append(record)
    trace = ExecutionTrace()
    job = trace.new_job("collect")
    stage = job.new_stage("input", origin="Parallelize")
    tasks = [len(part) for part in parts]
    for kind, param in specs:
        out = []
        for index, part in enumerate(parts):
            tasks[index] += len(part)
            if kind == "map":
                out.append(
                    [(k, _apply_spec(kind, param, v)) for k, v in part]
                )
            else:
                out.append(
                    [
                        (k, v) for k, v in part
                        if _apply_spec(kind, param, v)
                    ]
                )
        parts = out
    # Map-side combine: one record per (partition, key).
    combined = [sorted({k for k, _v in part}) for part in parts]
    for index, keys in enumerate(combined):
        tasks[index] += len(keys)
    stage.task_records = Ledger.from_dense(tasks)
    moved = sum(len(keys) for keys in combined)
    counts = {}
    for keys in combined:
        for key in keys:
            counts[key] = counts.get(key, 0) + 1
    assignment = build_balanced_assignment(counts, reduce_partitions)
    reduce_stage = job.new_stage("shuffle", origin="ReduceByKey")
    buckets = [0] * reduce_partitions
    for keys in combined:
        for key in keys:
            buckets[assignment[key]] += 1
    reduce_stage.task_records = Ledger.from_dense(buckets)
    reduce_stage.shuffle_read_records = moved
    reduce_stage.shuffle_write_records = moved
    job.collected_records += len(counts)
    return trace


@settings(max_examples=25, deadline=None)
@given(
    n=records,
    tags=st.integers(min_value=1, max_value=20),
    specs=chain_specs,
)
def test_non_cogroup_cost_matches_reference_trace(n, tags, specs):
    config = ClusterConfig(machines=2, cores_per_machine=4)
    data = [("k%d" % (i % tags), i) for i in range(n)]
    ctx = EngineContext(config)
    bag = ctx.bag_of(data)
    for kind, param in specs:
        if kind == "map":
            bag = bag.map(
                lambda kv, p=param: (kv[0], _apply_spec("map", p, kv[1]))
            )
        else:
            bag = bag.filter(
                lambda kv, p=param: _apply_spec("filter", p, kv[1])
            )
    reduce_partitions = config.default_parallelism
    bag.reduce_by_key(lambda a, b: a + b, reduce_partitions).collect()
    got = ctx.simulated_seconds()
    reference = _reference_trace(config, data, specs, reduce_partitions)
    expected = CostModel(config).simulated_seconds(reference)
    assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    left_n=records,
    right_n=records,
    tags=st.integers(min_value=1, max_value=15),
)
def test_cogroup_join_cost_strictly_below_double_charged(
    left_n, right_n, tags
):
    config = ClusterConfig(machines=2, cores_per_machine=4)
    ctx = EngineContext(config)
    left = ctx.bag_of([("k%d" % (i % tags), i) for i in range(left_n)])
    right = ctx.bag_of(
        [("k%d" % (i % tags), -i) for i in range(right_n)]
    )
    left.join(right, strategy="repartition").collect()
    model = CostModel(config)
    fixed = model.simulated_seconds(ctx.trace)
    # Reconstruct the seed's layout: the right side's shuffle stage kept
    # its task records and reads after being folded into the output
    # stage, double-charging every cogroup-based join.
    double_charged = copy.deepcopy(ctx.trace)
    job = double_charged.jobs[-1]
    duplicate = job.new_stage("shuffle", origin="CoGroup")
    duplicate.task_records = Ledger.from_dense([right_n])
    duplicate.shuffle_read_records = right_n
    duplicate.shuffle_write_records = right_n
    assert fixed < model.simulated_seconds(double_charged)
