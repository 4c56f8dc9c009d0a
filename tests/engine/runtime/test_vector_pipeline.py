"""The vector-at-a-time task bodies against record-at-a-time semantics.

``FusedPipelineTask`` pushes vectors of ``VECTOR`` records through one
operator at a time.  The loop it replaced -- one record through the
whole chain at a time -- is kept here, and only here, as the oracle:
records, their order, per-step counts and works must be equal on every
generated chain.  What *is* allowed to differ, the order UDFs are
called in and which of two failing steps reports, is pinned below, and
a call-count guard fails if a per-record Python wrapper of the engine's
comes back.

``CompiledPipelineTask``, the generated loop large provable chains run
as, is held to the same oracle on every generated chain free of
``Weighted`` results, and to the interpreter's errors.  A second
strategy draws chains of single-expression lambdas over int and tuple
records -- the bodies the generator substitutes into its loop instead
of calling -- through the compile gate itself.

A chain under a ``reduce_by_key`` carries the map-side combine as its
tail (``fold=(reducer, operator)``).  Every body it can then have --
the interpreter folding each output vector, the generated loop folding
with the reducer lowered, with the reducer called, and the generated
loop's output folded after it -- is held to the two task sets it
replaced: ``CombineTask`` over ``FusedPipelineTask``'s output.
"""

import collections
import copy
import hashlib
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.engine import EngineContext, laptop_config
from repro.engine.codegen import (
    generate_source,
    plan_compiled_task,
    udf_lowering,
)
from repro.engine.plan import Parallelize
from repro.engine.runtime.task import (
    STEP_FILTER,
    STEP_FLATMAP,
    STEP_MAP,
    VECTOR,
    BroadcastJoinProbeTask,
    CoGroupBucketTask,
    CombineTask,
    CompiledPipelineTask,
    CrossBroadcastTask,
    FusedPipelineTask,
    GroupBucketTask,
    MapPartitionsTask,
    require_keyed,
)
from repro.engine.work import Weighted, unwrap_all
from repro.errors import PlanError, SimulatedOutOfMemory, UdfError

_END = object()


def record_at_a_time(steps, part):
    """The loop ``FusedPipelineTask.__call__`` ran before vectors."""
    num = len(steps)
    counts = [0] * num
    works = [0] * num
    out = []
    stack = [(0, iter(part))]
    while stack:
        depth, iterator = stack[-1]
        item = next(iterator, _END)
        if item is _END:
            stack.pop()
            continue
        i = depth
        while i < num:
            kind, fn, operator = steps[i]
            counts[i] += 1
            try:
                result = fn(item)
            except (SimulatedOutOfMemory, UdfError):
                raise
            except Exception as exc:
                raise UdfError(operator, exc) from exc
            if isinstance(result, Weighted):
                works[i] += result.work
                result = result.value
            if kind == STEP_MAP:
                item = result
            elif kind == STEP_FILTER:
                if not result:
                    break
            else:
                stack.append((i + 1, iter(result)))
                break
            i += 1
        else:
            out.append(item)
    return out, counts, works


# ----------------------------------------------------------------------
# Generated chains over int records (every composition is well-typed)
# ----------------------------------------------------------------------


def _expand_generator(x, k):
    return (x + j for j in range(x % k))


#: name -> (kind, factory(parameter) -> udf).  Weighted results at every
#: kind, wrapped always or only for some records of a vector; filters
#: that answer truthy ints, not bools; flat_maps that return lists,
#: tuples, generators, nothing, and more than a vector.
UDFS = {
    "add": (STEP_MAP, lambda a: lambda x: x + a),
    "add-weighted": (STEP_MAP, lambda a: lambda x: Weighted(x + a, x % 3)),
    "add-some-weighted": (
        STEP_MAP,
        lambda a: lambda x: Weighted(x + 1, 2) if x % a == 0 else x + 1,
    ),
    "keep-mod": (STEP_FILTER, lambda a: lambda x: x % a),
    "keep-weighted": (
        STEP_FILTER, lambda a: lambda x: Weighted(x % a != 1, 1)
    ),
    "keep-none": (STEP_FILTER, lambda a: lambda x: False),
    "fan-list": (STEP_FLATMAP, lambda a: lambda x: [x] * (x % a)),
    "fan-tuple": (STEP_FLATMAP, lambda a: lambda x: (x, x + a)),
    "fan-generator": (
        STEP_FLATMAP, lambda a: lambda x: _expand_generator(x, a)
    ),
    "fan-empty": (STEP_FLATMAP, lambda a: lambda x: []),
    "fan-weighted": (
        STEP_FLATMAP, lambda a: lambda x: Weighted([x + 1] * (x % a), 5)
    ),
    "fan-past-a-vector": (
        STEP_FLATMAP,
        lambda a: lambda x: range(VECTOR + a) if x % 509 == 0 else (x,),
    ),
}

step_specs = st.tuples(
    st.sampled_from(sorted(UDFS)), st.integers(min_value=1, max_value=4)
)
chains = st.lists(step_specs, min_size=1, max_size=5)

LENGTHS = [0, 1, VECTOR - 1, VECTOR, VECTOR + 1, 2 * VECTOR + 3]


def build_steps(specs):
    steps = []
    for index, (name, parameter) in enumerate(specs):
        kind, factory = UDFS[name]
        steps.append((kind, factory(parameter), "%s#%d" % (name, index)))
    return steps


def compiled_task(steps, fold=None, tail=None):
    """The generated loop for ``steps`` -- every body the generator can
    lower, lowered -- built past the compile gate
    (tests/engine/test_codegen.py holds the gate to its contract).
    With a ``fold``, ``tail`` says how the loop ends
    (``generate_source``'s ``fold``); ``None`` leaves the folding to
    the task."""
    source = generate_source(
        [kind for kind, _fn, _operator in steps],
        [udf_lowering(fn)[0] for _kind, fn, _operator in steps],
        fold=tail,
    )
    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()[:16]
    return CompiledPipelineTask(steps, source, "test-" + digest, fold)


def assert_matches_oracle(steps, part):
    before = list(part)
    task = FusedPipelineTask(steps)
    out, counts, works = task(part)
    assert (out, counts, works) == record_at_a_time(steps, before)
    assert out is not part
    assert list(part) == before
    if not any("weighted" in operator for _kind, _fn, operator in steps):
        # What the compile gate lets through: no Weighted results.
        assert compiled_task(steps)(part) == (out, counts, works)
        assert list(part) == before


@pytest.mark.parametrize("length", LENGTHS)
@settings(max_examples=20, deadline=None)
@given(specs=chains)
def test_generated_chains_match_the_oracle(length, specs):
    assert_matches_oracle(build_steps(specs), list(range(length)))


# ----------------------------------------------------------------------
# Generated chains of lowered bodies, over ints and over tuples
# ----------------------------------------------------------------------


def _halve(x):
    return x // 2


#: name -> (kind, record type in, record type out, factory(a) -> udf).
LOWERED = {}


def lowered(kind, takes, gives):
    """Register a factory of single-expression lambdas: the generator
    lowers every one of them.  ``a`` is captured, an int or a float.
    (One ``return lambda`` per line: a lambda inside a dict display has
    no recoverable source, and would be called, not lowered.)"""
    def register(factory):
        LOWERED[factory.__name__] = (kind, takes, gives, factory)
        return factory

    return register


@lowered(STEP_MAP, "int", "int")
def scale(a):
    return lambda x: x * a + 1


@lowered(STEP_MAP, "int", "int")
def ratio(a):
    return lambda x: x // (x % a)  # ZeroDivisionError on some records


@lowered(STEP_MAP, "int", "int")
def helper(a):
    return lambda x: _halve(x) - a


@lowered(STEP_FILTER, "int", "int")
def between(a):
    return lambda x: 0 < x % 7 <= a


@lowered(STEP_FILTER, "int", "int")
def either(a):
    return lambda x: x % 2 == 0 or (x > a and not x % 5 == 0)


@lowered(STEP_FLATMAP, "int", "int")
def fan(a):
    return lambda x: (x, x + a)


@lowered(STEP_MAP, "int", "pair")
def pair(a):
    return lambda x: (x, x * 0.5 + a)


@lowered(STEP_MAP, "pair", "pair")
def pair_scale(a):
    return lambda r: (r[0], r[1] * a)


@lowered(STEP_MAP, "pair", "pair")
def pair_grow(a):
    return lambda r: (r[0] + a, r[1], r[0])


@lowered(STEP_MAP, "pair", "pair")
def pair_bucket(a):
    return lambda r: (r[0] % 3, r[1])


@lowered(STEP_FILTER, "pair", "pair")
def pair_keep(a):
    return lambda r: r[0] % 4 != a


@lowered(STEP_FILTER, "pair", "pair")
def pair_whole(a):
    return lambda r: len(r) + r[-1] > a


@lowered(STEP_MAP, "pair", "pair")
def pair_past(a):
    return lambda r: (r[0], r[2] + a)  # IndexError on a two-tuple


@lowered(STEP_FLATMAP, "pair", "int")
def pair_fan(a):
    return lambda r: (r[0], int(r[1]))


@lowered(STEP_MAP, "pair", "int")
def pair_first(a):
    return lambda r: r[0] - a


lowered_specs = st.lists(
    st.tuples(
        st.sampled_from(sorted(LOWERED)),
        st.one_of(st.integers(1, 4), st.sampled_from([0.5, 1.5, 3.0])),
    ),
    min_size=1, max_size=8,
)


def build_lowered_steps(specs):
    """The drawn specs that type-check in sequence, as steps: a spec
    whose input type is not the chain's current type is skipped."""
    steps = []
    current = "int"
    for name, parameter in specs:
        kind, takes, gives, factory = LOWERED[name]
        if takes != current:
            continue
        if current == "int" and gives == "int" and kind != STEP_FILTER:
            parameter = int(parameter) or 1  # ints stay ints
        steps.append(
            (kind, factory(parameter), "%s#%d" % (name, len(steps)))
        )
        current = gives
    return steps


def _outcome(body, part):
    """``("ok", result)``, ``("error", operator, error type)``,
    ``("plan-error", message)`` or ``("oom", message)``."""
    try:
        return ("ok", body(part))
    except UdfError as err:
        return ("error", err.operator, type(err.original))
    except PlanError as err:
        return ("plan-error", str(err))
    except SimulatedOutOfMemory as err:
        return ("oom", str(err))


@pytest.mark.parametrize("length", [0, 1, VECTOR + 1])
@settings(max_examples=40, deadline=None)
@given(specs=lowered_specs)
def test_lowered_chains_match_the_interpreter_and_plain_python(length, specs):
    steps = build_lowered_steps(specs)
    assume(steps)
    part = list(range(length))
    task, reason = plan_compiled_task(steps)
    assert reason is None, reason
    assert "_udfs[" not in task.source  # every body lowered, no call
    compiled = _outcome(task, part)
    assert compiled == _outcome(FusedPipelineTask(steps), part)
    plain = _outcome(lambda p: record_at_a_time(steps, p), part)
    assert plain[0] == compiled[0]
    if compiled[0] == "ok":
        # Records, per-operator counts and the all-zero works.  Which
        # of two failing steps reports is the interpreter's rule.
        assert plain == compiled
    assert part == list(range(length))


# ----------------------------------------------------------------------
# Chains with a fold tail: the map-side combine in the chain's task
# ----------------------------------------------------------------------


def _sum(a, b):
    return a + b


def _largest(a, b):
    return a if a > b else b  # the accumulator read twice


def _total(a, b):
    c = a + b
    return c


def _picky(a, b):
    return a // (b % 3)  # ZeroDivisionError on some reductions


def _picky_total(a, b):
    c = a // (b % 3)
    return c


def _weighted_sum(a, b):
    return Weighted(a + b, 3)


def _some_weighted(a, b):
    return Weighted(a + b, 1) if b % 2 else a + b


#: name -> (reducer, may the generated loop fold with it).  What the
#: compile gate would refuse -- a Weighted result -- is only ever folded
#: by the task, after the loop.
REDUCERS = {
    "sum": (_sum, True),
    "largest": (_largest, True),
    "total": (_total, True),
    "picky": (_picky, True),
    "picky-total": (_picky_total, True),
    "weighted-sum": (_weighted_sum, False),
    "some-weighted": (_some_weighted, False),
}


def keyed(a):
    return lambda x: (x % a, x)


def keyed_fan(a):
    return lambda x: ((x % a, x), (x % 2, 1))


def keyed_named(a):
    return lambda x: Pair(x % a, x)


def keyed_list(a):
    return lambda x: [x % a, x]


#: What turns the chain's ints into the fold's input: a lowered tuple
#: display (the loop keeps key and value in locals), a flat_map, a tuple
#: subclass, nothing at all (ints are not pairs) and a list of two.
TAILS = {
    "map": (STEP_MAP, keyed),
    "flat_map": (STEP_FLATMAP, keyed_fan),
    "named": (STEP_MAP, keyed_named),
    "unpaired": None,
    "list": (STEP_MAP, keyed_list),
}


def unfused(steps, fold):
    """The two task sets a chain with a fold tail replaces."""
    def body(part):
        out, counts, works = FusedPipelineTask(steps)(part)
        records, work = CombineTask(*fold)(out)
        return records, counts, works, work

    return body


def fold_bodies(steps, fold, in_loop):
    """Every body a chain with a fold tail can have, by name."""
    bodies = {"interpreted": FusedPipelineTask(steps, fold)}
    if any("weighted" in operator for _kind, _fn, operator in steps):
        return bodies
    bodies["folded after the loop"] = compiled_task(steps, fold)
    if in_loop:
        bodies["called in the loop"] = compiled_task(steps, fold, True)
        lowering, _reason = udf_lowering(fold[0], arity=2)
        if lowering is not None:
            bodies["lowered"] = compiled_task(steps, fold, lowering)
    return bodies


@pytest.mark.parametrize("length", [0, 1, VECTOR + 1, 2 * VECTOR + 3])
@settings(max_examples=25, deadline=None)
@given(
    # Half the chains free of Weighted steps: only those may compile.
    specs=st.one_of(
        st.lists(step_specs, max_size=4),
        st.lists(
            step_specs.filter(lambda spec: "weighted" not in spec[0]),
            max_size=4,
        ),
    ),
    tail=st.sampled_from(sorted(TAILS)),
    modulus=st.integers(min_value=1, max_value=5),
    reducer=st.sampled_from(sorted(REDUCERS)),
)
def test_a_fold_tail_matches_the_two_task_sets_it_replaces(
    length, specs, tail, modulus, reducer
):
    steps = build_steps(specs)
    if TAILS[tail] is not None:
        kind, factory = TAILS[tail]
        steps.append((kind, factory(modulus), "%s#%d" % (tail, len(steps))))
    assume(steps)
    fn, in_loop = REDUCERS[reducer]
    fold = (fn, "%s#%d" % (reducer, len(steps)))
    part = list(range(length))
    # Records *in order*, per-step counts and works, the reductions'
    # work; or the reducer's UdfError (its operator, the first failing
    # reduction's error), or the PlanError of the first non-pair.
    reference = _outcome(unfused(steps, fold), part)
    for name, body in fold_bodies(steps, fold, in_loop).items():
        assert _outcome(body, part) == reference, name
        assert body.operator.endswith("+" + fold[1])
        assert body.udfs[-1] is fn
    assert part == list(range(length))


def test_the_fold_reads_a_lowered_pair_as_two_locals():
    steps = [(STEP_MAP, keyed(3), "keyed")]
    lowered = compiled_task(
        steps, (_sum, "sum"), udf_lowering(_sum, arity=2)[0]
    )
    assert "_FOLD = 'lowered'" in lowered.source
    # No pair built, no list appended to, no check of what is a display
    # of two, and the reducer's body in place of its call.
    for absent in ("_append", "_out", "_require_keyed", "_udfs[", "(_v"):
        assert absent not in lowered.source, absent
    assert "_acc[_v1_0] = _acc[_v1_0] + _v0" in lowered.source
    called = compiled_task(steps, (_total, "total"), True)
    assert "_FOLD = 'called'" in called.source
    assert "_acc[_v1_0] = _r(_acc[_v1_0], _v0)" in called.source
    # A flat_map's records are whatever its UDF yields: checked, then
    # taken apart.
    fanned = compiled_task(
        [(STEP_FLATMAP, keyed_fan(3), "fan")], (_sum, "sum"),
        udf_lowering(_sum, arity=2)[0],
    )
    assert "_require_keyed(_v1)" in fanned.source
    assert "_k, _x = _v1" in fanned.source
    # An accumulator the body reads twice is looked up once.
    largest = compiled_task(
        steps, (_largest, "largest"), udf_lowering(_largest, arity=2)[0]
    )
    assert "_a = _acc[_v1_0]" in largest.source
    assert "_acc[_v1_0] = _a if _a > _v0 else _v0" in largest.source


@pytest.mark.parametrize("length", [0, 1, VECTOR + 1])
@settings(max_examples=40, deadline=None)
@given(specs=lowered_specs)
def test_lowered_chains_fold_as_the_interpreter_folds(length, specs):
    steps = build_lowered_steps(specs + [("pair", 1), ("pair_bucket", 3)])
    fold = (_sum, "sum#%d" % len(steps))
    part = list(range(length))
    task, reason = plan_compiled_task(steps, fold=fold)
    assert reason is None, reason
    assert "_FOLD = 'lowered'" in task.source
    assert "_udfs[" not in task.source and "_append" not in task.source
    compiled = _outcome(task, part)
    # Which of a failing step and a failing fold reports is the
    # interpreter's rule, the fold being its last step ...
    assert compiled == _outcome(FusedPipelineTask(steps, fold), part)
    # ... and where the chain itself raises nothing, the rule is moot.
    chain = _outcome(FusedPipelineTask(steps), part)
    if chain[0] == "ok":
        assert compiled == _outcome(unfused(steps, fold), part)
    assert part == list(range(length))


def test_a_failing_steps_partition_is_folded_by_the_interpreter():
    # The generated loop cannot say what failed: the interpreter, fold
    # and all, runs the partition again and names the step -- or the
    # reducer, or the record that is no pair, or the unhashable key.
    lowering = udf_lowering(_picky, arity=2)[0]
    part = list(range(2 * VECTOR))
    steps = [(STEP_MAP, _fail_at(VECTOR + 5), "step"),
             (STEP_MAP, keyed(4), "keyed")]
    for steps, fold, tail, want in [
        (steps, (_sum, "sum"), udf_lowering(_sum, arity=2)[0],
         ("error", "step", ValueError)),
        (steps[1:], (_picky, "picky"), lowering,
         ("error", "picky", ZeroDivisionError)),
        (steps[1:], (_picky_total, "picky"), True,
         ("error", "picky", ZeroDivisionError)),
        ([(STEP_MAP, lambda x: ([x], x), "lists")], (_sum, "sum"), True,
         ("plan-error", "keyed operator expects hashable keys, got [0]")),
    ]:
        assert _outcome(compiled_task(steps, fold, tail), part) == want
        assert _outcome(FusedPipelineTask(steps, fold), part) == want


def test_nested_expansions_stay_depth_first():
    # Two flat_maps, both fanning past a vector: the inner level is
    # drained (in vectors) before the outer level gives its next one.
    steps = build_steps([
        ("fan-past-a-vector", 3), ("fan-tuple", 1),
        ("fan-past-a-vector", 2), ("keep-mod", 3),
    ])
    assert_matches_oracle(steps, list(range(0, 2 * 509 + 1)))


@pytest.mark.parametrize("fold", [None, (_sum, "sum")],
                         ids=["records", "folded"])
@settings(max_examples=20, deadline=None)
@given(specs=chains)
def test_empty_result_is_the_call_on_nothing(specs, fold):
    task = FusedPipelineTask(build_steps(specs), fold)
    assert task.empty_result() == task([])
    assert len(task.empty_result()) == (3 if fold is None else 4)


def test_unwrap_all_sums_work_and_keeps_order():
    values, work = unwrap_all([1, Weighted(2, 3), Weighted(None, 4), 5])
    assert values == [1, 2, None, 5]
    assert work == 7


def test_weighted_is_found_by_exact_class_so_it_is_final():
    with pytest.raises(TypeError):
        type("Heavier", (Weighted,), {})


# ----------------------------------------------------------------------
# Errors
# ----------------------------------------------------------------------


def _fail_at(bad):
    def udf(x):
        if x == bad:
            raise ValueError("record %d" % x)
        return x

    return udf


def _keep_or_fail(bad):
    check = _fail_at(bad)
    return lambda x: check(x) >= 0


def _expand_or_fail(bad):
    check = _fail_at(bad)
    return lambda x: (check(x),)


@pytest.mark.parametrize("body", [FusedPipelineTask, compiled_task],
                         ids=["interpreted", "compiled"])
@pytest.mark.parametrize("bad", [0, VECTOR + 5],
                         ids=["first-vector", "later-vector"])
@pytest.mark.parametrize("failing", [0, 1, 2],
                         ids=["map", "filter", "flat_map"])
def test_udf_error_names_the_step_that_raised(failing, bad, body):
    steps = [
        (kind, make(bad if index == failing else -1), "step-%d" % index)
        for index, (kind, make) in enumerate([
            (STEP_MAP, _fail_at),
            (STEP_FILTER, _keep_or_fail),
            (STEP_FLATMAP, _expand_or_fail),
        ])
    ]
    with pytest.raises(UdfError) as err:
        body(steps)(list(range(2 * VECTOR)))
    assert err.value.operator == "step-%d" % failing
    assert isinstance(err.value.__cause__, ValueError)
    assert str(err.value.original) == "record %d" % bad


@pytest.mark.parametrize("error", [
    SimulatedOutOfMemory("a test", 2, 1),
    UdfError("inner-operator", KeyError("k")),
], ids=["oom", "udf-error"])
def test_engine_errors_from_a_udf_pass_through(error):
    def udf(x):
        raise error

    for body in (FusedPipelineTask, compiled_task):
        with pytest.raises(type(error)) as err:
            body([(STEP_MAP, udf, "outer")])([1])
        assert err.value is error
    with pytest.raises(type(error)) as err:
        CombineTask(lambda a, b: udf(a), "outer")([(1, 1), (1, 2)])
    assert err.value is error


# ----------------------------------------------------------------------
# The one observable change: call order, and which error wins
# ----------------------------------------------------------------------


def test_call_order_is_step_major_within_a_vector():
    calls = []

    def recording(name, result):
        def udf(x):
            calls.append((name, x))
            return result(x)

        return udf

    steps = [
        (STEP_MAP, recording("f", lambda x: x), "f"),
        (STEP_FILTER, recording("g", lambda x: x != 1), "g"),
        (STEP_FLATMAP, recording("h", lambda x: (x, x)), "h"),
        (STEP_MAP, recording("k", lambda x: x), "k"),
    ]
    part = list(range(VECTOR + 2))
    out, _counts, _works = FusedPipelineTask(steps)(part)
    first, second = part[:VECTOR], part[VECTOR:]
    kept = [x for x in first if x != 1]
    assert calls == (
        # Vector 1: every record passes a step, in record order, before
        # any passes the next; the flat_map's expansions run to the end
        # of the chain before vector 2 is pulled.
        [("f", x) for x in first]
        + [("g", x) for x in first]
        + [("h", x) for x in kept]
        + [("k", x) for x in kept for _ in (0, 1)]
        + [("f", x) for x in second]
        + [("g", x) for x in second]
        + [("h", x) for x in second]
        + [("k", x) for x in second for _ in (0, 1)]
    )
    # ...and none of it shows in the output.
    assert out == record_at_a_time(steps, part)[0]


def test_the_earlier_steps_error_wins_within_a_vector():
    # Record 0 fails at step 1, record 1 at step 0.  Record at a time,
    # record 0 got to step 1 first; vector at a time, step 0 sees both
    # records before step 1 sees any.  The generated loop is record at
    # a time too, and answers as the interpreter does all the same.
    steps = [
        (STEP_MAP, _fail_at(1), "step-0"),
        (STEP_MAP, _fail_at(0), "step-1"),
    ]
    with pytest.raises(UdfError) as err:
        record_at_a_time(steps, [0, 1])
    assert err.value.operator == "step-1"
    for body in (FusedPipelineTask, compiled_task):
        with pytest.raises(UdfError) as err:
            body(steps)([0, 1])
        assert err.value.operator == "step-0"
    # Across vectors the earlier *record* still wins.
    part = list(range(2 * VECTOR))
    steps = [
        (STEP_MAP, _fail_at(VECTOR + 1), "step-0"),
        (STEP_MAP, _fail_at(3), "step-1"),
    ]
    for body in (FusedPipelineTask, compiled_task):
        with pytest.raises(UdfError) as err:
            body(steps)(part)
        assert err.value.operator == "step-1"


# ----------------------------------------------------------------------
# A counting guard, not a timing guard
# ----------------------------------------------------------------------


def _engine_calls(fn):
    """Python-level calls into ``repro/`` code while ``fn()`` runs."""
    counted = collections.Counter()

    def profiler(frame, event, _arg):
        if event == "call" and "/repro/" in frame.f_code.co_filename:
            counted[frame.f_code.co_name] += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return counted


def test_engine_calls_are_per_vector_not_per_record():
    steps = build_steps([
        ("add", 1), ("keep-mod", 4), ("add", 2), ("fan-tuple", 1),
    ])
    task = FusedPipelineTask(steps)
    part = list(range(4096))
    # The UDFs live in this file, so what is counted is the engine's
    # own frames: 4096 records x 4 steps under a per-record wrapper, a
    # handful without one.
    calls = _engine_calls(lambda: task(part))
    assert 0 < sum(calls.values()) < 100, calls
    # A batch of one-record partitions finds its vectors' tag runs: a
    # few frames per vector (measured: 4 per input vector), none per
    # record or partition.
    calls = _engine_calls(lambda: task.run([[x] for x in part]))
    assert 0 < sum(calls.values()) < 5 * (len(part) // VECTOR), calls

    keyed = [(x % 64, 1.0) for x in range(4096)]
    combine = CombineTask(lambda a, b: a + b, "sum")
    calls = _engine_calls(lambda: combine(keyed))
    assert 0 < sum(calls.values()) < 100, calls


# ----------------------------------------------------------------------
# Keyed bodies and the driver-side shuffle fabric
# ----------------------------------------------------------------------

Pair = collections.namedtuple("Pair", "key value")


def _plan_error_text(record):
    with pytest.raises(PlanError) as err:
        require_keyed(record)
    return str(err.value)


@pytest.mark.parametrize("bad", [7, [1, 2], (1, 2, 3), "ab"],
                         ids=["unkeyed", "list", "3-tuple", "str"])
def test_combine_rejects_what_require_keyed_rejects(bad):
    task = CombineTask(lambda a, b: a + b, "sum", keyed=False)
    with pytest.raises(PlanError) as err:
        task([(1, 1), bad, (1, 2)])
    assert str(err.value) == _plan_error_text(bad)


def test_combine_accepts_tuple_subclasses_and_credits_work():
    task = CombineTask(lambda a, b: Weighted(a + b, 3), "sum")
    records, work = task([Pair(1, 10), (1, 5), Pair(2, 1), (1, 1)])
    assert records == [(1, 16), (2, 1)]
    assert work == 6


def test_combine_blames_only_the_reducer_on_the_reducer():
    def reducer(a, b):
        raise KeyError("boom")

    with pytest.raises(UdfError) as err:
        CombineTask(reducer, "sum#3")([(1, 1), (1, 2)])
    assert err.value.operator == "sum#3"
    # An unhashable key is not the UDF's doing.
    with pytest.raises(PlanError, match="hashable keys, got \\[\\]"):
        CombineTask(reducer, "sum#3")([([], 1)])


UNHASHABLE = {
    "reduce_by_key": lambda bag: bag.reduce_by_key(_sum),
    "reduce_by_key, unfused": lambda bag: bag.cache().reduce_by_key(_sum),
    "group_by_key": lambda bag: bag.group_by_key(),
    "cogroup": lambda bag: bag.cogroup(bag.context.bag_of([(1, 2)])),
}


@pytest.mark.parametrize("backend", [
    {"backend": "serial"}, {"backend": "process", "num_workers": 2},
], ids=["serial", "process"])
@pytest.mark.parametrize("operator", sorted(UNHASHABLE))
def test_an_unhashable_key_is_a_plan_error(operator, backend):
    with EngineContext(laptop_config(**backend)) as ctx:
        bag = ctx.bag_of(range(6), num_partitions=2).map(lambda x: ([x], 1))
        with pytest.raises(PlanError) as err:
            UNHASHABLE[operator](bag).collect()
    assert str(err.value) == (
        "keyed operator expects hashable keys, got [0]"
    )


@pytest.mark.parametrize("bad", [7, [1, 2], (1, 2, 3)],
                         ids=["unkeyed", "list", "3-tuple"])
def test_a_shuffle_reports_its_first_offending_record(bad):
    data = [(i, i) for i in range(20)] + [bad, "zz"]
    with EngineContext(laptop_config()) as ctx:
        with pytest.raises(PlanError) as err:
            ctx.bag_of(data, num_partitions=1).group_by_key().collect()
    assert str(err.value) == _plan_error_text(bad)


def test_a_shuffle_accepts_tuple_subclasses():
    data = [Pair(i % 3, i) for i in range(9)] + [(0, 9)]
    with EngineContext(laptop_config()) as ctx:
        groups = dict(ctx.bag_of(data).group_by_key().collect())
    assert {k: sorted(v) for k, v in groups.items()} == {
        0: [0, 3, 6, 9], 1: [1, 4, 7], 2: [2, 5, 8],
    }


@pytest.mark.parametrize("n", [1, 3, 8, 40])
@pytest.mark.parametrize("size", [0, 1, 7, 33])
def test_parallelize_slices_round_robin(size, n):
    data = list(range(size))
    want = [[] for _ in range(n)]
    for index, item in enumerate(data):
        want[index % n].append(item)
    got = Parallelize(data, n).build_partitions()
    assert got == want
    assert all(part is not data for part in got)


@pytest.mark.parametrize("side", ["left", "right"])
def test_cross_broadcast_pairs_in_stream_major_order(side):
    part, payload = [1, 2, 3], ["a", "b"]
    want = [
        (item, other) if side == "right" else (other, item)
        for item in part
        for other in payload
    ]
    task = CrossBroadcastTask(payload, side, "cross")
    assert task(part) == want
    assert task([]) == task.empty_result() == []


# ----------------------------------------------------------------------
# Batches: a run of partitions through one body call
# ----------------------------------------------------------------------


#: Partition lengths a batch is drawn from: empties, a record or two
#: (the flattened programs' partitions), and both sides of a vector.
batch_lengths = st.lists(
    st.sampled_from([0, 1, 2, 3, VECTOR - 1, VECTOR + 1]),
    min_size=1, max_size=6,
)


def batch_of(lengths):
    """Consecutive ints cut into partitions of ``lengths``."""
    parts, start = [], 0
    for length in lengths:
        parts.append(list(range(start, start + length)))
        start += length
    return parts


def assert_batch_is_its_calls(task, parts, raisers=1):
    """``task.run(parts)`` is ``[task(p) for p in parts]``: values,
    counts, works and fold work, or the same error.  With more than one
    UDF that can raise, which one reports may differ -- within a vector
    the earlier step's error wins, also across the batch's partitions
    -- but both raise.  An input that is a tuple is the call's
    arguments."""
    before = copy.deepcopy(parts)
    batched = _outcome(task.run, parts)
    alone = _outcome(
        lambda ps: [
            task(*part) if isinstance(part, tuple) else task(part)
            for part in ps
        ],
        parts,
    )
    if alone[0] == "ok" or raisers <= 1:
        assert batched == alone
    else:
        assert batched[0] != "ok"
    assert parts == before


def _failing_step(bad, kind):
    check = _fail_at(bad)
    if kind == STEP_MAP:
        return check
    if kind == STEP_FILTER:
        return lambda x: check(x) % 2
    return lambda x: (check(x), x)


@settings(max_examples=40, deadline=None)
@given(
    specs=chains,
    lengths=batch_lengths,
    raiser=st.one_of(
        st.none(),
        st.tuples(
            st.integers(0, 4),
            st.sampled_from([STEP_MAP, STEP_FILTER, STEP_FLATMAP]),
            st.integers(0, 2 * VECTOR + 8),
        ),
    ),
)
def test_a_batch_of_chains_is_the_calls_it_replaces(specs, lengths, raiser):
    steps = build_steps(specs)
    if raiser is not None:
        at, kind, bad = raiser
        steps.insert(
            min(at, len(steps)), (kind, _failing_step(bad, kind), "raiser")
        )
    parts = batch_of(lengths)
    assert_batch_is_its_calls(FusedPipelineTask(steps), parts)
    if not any("weighted" in operator for _kind, _fn, operator in steps):
        # Every step called from the generated loop.
        assert_batch_is_its_calls(compiled_task(steps), parts)


@settings(max_examples=40, deadline=None)
@given(specs=lowered_specs, lengths=batch_lengths)
def test_a_batch_of_lowered_chains_is_the_calls_it_replaces(specs, lengths):
    # ``ratio`` and ``pair_past`` raise on some records: two of them in
    # a chain may report either.
    steps = build_lowered_steps(specs)
    assume(steps)
    task, reason = plan_compiled_task(steps)
    assert reason is None, reason
    raisers = sum(
        operator.split("#")[0] in ("ratio", "pair_past")
        for _kind, _fn, operator in steps
    )
    parts = batch_of(lengths)
    assert_batch_is_its_calls(task, parts, raisers)
    assert_batch_is_its_calls(FusedPipelineTask(steps), parts, raisers)


@settings(max_examples=40, deadline=None)
@given(
    specs=st.lists(
        step_specs.filter(lambda spec: "weighted" not in spec[0]),
        max_size=3,
    ),
    tail=st.sampled_from(sorted(TAILS)),
    modulus=st.integers(min_value=1, max_value=5),
    reducer=st.sampled_from(sorted(REDUCERS)),
    lengths=batch_lengths,
)
def test_a_batch_of_folding_chains_is_the_calls_it_replaces(
    specs, tail, modulus, reducer, lengths
):
    steps = build_steps(specs)
    if TAILS[tail] is not None:
        kind, factory = TAILS[tail]
        steps.append((kind, factory(modulus), "%s#%d" % (tail, len(steps))))
    assume(steps)
    fn, in_loop = REDUCERS[reducer]
    fold = (fn, "%s#%d" % (reducer, len(steps)))
    parts = batch_of(lengths)
    # The reducer may raise, and so may the fold on a record that is no
    # pair (``unpaired``, ``list``): one UDF at most ahead of the fold.
    for name, body in fold_bodies(steps, fold, in_loop).items():
        assert_batch_is_its_calls(body, parts)


def _keyed_batch(lengths, bad=None):
    """Partitions of ``(key, value)`` pairs with repeated keys, and
    ``bad`` -- a record that is no pair -- at the end of the last."""
    parts = [[(x % 5, x) for x in part] for part in batch_of(lengths)]
    if bad is not None:
        parts[-1] = parts[-1] + [bad]
    return parts


@settings(max_examples=30, deadline=None)
@given(
    lengths=batch_lengths,
    reducer=st.sampled_from(sorted(REDUCERS)),
    keyed=st.booleans(),
    bad=st.sampled_from([None, 7, (1, 2, 3)]),
)
def test_a_batch_of_combines_is_the_calls_it_replaces(
    lengths, reducer, keyed, bad
):
    # ``keyed`` combines trust their input: a non-pair only reaches one
    # that checks.
    parts = _keyed_batch(lengths, None if keyed else bad)
    task = CombineTask(REDUCERS[reducer][0], reducer, keyed=keyed)
    assert_batch_is_its_calls(task, parts)


@settings(max_examples=30, deadline=None)
@given(lengths=batch_lengths, bad=st.sampled_from([None, 7, "ab"]))
def test_a_batch_of_keyed_bodies_is_the_calls_it_replaces(lengths, bad):
    parts = _keyed_batch(lengths, bad)
    table = {0: ["a"], 2: ["b", "c"]}
    for task in (
        GroupBucketTask(1.0, 1.0, 10 ** 6, "g"),
        GroupBucketTask(1.0, 1.0, 3, "g-small"),  # simulated OOM
        BroadcastJoinProbeTask(table, "j"),
    ):
        assert_batch_is_its_calls(task, parts)
    if bad is None:
        pairs = list(zip(parts, reversed(parts)))
        for limit in (10 ** 6, 3):
            assert_batch_is_its_calls(
                CoGroupBucketTask(1.0, 1.0, limit, "c"), pairs
            )
    for side in ("left", "right"):
        assert_batch_is_its_calls(CrossBroadcastTask([1, 2], side, "x"), parts)


def _tag_partition(items, index):
    if index == 3:
        raise KeyError(index)
    return Weighted([(index, len(items))] + items, len(items))


@settings(max_examples=30, deadline=None)
@given(lengths=batch_lengths)
def test_a_batch_of_map_partitions_is_the_calls_it_replaces(lengths):
    task = MapPartitionsTask(_tag_partition, "mp")
    parts = [(part, index) for index, part in enumerate(batch_of(lengths))]
    assert_batch_is_its_calls(task, parts)


def test_a_later_partitions_earlier_step_wins_within_a_batch():
    # Partition 0's record fails at step 1, partition 1's at step 0, and
    # both sit in one vector: step 0 sees both records before step 1
    # sees any, so the batch reports step 0 where the calls report
    # step 1.  The generated loop re-runs the batch through the
    # interpreter and agrees.
    steps = [
        (STEP_MAP, _fail_at(1), "step-0"),
        (STEP_MAP, _fail_at(0), "step-1"),
    ]
    for body in (FusedPipelineTask(steps), compiled_task(steps)):
        with pytest.raises(UdfError) as err:
            body([0])
        assert err.value.operator == "step-1"
        with pytest.raises(UdfError) as err:
            body.run([[0], [1]])
        assert err.value.operator == "step-0"


def test_weighted_work_is_credited_to_its_partition():
    steps = [(STEP_MAP, lambda x: Weighted(x, x), "w"),
             (STEP_FLATMAP, lambda x: Weighted([x] * (x % 3), 1), "f")]
    (first, _c, first_works), (second, _d, second_works) = (
        FusedPipelineTask(steps).run([[1, 2], [3, 4, 5]])
    )
    assert (first, second) == ([1, 2, 2], [4, 5, 5])
    assert first_works == [3, 2] and second_works == [12, 3]
