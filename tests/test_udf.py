"""The UDF-facts leaf (:mod:`repro.udf`) and the cache key behind it.

Three groups: the leaf's own contract (one peel, one cell walk, one
source recovery, one bounded thread-safe cache, one order-independent
recursion guard); regressions for verdicts that used to leak between
functions sharing a code object (each checked in both analysis orders
inside one process); and builtin shadowing.
"""

import builtins
import functools
import inspect
import random
import sys
import threading
import types
from collections import Counter

import pytest

from repro import udf
from repro.analysis import (
    analyze_effects,
    analyze_source,
    fingerprint_function,
    infer_udf_schema,
)
from tests.programs import library_programs, run_configs
from repro.analysis.schema import INT, STR
from repro.engine import EngineContext, codegen, laptop_config
from repro.engine.codegen import clear_compiled_cache
from repro.engine.optimize import plan_auto_caches
from repro.lang import nested_udf
from repro.udf import (
    CAPACITY,
    DATA,
    cache_info,
    clear_cache,
    closure_bindings,
    facts_for,
    unwrap,
)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    clear_compiled_cache()
    yield
    clear_cache()
    clear_compiled_cache()


def pure_helper(x):
    return x + 1


def noisy_helper(x):
    return x + random.random()


def int_helper(x):
    return x + 1


def str_helper(x):
    return "v%d" % x


def make(h):
    return lambda x: h(x)


BOTH_ORDERS = pytest.mark.parametrize("flip", [False, True])


def in_order(flip, first, second):
    """Evaluate two thunks in the asked order; results in given order."""
    if flip:
        b = second()
        return first(), b
    return first(), second()


# ----------------------------------------------------------------------
# The leaf: peel, cells, source, resolver
# ----------------------------------------------------------------------


class _Holder:
    def method(self, x):
        return x


def test_unwrap_peels_every_wrapper_and_reports_their_bindings():
    holder = _Holder()
    wrapped = functools.partial(
        functools.partial(holder.method, 1), flag=True
    )
    inner, bindings = unwrap(wrapped)
    assert inner is _Holder.method
    assert bindings == [  # functools flattens nested partials itself
        ("partial argument 0", 1),
        ("partial keyword 'flag'", True),
        ("bound instance", holder),
    ]
    assert unwrap(pure_helper) == (pure_helper, [])
    assert unwrap(len) == (len, [])


def test_unwrap_peels_nested_udf_rewrites():
    @nested_udf
    def udf_(x):
        return x + 1

    assert unwrap(udf_)[0] is udf_.original
    assert unwrap(functools.partial(udf_))[0] is udf_.original


def test_closure_bindings_walks_cells_by_name():
    data = [1, 2]
    fn = (lambda h, d: (lambda x: h(x) + len(d)))(pure_helper, data)
    assert closure_bindings(fn) == {"h": pure_helper, "d": data}
    assert closure_bindings(pure_helper) == {}
    assert closure_bindings(len) == {}


def test_facts_locate_a_def_in_its_file():
    facts = facts_for(pure_helper)
    assert facts.name == "pure_helper"
    assert facts.node.name == "pure_helper"
    assert facts.filename == __file__
    first_line = inspect.getsourcelines(pure_helper)[1]
    assert facts.node.lineno + facts.line_offset == first_line
    assert facts.col_offset == 0
    assert facts.called_names == ()


def test_facts_for_non_functions_is_none():
    assert facts_for(len) is None
    assert facts_for(_Holder) is None
    assert facts_for(functools.partial(len)) is None


def test_lookup_resolves_closure_then_globals_then_builtins():
    facts = facts_for(make(pure_helper))
    assert facts.lookup("h") is pure_helper
    assert facts.lookup("noisy_helper") is noisy_helper
    assert facts.lookup("len") is len
    assert facts.lookup("no_such_name") is None
    assert facts.called_names == ("h",)
    assert [name for name, _ in facts.helpers()] == ["h"]
    assert facts.helpers()[0][1] is facts_for(pure_helper)


def test_captured_data_is_not_retained():
    rows = list(range(1000))
    facts = facts_for((lambda d: (lambda x: x + len(d)))(rows))
    assert facts.lookup("d") is DATA
    assert sys.getrefcount(rows) == 2  # `rows` and the call's argument


def test_source_is_read_by_code_object_not_through_wrapped():
    def logged(fn):
        @functools.wraps(fn)
        def wrapper(x):
            print("calling")
            return fn(x)
        return wrapper

    report = analyze_effects(logged(pure_helper))
    assert report.io_free is False
    assert facts_for(logged(pure_helper)).node.name == "wrapper"


# ----------------------------------------------------------------------
# Cache key: same code object, different resolution environment
# ----------------------------------------------------------------------


@BOTH_ORDERS
def test_effect_verdicts_follow_the_captured_helper(flip):
    pure, noisy = in_order(
        flip,
        lambda: analyze_effects(make(pure_helper)),
        lambda: analyze_effects(make(noisy_helper)),
    )
    assert pure.summary() == "pure det io-free"
    assert noisy.deterministic is False
    assert pure is not noisy


@BOTH_ORDERS
def test_schema_follows_the_captured_helper(flip):
    as_int, as_str = in_order(
        flip,
        lambda: infer_udf_schema(make(int_helper), [INT]),
        lambda: infer_udf_schema(make(str_helper), [INT]),
    )
    assert (as_int, as_str) == (INT, STR)


def _auto_cached(helper):
    with EngineContext(laptop_config()) as ctx:
        shared = ctx.bag_of(list(range(32)), num_partitions=4).map(
            make(helper)
        )
        chosen = plan_auto_caches(shared.union(shared.map(pure_helper)).node)
        return [node is shared.node for node in chosen.values()]


@BOTH_ORDERS
def test_auto_cache_never_trusts_an_earlier_plans_verdict(flip):
    pure, noisy = in_order(
        flip,
        lambda: _auto_cached(pure_helper),
        lambda: _auto_cached(noisy_helper),
    )
    assert pure == [True]
    assert noisy == []


@BOTH_ORDERS
def test_compile_decisions_do_not_depend_on_earlier_programs(
    flip, monkeypatch
):
    programs = dict(library_programs())
    monkeypatch.setattr(codegen, "COMPILE_MIN_RECORD_STEPS", 0)
    config = laptop_config()

    def compiled(*names):
        clear_cache()
        clear_compiled_cache()
        for name in names:
            (run,) = run_configs(programs[name], [config], name)
        return Counter({
            key: count for key, count in run.decisions.items()
            if key.startswith("compiled-pipeline/")
        })

    fresh, after = in_order(
        flip,
        lambda: compiled("matrix-row-norms"),
        lambda: compiled("kmeans-nested-grouped", "matrix-row-norms"),
    )
    assert fresh and fresh == after


def test_recreated_closures_share_one_entry():
    first, second = make(pure_helper), make(pure_helper)
    report = analyze_effects(first)
    after_first = cache_info()
    assert facts_for(second) is facts_for(first)
    assert analyze_effects(second) is report  # one scan
    assert cache_info().parses == after_first.parses == 2  # lambda, helper
    assert analyze_effects(make(noisy_helper)) is not report
    assert cache_info().parses == 3  # noisy_helper; the lambda is shared


def test_globals_are_part_of_the_environment():
    twin = types.FunctionType(
        pure_helper.__code__, {"__builtins__": builtins}
    )
    assert facts_for(twin) is not facts_for(pure_helper)
    assert facts_for(twin).node is facts_for(pure_helper).node


# ----------------------------------------------------------------------
# Builtin shadowing
# ----------------------------------------------------------------------


def abs(x):  # noqa: A001 -- shadows the builtin on purpose
    return x + random.random()


def _calls_abs(x):
    return abs(x)


def test_a_shadowed_builtin_is_analyzed_as_the_function_it_is():
    assert analyze_effects(_calls_abs).deterministic is False
    unshadowed = types.FunctionType(
        _calls_abs.__code__, {"__builtins__": builtins}
    )
    assert analyze_effects(unshadowed).summary() == "pure det io-free"
    assert fingerprint_function(_calls_abs) != fingerprint_function(
        unshadowed
    )
    assert fingerprint_function(len) is None


def test_static_pass_sees_a_module_level_shadow():
    shadowed = (
        "import random\n"
        "def abs(x):\n"
        "    return x + random.random()\n"
        "@nested_udf\n"
        "def f(x):\n"
        "    return abs(x)\n"
    )
    assert [d.code for d in analyze_source(shadowed)] == ["NPL502"]
    plain = "@nested_udf\ndef f(x):\n    return abs(x)\n"
    assert analyze_source(plain) == []


# ----------------------------------------------------------------------
# One recursion guard: cycles, depth, and no order dependence
# ----------------------------------------------------------------------


def _ping(n):
    print(n)
    return _pong(n - 1) if n else 0


def _pong(n):
    return _ping(n - 1) if n else 0


@BOTH_ORDERS
def test_mutual_recursion_answers_the_same_in_either_order(flip):
    ping, pong = in_order(
        flip,
        lambda: (analyze_effects(_ping).io_free,
                 fingerprint_function(_ping)),
        lambda: (analyze_effects(_pong).io_free,
                 fingerprint_function(_pong)),
    )
    assert ping[0] is False
    assert pong[0] is False  # _pong reaches _ping's print
    clear_cache()
    assert fingerprint_function(_ping) == ping[1]
    clear_cache()
    assert fingerprint_function(_pong) == pong[1]


def _level5(x):
    return x


def _level4(x):
    return _level5(x)


def _level3(x):
    return _level4(x)


def _level2(x):
    return _level3(x)


def _level1(x):
    return _level2(x)


def _level0(x):
    return _level1(x)


@BOTH_ORDERS
def test_depth_limit_is_measured_from_the_root_asked_about(flip):
    deep, shallow = in_order(
        flip,
        lambda: analyze_effects(_level0),
        lambda: analyze_effects(_level1),
    )
    assert deep.pure is None  # _level5 is one level too far
    assert any("depth limit" in r.message for r in deep.reasons)
    assert shallow.summary() == "pure det io-free"


# ----------------------------------------------------------------------
# Bounded, least-recently-used, thread-safe
# ----------------------------------------------------------------------


def test_ten_thousand_lambdas_stay_within_capacity():
    for i in range(10_000):
        analyze_effects(eval("lambda x: x + %d" % i))
        assert cache_info().entries <= CAPACITY
    assert cache_info().entries == CAPACITY


def test_eviction_is_least_recently_used_first():
    hot = eval("lambda x: 'hot'")
    cold = eval("lambda x: 'cold'")
    facts_for(hot)
    facts_for(cold)
    for i in range(CAPACITY):
        facts_for(eval("lambda x: %d" % i))
        facts_for(hot)
    before = cache_info()
    facts_for(hot)
    assert cache_info().hits == before.hits + 1
    facts_for(cold)
    assert cache_info().parses == before.parses + 1


def test_clear_cache_zeroes_everything():
    facts_for(pure_helper)
    facts_for(pure_helper)
    assert cache_info() == (2, 1, 1, 1)
    clear_cache()
    assert cache_info() == (0, 0, 0, 0)


def test_eight_threads_agree_with_one():
    def verdicts():
        fns = [make(pure_helper), make(noisy_helper), make(int_helper),
               make(str_helper), _ping, _level0, _calls_abs]
        return [
            (analyze_effects(fn).summary(), fingerprint_function(fn),
             repr(infer_udf_schema(fn, [INT])))
            for fn in fns
        ]

    expected = verdicts()
    clear_cache()
    results, errors = [], []

    def worker():
        try:
            for _ in range(20):
                results.append(verdicts())
        except Exception as exc:  # pragma: no cover - the failure path
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(results) == 160
    assert all(result == expected for result in results)


# ----------------------------------------------------------------------
# Parse counts: one per code object, none on a warm second run
# ----------------------------------------------------------------------


def test_a_second_run_parses_nothing(monkeypatch):
    read = []
    real = inspect.getsourcelines

    def counting(code):
        read.append(code)
        return real(code)

    monkeypatch.setattr(udf.inspect, "getsourcelines", counting)
    program = dict(library_programs())["avg-distances-nested"]
    monkeypatch.setattr(codegen, "COMPILE_MIN_RECORD_STEPS", 0)
    config = laptop_config()
    run_configs(program, [config])
    first = list(read)
    assert first and len(first) == len(set(map(id, first)))
    assert cache_info().parses == len(first)
    run_configs(program, [config])
    assert read == first
