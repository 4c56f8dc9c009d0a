"""NPL2xx closure-serializability pass and strict decoration mode."""

import functools
import threading

import pytest

from repro.analysis import analyze_closure, analyze_udf
from repro.errors import AnalysisError
from repro.lang import nested_udf


def _capture(value):
    def udf(x):
        return (value, x)

    return udf


def codes(diags):
    return [d.code for d in diags]


def test_serializable_closure_is_clean():
    assert analyze_closure(_capture(42)) == []
    assert analyze_closure(_capture([1, 2, 3])) == []


def test_no_closure_is_clean():
    def free(x):
        return x + 1

    assert analyze_closure(free) == []


def test_unpicklable_capture_is_npl201():
    diags = analyze_closure(_capture(threading.Lock()))
    assert codes(diags) == ["NPL201"]
    diag = diags[0]
    assert diag.severity == "error"
    assert "'value'" in diag.message
    assert diag.file.endswith("test_closure_lint.py")
    assert diag.line > 0


def test_engine_context_capture_is_npl202(ctx):
    diags = analyze_closure(_capture(ctx))
    assert "NPL202" in codes(diags)
    assert "inner-parallel" in diags[codes(diags).index("NPL202")].message


def test_bag_capture_is_npl202(ctx):
    bag = ctx.bag_of([1, 2, 3])
    diags = analyze_closure(_capture(bag))
    assert "NPL202" in codes(diags)


def test_decorated_udf_is_unwrapped_to_original():
    lock = threading.Lock()

    @nested_udf
    def udf(x):
        y = lock.locked()
        return x + y

    diags = analyze_closure(udf)
    assert codes(diags) == ["NPL201"]
    assert "'lock'" in diags[0].message


def _scale(x, factor):
    return x * factor


def test_partial_capture_is_unwrapped_to_npl201():
    fn = functools.partial(_scale, factor=threading.Lock())
    diags = analyze_closure(fn)
    assert "NPL201" in codes(diags)
    message = diags[codes(diags).index("NPL201")].message
    assert "partial keyword 'factor'" in message
    assert "'_scale'" in message


def test_partial_over_engine_bag_is_npl202(ctx):
    bag = ctx.bag_of([1, 2, 3])
    fn = functools.partial(_scale, factor=bag)
    diags = analyze_closure(fn)
    assert "NPL202" in codes(diags)
    message = diags[codes(diags).index("NPL202")].message
    assert "partial keyword 'factor'" in message
    assert "inner-parallel" in message


def test_clean_partial_is_clean():
    assert analyze_closure(functools.partial(_scale, factor=2)) == []


class _LockHolder:
    def __init__(self):
        self.lock = threading.Lock()

    def work(self, x):
        return x


def test_bound_method_instance_is_npl201():
    diags = analyze_closure(_LockHolder().work)
    assert "NPL201" in codes(diags)
    assert "bound instance (_LockHolder)" in diags[0].message


def test_bound_method_of_engine_context_is_npl202(ctx):
    diags = analyze_closure(ctx.bag_of)
    assert "NPL202" in codes(diags)
    message = diags[codes(diags).index("NPL202")].message
    assert "bound instance of EngineContext" in message


def test_location_override():
    diags = analyze_closure(
        _capture(threading.Lock()), filename="over.py", line=7
    )
    assert diags[0].file == "over.py"
    assert diags[0].line == 7


# ---------------------------------------------------------------------------
# analyze_udf combines both families; strict mode enforces at decoration.
# ---------------------------------------------------------------------------


def test_analyze_udf_reports_both_families():
    lock = threading.Lock()

    def udf(x):
        del x  # NPL123 warning
        return lock

    found = codes(analyze_udf(udf))
    assert "NPL123" in found
    assert "NPL201" in found


def test_strict_raises_analysis_error_on_unserializable_capture():
    lock = threading.Lock()

    with pytest.raises(AnalysisError) as err:

        @nested_udf(strict=True)
        def udf(x):
            n = 0
            while n < 2:
                n = n + lock.locked()
            return n

    assert "NPL201" in [d.code for d in err.value.diagnostics]


def test_strict_warns_on_captured_mutation_but_decorates():
    seen = set()

    with pytest.warns(UserWarning) as record:

        @nested_udf(strict=True)
        def udf(x):
            seen.add(x)
            return x

    # The closure pass reports the captured mutation, the effects pass
    # the impurity it makes.
    messages = [str(warning.message) for warning in record]
    assert len(messages) == 2
    assert any("NPL120" in message for message in messages)
    assert any("NPL501" in message for message in messages)
    assert udf(3) == 3
    assert seen == {3}


def test_strict_clean_udf_decorates_silently(recwarn):
    @nested_udf(strict=True)
    def udf(x):
        total = 0
        while total < x:
            total = total + 1
        return total

    assert udf(4) == 4
    assert not [w for w in recwarn.list if "NPL" in str(w.message)]


def test_default_decoration_skips_closure_pass():
    lock = threading.Lock()

    @nested_udf
    def udf(x):
        y = lock.locked()
        return x + y

    assert udf(1) == 1
