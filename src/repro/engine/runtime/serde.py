"""Closure serialization for shipping tasks to worker processes.

The engine's UDFs are overwhelmingly lambdas and nested closures (the
flattening machinery in :mod:`repro.core` builds them by the dozen), and
the standard library pickler refuses all of them: it serializes
functions by qualified name only.  This module provides ``dumps`` /
``loads`` that handle them:

* When **cloudpickle** is installed it is used outright -- it serializes
  arbitrary closures, cells, and dynamically created classes.
* Otherwise a built-in fallback pickler kicks in: functions that the
  default by-name protocol cannot handle are reduced to their marshaled
  code object plus defaults and closure-cell values (serialized
  recursively, so a lambda closing over another lambda round-trips).
  On the worker, the function is rebuilt against the globals of its
  defining module, which the worker imports by name.

The fallback intentionally does **not** capture module globals by
value: engine workers import the same code the driver runs, so global
names resolve to the same objects.  Objects that neither path can
serialize (locks, sockets, generators) surface as
:class:`~repro.errors.SerializationError` naming the operator through
:func:`ensure_serializable`.
"""

import importlib
import io
import marshal
import pickle
import sys
import types

from ...errors import SerializationError
from ...udf import closure_bindings, unwrap

try:  # pragma: no cover - exercised via the CI job that installs it
    import cloudpickle
except ImportError:  # pragma: no cover
    cloudpickle = None


def dumps(obj, force_fallback=False):
    """Serialize ``obj`` (closures included) to bytes.

    Args:
        obj: Any task payload -- typically ``(callable, args)`` tuples.
        force_fallback: Skip cloudpickle even when installed (used by
            tests to exercise the built-in function pickler).
    """
    if cloudpickle is not None and not force_fallback:
        return cloudpickle.dumps(obj)
    buffer = io.BytesIO()
    _FunctionPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    return buffer.getvalue()


def loads(payload):
    """Inverse of :func:`dumps` (both pickler outputs load with this)."""
    return pickle.loads(payload)


def ensure_serializable(obj, operator, what="closure"):
    """Serialize ``obj`` or raise a diagnostic naming the operator.

    Returns the serialized bytes on success, so pre-flight checks do
    not pay for serialization twice.  On failure the error message
    includes the per-capture findings of :func:`check_serializable`, so
    the launch-time error and the static NPL2xx analysis pass describe
    the same root cause in the same words.
    """
    try:
        return dumps(obj)
    except Exception as exc:
        probe = getattr(obj, "task", obj)
        details = check_serializable(probe)
        detail_text = ("; ".join(details)) if details else ""
        raise SerializationError(
            "%s for operator %r cannot be serialized for the process "
            "backend: %s: %s (use picklable UDFs, or "
            "backend='serial')%s"
            % (
                what,
                operator,
                type(exc).__name__,
                exc,
                (" [%s]" % detail_text) if detail_text else "",
            )
        ) from exc


def check_serializable(fn):
    """Probe whether ``fn`` (typically a closure) can be shipped.

    Returns a list of human-readable problem descriptions -- empty when
    the object serializes cleanly.  When the top-level dump fails, the
    probe drills into the function's closure cells and defaults to name
    exactly which captured values cannot cross a process boundary.
    ``functools.partial`` objects and bound methods are unwrapped first:
    their frozen arguments and bound instances ship with the task just
    like closure cells do, so the report names the offending *value*
    (``partial keyword 'conn'``), not the opaque wrapper.

    This is the single source of truth for "can this closure be
    serialized": the scheduler's pre-flight error path
    (:func:`ensure_serializable`) and the static analysis NPL2xx pass
    (:mod:`repro.analysis.closure_lint`) both call it, so the two can
    never disagree.
    """
    try:
        dumps(fn)
        return []
    except Exception as exc:
        top_level = "%s: %s" % (type(exc).__name__, exc)
    problems = _callable_problems(fn)
    if not problems:
        problems.append(top_level)
    return problems


def _callable_problems(fn):
    """Per-capture problem descriptions for one callable: what its
    wrappers bind, its closure cells, and its defaults."""
    inner, bindings = unwrap(fn)
    bindings += [
        ("captured variable %r" % name, value)
        for name, value in closure_bindings(inner).items()
    ]
    bindings += [
        ("default argument %d" % index, default)
        for index, default in enumerate(
            getattr(inner, "__defaults__", None) or ()
        )
    ]
    problems = []
    for description, value in bindings:
        problem = _probe_value(value)
        if problem is not None:
            problems.append(
                "%s (%s) is not serializable: %s"
                % (description, type(value).__name__, problem)
            )
    return problems


def _probe_value(value):
    """Error description if ``value`` fails to serialize, else None."""
    try:
        dumps(value)
        return None
    except Exception as exc:
        return "%s: %s" % (type(exc).__name__, exc)


# ----------------------------------------------------------------------
# Fallback function pickling (no cloudpickle)
# ----------------------------------------------------------------------


class _FunctionPickler(pickle.Pickler):
    """Standard pickler plus by-value serialization of plain functions.

    Functions that pickle's by-name protocol can already handle
    (importable top-level defs) go through the default path; everything
    else -- lambdas, nested defs, functions whose module attribute does
    not resolve back to them -- is reduced by value.
    """

    def reducer_override(self, obj):
        if isinstance(obj, types.FunctionType):
            if not _importable_by_name(obj):
                return _reduce_function(obj)
        return NotImplemented


def _importable_by_name(fn):
    module = sys.modules.get(getattr(fn, "__module__", None))
    if module is None:
        return False
    found = module
    for part in fn.__qualname__.split("."):
        if part == "<locals>":
            return False
        found = getattr(found, part, None)
        if found is None:
            return False
    return found is fn


def _reduce_function(fn):
    closure_values = None
    if fn.__closure__:
        closure_values = tuple(cell.cell_contents for cell in fn.__closure__)
    state = (
        marshal.dumps(fn.__code__),
        fn.__module__,
        fn.__name__,
        fn.__qualname__,
        fn.__defaults__,
        fn.__kwdefaults__,
        closure_values,
    )
    return (_rebuild_function, state)


def _rebuild_function(code_bytes, module_name, name, qualname, defaults,
                      kwdefaults, closure_values):
    code = marshal.loads(code_bytes)
    module_globals = _module_globals(module_name)
    closure = None
    if closure_values is not None:
        closure = tuple(
            types.CellType(value) for value in closure_values
        )
    fn = types.FunctionType(code, module_globals, name, defaults, closure)
    fn.__qualname__ = qualname
    fn.__kwdefaults__ = kwdefaults
    fn.__module__ = module_name
    return fn


def _module_globals(module_name):
    """Globals to rebuild a shipped function against.

    Workers run the same code base, so importing the defining module
    gives the same global bindings the driver had.  A module that does
    not exist on the worker (interactive sessions) degrades to a
    builtins-only namespace: the function still works unless it touches
    module globals.
    """
    module = sys.modules.get(module_name)
    if module is None and module_name not in (None, "__main__"):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
    if module is not None:
        return module.__dict__
    return {"__builtins__": __builtins__}
