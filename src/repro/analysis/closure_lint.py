"""NPL2xx: closure serializability, checked at decoration/import time.

The PR 2 task runtime serializes each task closure when a stage is
dispatched on the process backend; an unserializable capture surfaces
there as a :class:`~repro.errors.SerializationError` *mid-job*.  This
pass resolves a UDF's captured names up front and probes every captured
value with the runtime's own serde layer
(:func:`repro.engine.runtime.serde.check_serializable`), so the same
failure is reported at import time with the variable's name.

A second check (NPL202) catches captures that may even serialize but are
semantically wrong to ship: engine runtime objects such as an
:class:`~repro.engine.context.EngineContext` or a
:class:`~repro.engine.bag.Bag`.  A UDF holding a context would launch
jobs from inside a job -- the inner-parallel antipattern the paper's
flattening exists to remove.

Both checks unwrap ``functools.partial`` objects and bound methods
before inspecting captures: a partial's frozen arguments and a method's
bound instance ship with the task exactly like closure cells do, so the
diagnostics name the offending value rather than the opaque wrapper
(which used to hide the real capture entirely -- a bare ``partial`` has
no ``__code__``, and the pass silently skipped it).
"""

from ..engine.runtime.serde import check_serializable
from ..udf import closure_bindings, unwrap
from .diagnostics import make_diagnostic


def analyze_closure(fn, filename=None, line=None):
    """Closure diagnostics for one function; returns Diagnostics.

    Args:
        fn: The function to check.  A ``@nested_udf``-decorated function
            is unwrapped to its ``original`` automatically.
        filename / line: Override the reported location (defaults to the
            function's defining file and first line).
    """
    inner, bindings = unwrap(fn)
    code = getattr(inner, "__code__", None)
    if code is None and not bindings:
        return []
    bindings += [
        ("captured variable %r" % name, value)
        for name, value in closure_bindings(inner).items()
    ]
    if filename is None:
        filename = code.co_filename if code is not None else "<unknown>"
    if line is None:
        line = code.co_firstlineno if code is not None else 1
    name = getattr(inner, "__name__", None) or "<callable>"
    diags = []
    for desc, value in bindings:
        engine_kind = _engine_object_kind(value)
        if engine_kind is not None:
            diags.append(
                make_diagnostic(
                    "NPL202",
                    "UDF %r captures %s (%s of %s); engine runtime objects "
                    "must not be shipped into tasks (launching jobs "
                    "from inside a job is the inner-parallel "
                    "antipattern)"
                    % (name, engine_kind, desc, type(value).__name__),
                    file=filename,
                    line=line,
                    col=1,
                )
            )
    # What ships is the pre-rewrite function, wrappers included.
    for problem in check_serializable(getattr(fn, "original", fn)):
        diags.append(
            make_diagnostic(
                "NPL201",
                "UDF %r: %s -- the process backend would fail at task "
                "launch; fix the capture or use backend='serial'"
                % (name, problem),
                file=filename,
                line=line,
                col=1,
            )
        )
    return diags


def _engine_object_kind(value):
    """A description when ``value`` is an engine runtime object."""
    # Imported lazily so a closure check never forces engine submodules
    # that the caller has not already loaded.
    from ..engine.bag import Bag
    from ..engine.context import EngineContext
    from ..engine.runtime.scheduler import TaskScheduler

    if isinstance(value, EngineContext):
        return "the engine context"
    if isinstance(value, Bag):
        return "a Bag"
    if isinstance(value, TaskScheduler):
        return "the task scheduler"
    return None
