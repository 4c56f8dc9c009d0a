"""Textual code generation for fused elementwise chains.

The interpreted :class:`~repro.engine.runtime.task.FusedPipelineTask`
evaluates a fused map/filter/flat_map chain an operator at a time over
vectors of records: per operator it builds a list of the vector's
results, scans it for :class:`~repro.engine.work.Weighted` wrappers,
and a filter compresses the vector.  Following Flare's approach of
compiling Spark's interpreted operator pipelines to straight-line
code, this module generates Python source for one specialized function
per chain -- a single nested loop with direct UDF calls, a record held
in a local from the first operator to the last, no intermediate
vectors and (proven unnecessary) no ``Weighted`` scan -- compiles it
once, and caches it by the chain's AST fingerprint.

The generated function must be *observationally identical* to the
interpreter, including the cost model's inputs: it returns the same
``(records, counts, works)`` triple, where ``counts[i]`` is the number
of records operator ``i`` processed.  Counts are maintained with one
counter per cardinality-changing step (filters and flat_maps) instead
of one increment per record per operator -- operators between two such
boundaries share the boundary's count.

Fallback rules (the chain stays on the interpreter, with the reason
recorded in an ``Optimizer.Decision``):

* a UDF's purity is refuted or unknown
  (:func:`repro.analysis.effects.analyze_effects` must *prove* it);
* a UDF (or any helper it calls) can produce
  :class:`~repro.engine.work.Weighted` results -- the generated loop
  does per-record work accounting away, so it must be provable that
  there is none to account;
* a UDF has no recoverable source (no AST fingerprint, no cache key).

Compiled functions are cached per process keyed by the chain
fingerprint; the picklable task object
(:class:`~repro.engine.runtime.task.CompiledPipelineTask`) carries
only the source text and the key, so worker processes compile at most
once per distinct chain.
"""

import ast
import hashlib
import threading

from ..udf import facts_for
from .runtime.task import (
    STEP_FILTER,
    STEP_FLATMAP,
    STEP_MAP,
    CompiledPipelineTask,
)
from .work import Weighted

__all__ = [
    "chain_compilability",
    "chain_fingerprint",
    "compile_notes",
    "generate_source",
    "compiled_pipeline_fn",
    "plan_chain_schema",
    "plan_compiled_task",
]

#: Per-process cache of compiled pipeline functions, keyed by chain
#: fingerprint.  Shared by the driver and (after fork/pickle) each
#: worker process builds its own on first use.
_COMPILED = {}
_COMPILED_LOCK = threading.Lock()

_STEP_NAMES = {
    STEP_MAP: "map",
    STEP_FILTER: "filter",
    STEP_FLATMAP: "flat_map",
}


# ----------------------------------------------------------------------
# Gating: which chains may compile
# ----------------------------------------------------------------------


def _mentions_weighted(facts):
    """Can the UDF (or a resolvable helper it calls) produce a
    :class:`Weighted` result?

    Conservative: any syntactic reference to the name ``Weighted``
    (including via attribute access) counts, an unavailable AST counts,
    a helper chain too deep to follow counts, and a resolvable called
    class that subclasses ``Weighted`` counts.  Bare-name calls that do
    not resolve are ignored -- callers only consult this scan after
    purity is *proven*, which already required every effectful call to
    resolve.
    """
    return facts.derive(("weighted",), _scan_weighted, cycle=False, deep=True)


def _scan_weighted(facts):
    if facts.node is None:
        return True
    for node in ast.walk(facts.node):
        if isinstance(node, ast.Name) and node.id == "Weighted":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "Weighted":
            return True
    for name in facts.called_names:
        value = facts.lookup(name)
        if isinstance(value, type) and issubclass(value, Weighted):
            return True
    return any(
        _mentions_weighted(helper) for _name, helper in facts.helpers()
    )


def chain_compilability(steps):
    """``(fingerprint, None)`` when every step may compile, else
    ``(None, reason)`` naming the first step that cannot.

    ``steps`` are ``(kind, fn, operator)`` triples as built by the
    executor (see :class:`~repro.engine.runtime.task.FusedPipelineTask`).
    """
    fingerprints = []
    for kind, fn, operator in steps:
        fingerprint, reason = _udf_compilability(fn)
        if fingerprint is None:
            return None, "%s %s" % (operator, reason)
        fingerprints.append((_STEP_NAMES[kind], fingerprint))
    return chain_fingerprint(fingerprints), None


def _udf_compilability(fn):
    """``(fingerprint, None)`` or ``(None, reason-sans-operator)`` for
    one UDF.  Iterative programs re-evaluate the same chains every
    superstep, so the verdict is kept with the UDF's other facts."""
    def prove(facts):
        # Lazy import: repro.analysis imports repro.engine, so engine
        # modules must not import the analysis layer at module scope.
        from ..analysis.effects import analyze_effects

        report = analyze_effects(fn)
        if report.pure is False:
            return None, "is impure"
        if report.pure is not True:
            return None, "purity unproven"
        if facts is None or _mentions_weighted(facts):
            return None, "may return Weighted"
        if facts.fingerprint is None:
            return None, "has no recoverable source"
        return facts.fingerprint, None

    facts = facts_for(fn)
    if facts is None:
        return prove(None)
    return facts.derive(("compilability",), prove)


def chain_fingerprint(kind_fingerprint_pairs):
    """Stable hex key for a chain of (step kind, UDF fingerprint)."""
    digest = hashlib.sha256()
    for kind, fingerprint in kind_fingerprint_pairs:
        digest.update(("%s:%s\n" % (kind, fingerprint)).encode("utf-8"))
    return digest.hexdigest()[:16]


# ----------------------------------------------------------------------
# Source generation
# ----------------------------------------------------------------------


def generate_source(kinds, name="_pipeline", input_spec=None):
    """Python source of the specialized loop for a chain's step kinds.

    The function takes ``(_part, _udfs)`` and returns
    ``(_out, counts)`` with exactly the per-operator counts the
    interpreter reports: every operator is counted once per record
    *entering* it, so one counter per filter/flat_map boundary
    suffices.  The source depends only on the step-kind sequence; UDFs
    are passed in at call time, which keeps the compiled code object
    free of closure state.

    With ``input_spec`` (a proven ``(kinds, scalar)`` columnar schema
    from :mod:`repro.analysis.schema`), the loop reads
    :class:`~repro.engine.columnar.ColumnarPartition` buffers
    *directly* -- one ``tolist()`` per column, lazily zipped for tuple
    records -- instead of decoding the whole partition to a record
    list at the loop boundary.  The specialization is guarded at
    runtime (shape-checked against the actual partition), so a plain
    list or a differently-shaped partition falls through to ordinary
    iteration and the loop stays value-identical.
    """
    num = len(kinds)
    if num == 0:
        raise ValueError("cannot generate a pipeline with no steps")
    lines = [
        "def %s(_part, _udfs):" % name,
        "    %s = _udfs" % "".join("_f%d, " % i for i in range(num)),
        "    _out = []",
        "    _append = _out.append",
        "    _n = len(_part)",
    ]
    source_var = "_part"
    if input_spec is not None:
        in_kinds, in_scalar = input_spec
        source_var = "_src"
        if in_scalar:
            direct = "_cols[0].tolist()"
        else:
            direct = "zip(%s)" % ", ".join(
                "_cols[%d].tolist()" % j for j in range(len(in_kinds))
            )
        lines += [
            '    _cols = getattr(_part, "columns", None)',
            "    if (_cols is not None and _part.kinds == %r"
            % in_kinds,
            "            and _part.scalar is %r):" % bool(in_scalar),
            "        _src = %s" % direct,
            "    else:",
            "        _src = _part",
        ]
    # A counter only exists where cardinality changes *and* a later
    # operator consumes the changed count.
    counted = [
        i
        for i, kind in enumerate(kinds[:-1])
        if kind in (STEP_FILTER, STEP_FLATMAP)
    ]
    for i in counted:
        lines.append("    _c%d = 0" % i)
    lines.append("    for _v0 in %s:" % source_var)
    indent = 2
    var = 0
    count_exprs = []
    current = "_n"
    for i, kind in enumerate(kinds):
        pad = "    " * indent
        count_exprs.append(current)
        if kind == STEP_MAP:
            lines.append("%s_v%d = _f%d(_v%d)" % (pad, var + 1, i, var))
            var += 1
        elif kind == STEP_FILTER:
            lines.append("%sif not _f%d(_v%d):" % (pad, i, var))
            lines.append("%s    continue" % pad)
            if i in counted:
                lines.append("%s_c%d += 1" % (pad, i))
                current = "_c%d" % i
        elif kind == STEP_FLATMAP:
            lines.append(
                "%sfor _v%d in _f%d(_v%d):" % (pad, var + 1, i, var)
            )
            indent += 1
            var += 1
            if i in counted:
                lines.append("%s_c%d += 1" % ("    " * indent, i))
                current = "_c%d" % i
        else:
            raise ValueError("unknown step kind %r" % (kind,))
    lines.append("%s_append(_v%d)" % ("    " * indent, var))
    lines.append("    return _out, [%s]" % ", ".join(count_exprs))
    return "\n".join(lines) + "\n"


def compiled_pipeline_fn(key, source, name="_pipeline"):
    """The compiled callable for ``source``, cached per process."""
    fn = _COMPILED.get(key)
    if fn is not None:
        return fn
    with _COMPILED_LOCK:
        fn = _COMPILED.get(key)
        if fn is None:
            namespace = {}
            code = compile(source, "<repro.codegen %s>" % key, "exec")
            exec(code, namespace)
            fn = namespace[name]
            _COMPILED[key] = fn
    return fn


def compiled_cache_size():
    """Number of distinct chains compiled in this process."""
    return len(_COMPILED)


def clear_compiled_cache():
    """Drop every cached compiled pipeline (test isolation hook)."""
    with _COMPILED_LOCK:
        _COMPILED.clear()


# ----------------------------------------------------------------------
# Planning entry point (the executor calls this per fused chain)
# ----------------------------------------------------------------------


def plan_compiled_task(steps, tracer=None, schema=None):
    """A :class:`CompiledPipelineTask` for ``steps``, or
    ``(None, reason)`` when the chain must stay interpreted.

    Compilation happens at most once per chain fingerprint per
    process; a cache hit builds the (cheap, picklable) task object
    without touching ``compile``.  On a miss, a ``codegen`` span is
    emitted through ``tracer`` covering source generation and
    compilation.

    ``schema`` (a :class:`repro.analysis.schema.ChainSchema`, supplied
    when ``schema_inference`` is on) switches planning to the
    schema-specialized mode: a *proven* chain input schema generates
    the columnar-direct loop, with the schema spec folded into the
    chain fingerprint so direct and plain variants never share a cache
    slot; any unknown or refuted input verdict falls back to the
    interpreter, with the verdict as the reason.

    Returns ``(task, None)`` or ``(None, reason)``.
    """
    key, reason = chain_compilability(steps)
    if key is None:
        return None, reason
    input_spec = None
    if schema is not None:
        if schema.input_verdict is not True:
            verdict = (
                "refuted" if schema.input_verdict is False else "unknown"
            )
            return None, "input schema %s (%r)" % (
                verdict, schema.input_schema,
            )
        input_spec = schema.input_spec
        # Fold the schema spec into the key: the direct source text
        # differs from the plain variant, so they must never share a
        # compiled-cache slot.
        key = chain_fingerprint([("schema", "%s|%s" % (
            key, schema.spec_token(),
        ))])
    kinds = [kind for kind, _fn, _operator in steps]
    if key in _COMPILED:
        source = generate_source(kinds, input_spec=input_spec)
        return CompiledPipelineTask(steps, source, key), None
    operator = "+".join(operator for _kind, _fn, operator in steps)
    if tracer is not None and tracer.enabled:
        from ..observe.events import KIND_CODEGEN

        with tracer.span(
            "codegen:%s" % operator,
            KIND_CODEGEN,
            chain=operator,
            steps=len(steps),
            key=key,
        ) as args:
            source = generate_source(kinds, input_spec=input_spec)
            compiled_pipeline_fn(key, source)
            args["source_lines"] = source.count("\n")
    else:
        source = generate_source(kinds, input_spec=input_spec)
        compiled_pipeline_fn(key, source)
    return CompiledPipelineTask(steps, source, key), None


def plan_chain_schema(chain):
    """The :class:`~repro.analysis.schema.ChainSchema` for a fused
    chain of plan nodes.

    Lazy import: ``repro.analysis`` imports ``repro.engine``, so
    engine modules must not import the analysis layer at module scope.
    """
    from ..analysis.schema import chain_schema

    return chain_schema(chain)


# ----------------------------------------------------------------------
# Explain support
# ----------------------------------------------------------------------


def compile_notes(root):
    """Per-node notes for ``Bag.explain(compile=True)``.

    Each fused chain's top node is annotated ``compiled=yes(<key>)``
    or ``compiled=no(<reason>)``, mirroring what the executor would
    decide with ``compile_pipelines`` on.
    """
    from . import dag
    from . import plan as p

    notes = {}
    for unit in dag.plan_units(root):
        if unit.chain is None:
            continue
        steps = []
        for op in unit.chain:
            if isinstance(op, p.Map):
                kind = STEP_MAP
            elif isinstance(op, p.Filter):
                kind = STEP_FILTER
            else:
                kind = STEP_FLATMAP
            name = op.name
            if op.label:
                name += "[%s]" % op.label
            steps.append((kind, op.fn, name))
        key, reason = chain_compilability(steps)
        if key is not None:
            notes[id(unit.node)] = "compiled=yes(%s)" % key
        else:
            notes[id(unit.node)] = "compiled=no(%s)" % reason
    return notes
