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

Which chains are handed to this module at all is the executor's
decision, taken from what it already holds: a chain is planned once
``steps x input records`` of its task set reaches
:data:`COMPILE_MIN_RECORD_STEPS`, because planning has a fixed price
per chain that only enough record-steps pay back.  Smaller chains never
get here.

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
from . import dag
from . import plan as p
from .runtime.task import (
    STEP_FILTER,
    STEP_FLATMAP,
    STEP_MAP,
    CompiledPipelineTask,
)
from .work import Weighted

__all__ = [
    "COMPILE_MIN_RECORD_STEPS",
    "chain_compilability",
    "chain_fingerprint",
    "chain_steps",
    "compile_notes",
    "generate_source",
    "compiled_pipeline_fn",
    "plan_compiled_task",
]

#: Record-steps (chain length x records entering the chain, over the
#: whole task set) from which the executor plans a chain for
#: compilation; below it the chain is interpreted with no analysis at
#: all.  The generated loop saves about 0.049 us per record-step on
#: ``benchmarks/wall``'s chain; planning costs about 35 us per chain on
#: a warm cache and about 250 us when a step's closure is fresh (lifted
#: UDFs are rebuilt per op), so the break-even is near 5k record-steps.
#: Swept at 4096 / 16384 / 65536: the flattened ``nested_serial`` op
#: plans 8 / 0 / 0 of its 40 chains, the 262,144-record-step chain
#: compiles at all three, and no wall-clock difference between them
#: resolves (table in ``docs/architecture.md``, "Flag decisions").
COMPILE_MIN_RECORD_STEPS = 16384

#: Per-process cache of compiled pipelines, ``{chain fingerprint:
#: (function, source)}``.  The driver fills it while planning; a worker
#: process fills its own from the source a task carries.
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


def generate_source(kinds, name="_pipeline"):
    """Python source of the specialized loop for a chain's step kinds.

    The function takes ``(_part, _udfs)`` and returns
    ``(_out, counts)`` with exactly the per-operator counts the
    interpreter reports: every operator is counted once per record
    *entering* it, so one counter per filter/flat_map boundary
    suffices.  The source depends only on the step-kind sequence; UDFs
    are passed in at call time, which keeps the compiled code object
    free of closure state.
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
    # A counter only exists where cardinality changes *and* a later
    # operator consumes the changed count.
    counted = [
        i
        for i, kind in enumerate(kinds[:-1])
        if kind in (STEP_FILTER, STEP_FLATMAP)
    ]
    for i in counted:
        lines.append("    _c%d = 0" % i)
    lines.append("    for _v0 in _part:")
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
    entry = _COMPILED.get(key)
    if entry is None:
        with _COMPILED_LOCK:
            entry = _COMPILED.get(key)
            if entry is None:
                namespace = {}
                code = compile(source, "<repro.codegen %s>" % key, "exec")
                exec(code, namespace)
                entry = _COMPILED[key] = (namespace[name], source)
    return entry[0]


def compiled_cache_size():
    """Number of distinct chains compiled in this process."""
    return len(_COMPILED)


def clear_compiled_cache():
    """Drop every cached compiled pipeline (test isolation hook)."""
    with _COMPILED_LOCK:
        _COMPILED.clear()


# ----------------------------------------------------------------------
# Planning entry points (the executor builds steps per fused chain and
# plans a task per chain that reaches COMPILE_MIN_RECORD_STEPS)
# ----------------------------------------------------------------------


_STEP_KINDS = {
    p.Map: STEP_MAP,
    p.Filter: STEP_FILTER,
    p.FlatMap: STEP_FLATMAP,
}


def chain_steps(chain):
    """A fused chain of plan nodes as the ``(kind, fn, operator)``
    triples both chain bodies carry."""
    return [(_STEP_KINDS[type(op)], op.fn, p.origin(op)) for op in chain]


def plan_compiled_task(steps, tracer=None):
    """A :class:`CompiledPipelineTask` for ``steps``, or
    ``(None, reason)`` when the chain must stay interpreted.

    Compilation happens at most once per chain fingerprint per
    process; a cache hit builds the (cheap, picklable) task object
    from the cached source without generating or compiling anything.
    On a miss, a ``codegen`` span is emitted through ``tracer``
    covering source generation and compilation.

    Returns ``(task, None)`` or ``(None, reason)``.
    """
    key, reason = chain_compilability(steps)
    if key is None:
        return None, reason
    entry = _COMPILED.get(key)
    if entry is not None:
        return CompiledPipelineTask(steps, entry[1], key), None
    kinds = [kind for kind, _fn, _operator in steps]
    if tracer is not None and tracer.enabled:
        from ..observe.events import KIND_CODEGEN

        operator = "+".join(operator for _kind, _fn, operator in steps)
        with tracer.span(
            "codegen:%s" % operator,
            KIND_CODEGEN,
            chain=operator,
            steps=len(steps),
            key=key,
        ) as args:
            source = generate_source(kinds)
            compiled_pipeline_fn(key, source)
            args["source_lines"] = source.count("\n")
    else:
        source = generate_source(kinds)
        compiled_pipeline_fn(key, source)
    return CompiledPipelineTask(steps, source, key), None


# ----------------------------------------------------------------------
# Explain support
# ----------------------------------------------------------------------


def compile_notes(root):
    """Per-node notes for ``Bag.explain(compile=True)``.

    Each fused chain's top node is annotated ``compiled=yes(<key>)``
    or ``compiled=no(<reason>)``: the compile gate's verdict, which
    the executor acts on once the chain's task set reaches
    :data:`COMPILE_MIN_RECORD_STEPS`.
    """
    notes = {}
    for unit in dag.plan_units(root):
        if unit.chain is None:
            continue
        key, reason = chain_compilability(chain_steps(unit.chain))
        if key is not None:
            notes[id(unit.node)] = "compiled=yes(%s)" % key
        else:
            notes[id(unit.node)] = "compiled=no(%s)" % reason
    return notes
