"""Textual code generation for fused elementwise chains.

The interpreted :class:`~repro.engine.runtime.task.FusedPipelineTask`
evaluates a fused map/filter/flat_map chain an operator at a time over
vectors of records: per operator it builds a list of the vector's
results, scans it for :class:`~repro.engine.work.Weighted` wrappers,
and a filter compresses the vector.  Following Flare's approach of
compiling Spark's interpreted operator pipelines *through* the operator
boundary to straight-line code, this module generates Python source for
one specialized function per chain -- a single nested loop, a record
held in locals from the first operator to the last, no intermediate
vectors and (proven unnecessary) no ``Weighted`` scan -- compiles it
once, and caches it under a key that determines the text.

Inside the loop a UDF is either *lowered* or *called*
(:func:`udf_lowering`).  A plain one-parameter function whose body is
one expression is substituted for its call: its parameter becomes the
loop's current local, and every other name it reads becomes a hygienic
local whose value the task fetches from that function's own cells,
globals or builtins when it binds, in each process -- never part of the
text.  A lowered map that builds a tuple for a lowered step that only
reads ``param[<constant>]`` keeps the elements in locals, and the tuple
exists only where something needs it whole.  Every other step (several
statements, defaults, ``partial``, bound method, a comprehension, ...)
keeps ``_vN = _fN(_v)``.  A profile of a compiled chain therefore shows
no frame for a lowered UDF: its time is the loop's own.

The generated function must be *observationally identical* to the
interpreter, including the cost model's inputs: its task returns the
same ``(records, count, works)`` triple, where ``count`` is the records
the chain's operators processed together.  The count is one counter
per partition, moved only where cardinality changes (filters and
flat_maps) -- by every operator up to the next such boundary -- instead
of once per record per operator.

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

Compiled functions are cached per process by the chain's key (per step:
kind, AST fingerprint, lowered or called); the picklable task object
(:class:`~repro.engine.runtime.task.CompiledPipelineTask`) carries
only the source text and the key, so worker processes compile at most
once per distinct chain.
"""

import ast
import collections
import copy
import functools
import hashlib
import threading
import types

from ..udf import closure_bindings, facts_for, resolve
from . import dag
from . import plan as p
from .runtime.task import (
    STEP_FILTER,
    STEP_FLATMAP,
    STEP_MAP,
    CompiledPipelineTask,
    require_keyed,
)
from .work import Weighted

__all__ = [
    "COMPILED_CAPACITY",
    "COMPILE_MIN_RECORD_STEPS",
    "chain_compilability",
    "chain_fingerprint",
    "chain_steps",
    "compile_notes",
    "generate_source",
    "compiled_pipeline",
    "lowering_note",
    "plan_compiled_task",
    "udf_lowering",
]

#: Record-steps (chain length x records entering the chain, over the
#: whole task set) from which the executor plans a chain for
#: compilation; below it the chain is interpreted with no analysis at
#: all.  Measured with lowering on: the generated loop saves about
#: 0.10 us per record-step where every step lowers (0.148 -> 0.045 us on
#: a 4096-record partition of a 2-step chain), and about 0.8 us per
#: task whatever it holds (1.24 -> 0.43 us per one-record partition of
#: that chain in a batch of 128; both bodies take a batch of
#: partitions per call, so the per-call cost is paid per batch).
#: Planning costs about 38 us per chain on a warm cache, about 200 us
#: per step whose closure captures a fresh callable (lifted UDFs are
#: rebuilt per op), and about 1.3 ms once per distinct chain and
#: process to generate and compile; so a 3-step chain of fresh closures
#: breaks even at 6k-10k record-steps on the record term alone, and
#: earlier when spread over many partitions.  Swept on the batched
#: tree at 4096 / 2048 / 1024 / 512, 10 alternating rounds of the
#: flattened ``nested_serial`` op: 6 / 8 / 9 / 9 of its chains compile
#: and ``op_wall_s_p50`` reads 0.0628 / 0.0646 / 0.0645 / 0.0590 s;
#: 512 against 4096 again, 20 rounds, 0.0625 vs 0.0654 s, faster in
#: only 14 -- unresolved, so the constant stays (tables in
#: ``docs/architecture.md``, "Flag decisions").
COMPILE_MIN_RECORD_STEPS = 4096

#: Distinct chains the per-process cache holds: past this, the chain
#: used least recently is dropped, and compiled again if it returns.
#: A long-lived process (the serve daemon) meets ever new chains; no
#: workload of ``benchmarks/wall`` runs more distinct chains than this.
COMPILED_CAPACITY = 256

#: Per-process cache of compiled pipelines, ``{chain key: Compiled}``
#: in least- to most-recently-used order, at most
#: :data:`COMPILED_CAPACITY` of them.  The driver fills it while
#: planning; a worker process fills its own from the source a task
#: carries.  Guarded by ``_COMPILED_LOCK``: a hit reorders it.
_COMPILED = collections.OrderedDict()
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
    """``(key, None)`` when every step may compile, else
    ``(None, reason)`` naming the first step that cannot.

    ``steps`` are ``(kind, fn, operator)`` triples as built by the
    executor (see :class:`~repro.engine.runtime.task.FusedPipelineTask`).
    The key hashes, per step, its kind, its UDF's AST fingerprint and
    whether the UDF is lowered into the loop or called: together they
    determine the generated source.
    """
    key, _lowerings, _tail, reason = _plan_chain(steps)
    return key, reason


def _plan_chain(steps, fold=None):
    """``(key, lowerings, tail, None)`` or ``(None, None, None,
    reason)``; ``lowerings[i]`` is step ``i``'s :class:`Lowering`, or
    ``None`` where the generated loop keeps the call.

    ``tail`` is how the loop ends (:func:`generate_source`'s ``fold``)
    for a chain whose task folds its output with the reducer
    ``fold[0]``: the reducer's :class:`Lowering`, ``True`` where the
    loop calls it, and ``None`` -- the loop outputs records and the
    task folds them afterwards -- when there is no fold or the reducer
    fails the gate every step has to pass.  A reducer never keeps a
    chain from compiling; one the loop folds with is part of the key.
    """
    parts = []
    lowerings = []
    for kind, fn, operator in steps:
        facts = facts_for(fn)
        fingerprint, reason = _udf_compilability(fn, facts)
        if fingerprint is None:
            return None, None, None, "%s %s" % (operator, reason)
        lowering, _kept = udf_lowering(fn, facts)
        parts.append((_STEP_NAMES[kind], fingerprint, lowering is not None))
        lowerings.append(lowering)
    tail = None
    if fold is not None:
        fingerprint, tail, _reason = _plan_fold(fold[0])
        if tail is not None:
            parts.append(("fold", fingerprint, tail is not True))
    return chain_fingerprint(parts), lowerings, tail, None


def _plan_fold(fn):
    """``(fingerprint, tail, reason)`` for the reducer ``fn``: ``tail``
    as in :func:`_plan_chain`, and why it is not a :class:`Lowering` --
    the gate's reason (``tail`` is ``None``) or the reason the loop
    keeps the call (``tail`` is ``True``)."""
    facts = facts_for(fn)
    fingerprint, reason = _udf_compilability(fn, facts)
    if fingerprint is None:
        return None, None, reason
    lowering, reason = udf_lowering(fn, facts, arity=2)
    return fingerprint, lowering or True, reason


def _udf_compilability(fn, facts):
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

    if facts is None:
        return prove(None)
    return facts.derive(("compilability",), prove)


def chain_fingerprint(parts):
    """Stable hex key for a chain of ``(step kind, UDF fingerprint,
    lowered?)`` triples."""
    digest = hashlib.sha256()
    for kind, fingerprint, lowered in parts:
        digest.update(
            ("%s:%s:%s\n" % (
                kind, fingerprint, "lowered" if lowered else "call"
            )).encode("utf-8")
        )
    return digest.hexdigest()[:16]


# ----------------------------------------------------------------------
# Lowering: which UDF bodies are substituted into the loop
# ----------------------------------------------------------------------


#: A UDF the generator may substitute for its call: the body is the one
#: expression ``expr`` over the parameters ``params`` (one for a step,
#: two for a reducer) and the free ``names``, each of which resolves.
#: ``expr`` is the UDF's shared AST: read-only, the generator rewrites
#: a copy.
Lowering = collections.namedtuple("Lowering", "params expr names")


#: Expression nodes that open a scope of their own (their names would
#: become cells of the generated function) or that bind or suspend.
_NOT_LOWERED = {
    ast.Lambda: "nested lambda",
    ast.ListComp: "comprehension",
    ast.SetComp: "comprehension",
    ast.DictComp: "comprehension",
    ast.GeneratorExp: "generator expression",
    ast.NamedExpr: "assignment expression",
    ast.Yield: "yield",
    ast.YieldFrom: "yield",
    ast.Await: "await",
}


def udf_lowering(fn, facts=None, arity=1):
    """``(Lowering, None)`` when ``fn``'s body can stand in the
    generated loop in place of a call to it, else ``(None, reason)``.

    Lowered: a plain function (no ``partial``, bound method or
    ``@nested_udf`` rewrite -- their call is not their body) of exactly
    ``arity`` parameters (one for a step, two for a ``reduce_by_key``'s
    reducer), no defaults, whose body is one expression (a lambda,
    or a ``def`` of one ``return``, docstring aside) that opens no
    nested scope and binds nothing, and whose every free name resolves
    (:func:`repro.udf.resolve`) today.  The verdict is kept with the
    UDF's facts, whose key covers which cells are filled; values are
    read from the function itself when a task binds, never from here.
    """
    if not isinstance(fn, types.FunctionType):
        if isinstance(fn, functools.partial):
            return None, "partial"
        if isinstance(fn, types.MethodType):
            return None, "bound method"
        return None, "not a plain function"
    if hasattr(fn, "original"):
        return None, "rewritten by @nested_udf"
    if facts is None:
        facts = facts_for(fn)
    return facts.derive(
        ("lowering", arity), lambda facts: _lower(fn, facts.node, arity)
    )


def _lower(fn, node, arity):
    if isinstance(node, ast.Lambda):
        expr = node.body
    elif isinstance(node, ast.FunctionDef):
        body = node.body[1:] if ast.get_docstring(node) else node.body
        if len(body) != 1:
            return None, "%d statements" % len(body)
        if not isinstance(body[0], ast.Return) or body[0].value is None:
            return None, "no return expression"
        expr = body[0].value
    else:
        return None, "no single-expression source"
    args = node.args
    if args.defaults or any(args.kw_defaults):
        return None, "default argument"
    if (
        len(args.posonlyargs) + len(args.args) != arity
        or args.vararg or args.kwonlyargs or args.kwarg
    ):
        return None, "not %s" % (
            "one plain parameter" if arity == 1
            else "%d plain parameters" % arity
        )
    params = tuple(arg.arg for arg in args.posonlyargs + args.args)
    names = []
    for sub in ast.walk(expr):
        reason = _NOT_LOWERED.get(type(sub))
        if reason is not None:
            return None, reason
        if isinstance(sub, ast.Name):
            name = sub.id
            if name not in params and name not in names:
                names.append(name)
        elif isinstance(sub, ast.Attribute):
            name = sub.attr
        else:
            continue
        if name.startswith("__") and not name.endswith("__"):
            # Compiled inside a class body the name was mangled.
            return None, "private name %s" % name
    # The node was found by position; lower only what the code agrees
    # with, and only names the call would find too.
    code = fn.__code__
    if code.co_varnames[:arity] != params:
        return None, "source does not match code"
    cells = closure_bindings(fn)
    for name in names:
        if name not in code.co_names and name not in cells:
            return None, "source does not match code"
        try:
            resolve(fn, name)
        except NameError:
            return None, "unresolved name %s" % name
    return Lowering(params, expr, tuple(names)), None


def lowering_note(task):
    """What the generator did with a planned chain's UDFs, for the
    ``compiled-pipeline`` decision and ``explain(compile=True)``:
    ``lowered k/n``, ``fields m`` when ``m`` maps keep their tuple's
    elements in locals, then ``<operator>: <reason>`` per kept call,
    then -- for a chain that folds -- ``fold lowered`` or ``fold
    called: <reason>``."""
    kept = []
    for _kind, fn, operator in task.steps:
        lowering, reason = udf_lowering(fn)
        if lowering is None:
            kept.append("%s: %s" % (operator, reason))
    num = len(task.steps)
    note = "lowered %d/%d" % (num - len(kept), num)
    fields = compiled_pipeline(task.key, task.source).fields
    if fields:
        note += ", fields %d" % len(fields)
    if task.fold is not None:
        reason = _plan_fold(task.fold[0])[2]
        kept.append(
            "fold lowered" if reason is None else "fold called: %s" % reason
        )
    return "; ".join([note] + kept)


# ----------------------------------------------------------------------
# Source generation
# ----------------------------------------------------------------------


class _Value:
    """The record the loop holds between two steps: ``name`` is the
    local for the whole value, ``fields`` -- for a tuple display kept
    apart -- one local per element, and ``whole`` says whether a line
    assigning ``name`` has been emitted yet."""

    __slots__ = ("name", "fields", "whole")

    def __init__(self, name, fields=None):
        self.name = name
        self.fields = fields
        self.whole = fields is None


def _field_read(node, param, arity):
    """The element index when ``node`` is ``param[<int constant>]``
    within a tuple of ``arity`` elements, else ``None``."""
    if (
        isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id == param
        and isinstance(node.slice, ast.Constant)
        and type(node.slice.value) is int
        and 0 <= node.slice.value < arity
    ):
        return node.slice.value
    return None


class _Substitute(ast.NodeTransformer):
    """Rewrite (a copy of) a lowered body into the loop's locals: each
    parameter becomes what ``params`` maps it to -- a :class:`_Value`
    (its local, or a field's local where the body reads ``param[k]`` of
    a tuple kept apart) or an expression node to stand in its place --
    and every other name the hygienic local ``prefix + name``.  No name
    of the UDF's survives, so nothing it is called can capture a
    generated local.  ``whole`` records whether a :class:`_Value` was
    read other than by field.
    """

    def __init__(self, params, prefix):
        self.params = params
        self.prefix = prefix
        self.whole = False

    def visit_Subscript(self, node):
        value = node.value
        if isinstance(value, ast.Name):
            fields = getattr(self.params.get(value.id), "fields", None)
            field = _field_read(node, value.id, len(fields or ()))
            if field is not None:
                return ast.Name(fields[field], ast.Load())
        return self.generic_visit(node)

    def visit_Name(self, node):
        value = self.params.get(node.id)
        if value is None:
            return ast.Name(self.prefix + node.id, ast.Load())
        if isinstance(value, ast.AST):
            return value
        self.whole = True
        return ast.Name(value.name, ast.Load())


def _reads_only_fields(lowering, arity):
    """Does the lowered body read its parameter, and only as
    ``param[k]`` with a constant ``0 <= k < arity``?"""
    (param,) = lowering.params
    reads = fields = 0
    for node in ast.walk(lowering.expr):
        if isinstance(node, ast.Name) and node.id == param:
            reads += 1
        elif _field_read(node, param, arity) is not None:
            fields += 1
    return reads == fields > 0


def generate_source(kinds, lowerings=(), name="_pipeline", fold=None):
    """Python source of the specialized loop for a chain.

    ``lowerings[i]`` is step ``i``'s :class:`Lowering` or ``None``
    (also when ``lowerings`` is shorter than ``kinds``).  The function
    takes ``(_parts, _udfs, _env)`` -- a batch of partitions, which it
    loops over itself, so a batch is one Python call -- and returns one
    ``(_out, _c)`` per partition, with exactly the count the interpreter
    reports: every operator is counted once per record *entering* it,
    so ``_c`` starts at ``len(_part)`` times the operators that see the
    whole partition and grows at each filter/flat_map boundary a later
    operator sees, by the operators up to the next one.

    A step without a lowering calls its UDF, ``_udfs[i]``.  A lowered
    step's expression stands in the loop with every name rewritten
    (:class:`_Substitute`); what its free names evaluate to arrives in
    ``_env``, which the task fills per process in the order the
    module-level ``_ENV`` lists them, ``(step index, name)`` each -- no
    value is ever part of the text.  A lowered map whose body is a
    tuple display, followed by a lowered step that reads it only as
    ``param[<constant>]``, assigns one local per element (all of them,
    in display order) and the tuple is built only where something needs
    the whole value -- a kept call, any other use of the parameter, the
    output -- so a record a filter drops never allocates one.  ``_FIELDS``
    lists those maps' step indices.

    ``fold`` makes the loop the map-side combine of the
    ``reduce_by_key`` above the chain as well: instead of appending
    each output record it folds it into the dict ``_acc`` -- ``if _k in
    _acc: _acc[_k] = <reduction> else: _acc[_k] = _x`` -- and returns
    ``list(_acc.items())`` for ``_out``.  ``fold`` is the reducer's
    two-parameter :class:`Lowering`, whose expression then stands where
    ``<reduction>`` does (the accumulator's parameter read as
    ``_acc[_k]``), or ``True`` to call the reducer, ``_udfs[len(kinds)]``.
    The fold reads a last map's tuple display of two elements as two
    fields, so no pair is built; any other record is checked to be a
    pair (``_require_keyed``, which the compiled module is given) and
    taken apart.  ``_FOLD`` says ``"lowered"``, ``"called"`` or
    ``None``.  What makes the dict raise -- an unhashable key -- is the
    interpreter's to report, like every other failure of the loop.
    """
    num = len(kinds)
    if num == 0:
        raise ValueError("cannot generate a pipeline with no steps")
    lowerings = list(lowerings) + [None] * (num - len(lowerings))
    # The count moves where cardinality changes *and* a later operator
    # sees the change: by the operators up to the next such boundary.
    counted = [
        i
        for i, kind in enumerate(kinds[:-1])
        if kind in (STEP_FILTER, STEP_FLATMAP)
    ]
    bounds = counted + [num - 1]
    seen_by = dict(zip(counted, map(int.__sub__, bounds[1:], counted)))
    env = []
    scalarised = []
    lines = ["        for _v0 in _part:"]
    indent = 3
    value = _Value("_v0")

    def whole():
        """The local holding the whole current value, built first if
        it only exists as fields so far."""
        if not value.whole:
            lines.append("%s%s = (%s,)" % (
                "    " * indent, value.name, ", ".join(value.fields)
            ))
            value.whole = True
        return value.name

    def read_by_field(i, arity):
        """Does what takes step ``i - 1``'s tuple of ``arity`` elements
        -- step ``i``, or the fold -- only read it element by element?"""
        if i == num:
            return fold is not None and arity == 2
        return lowerings[i] is not None and _reads_only_fields(
            lowerings[i], arity
        )

    for i, kind in enumerate(kinds):
        if kind not in _STEP_NAMES:
            raise ValueError("unknown step kind %r" % (kind,))
        lowering = lowerings[i]
        result = "_v%d" % (i + 1)
        if lowering is None:
            expr = None
            text = "_f%d(%s)" % (i, whole())
        else:
            rewrite = _Substitute({lowering.params[0]: value}, "_g%d_" % i)
            expr = rewrite.visit(copy.deepcopy(lowering.expr))
            if rewrite.whole:
                whole()
            env.extend((i, free) for free in lowering.names)
            text = ast.unparse(expr)
            if kind != STEP_MAP:
                text = "(%s)" % text  # ``not a if c else b`` binds wrong
        pad = "    " * indent
        if kind == STEP_MAP:
            if (
                isinstance(expr, ast.Tuple)
                and not any(isinstance(e, ast.Starred) for e in expr.elts)
                and read_by_field(i + 1, len(expr.elts))
            ):
                scalarised.append(i)
                fields = []
                for k, element in enumerate(expr.elts):
                    if isinstance(element, ast.Name):
                        # Already a local of this loop, each assigned
                        # in one place: the field is that local.
                        fields.append(element.id)
                        continue
                    fields.append("%s_%d" % (result, k))
                    lines.append("%s%s = %s" % (
                        pad, fields[-1], ast.unparse(element)
                    ))
                value = _Value(result, fields)
            else:
                lines.append("%s%s = %s" % (pad, result, text))
                value = _Value(result)
        elif kind == STEP_FILTER:
            lines.append("%sif not %s:" % (pad, text))
            lines.append("%s    continue" % pad)
        else:
            lines.append("%sfor %s in %s:" % (pad, result, text))
            indent += 1
            value = _Value(result)
        if i in seen_by:
            lines.append("%s_c += %d" % ("    " * indent, seen_by[i]))
    pad = "    " * indent
    if fold is None:
        if value.whole:
            output = value.name
        else:
            output = "(%s,)" % ", ".join(value.fields)
        lines.append("%s_append(%s)" % (pad, output))
        lines.append("        _push((_out, _c))")
    else:
        if value.fields is not None and len(value.fields) == 2:
            key, item = value.fields
        else:
            key, item = "_k", "_x"
            pair = whole()
            lines.extend([
                "%sif %s.__class__ is not tuple or len(%s) != 2:"
                % (pad, pair, pair),
                "%s    _require_keyed(%s)" % (pad, pair),
                "%s_k, _x = %s" % (pad, pair),
            ])
        slot = "_acc[%s]" % key
        lines.append("%sif %s in _acc:" % (pad, key))
        if fold is True:
            reduction = "_r(%s, %s)" % (slot, item)
        else:
            # The accumulator is read where the body reads it -- nothing
            # in a lowered body can write ``_acc`` -- and only once.
            into, other = fold.params
            reads = sum(
                isinstance(sub, ast.Name) and sub.id == into
                for sub in ast.walk(fold.expr)
            )
            if reads > 1:
                lines.append("%s    _a = %s" % (pad, slot))
            rewrite = _Substitute(
                {
                    into: ast.parse(
                        "_a" if reads > 1 else slot, mode="eval"
                    ).body,
                    other: ast.Name(item, ast.Load()),
                },
                "_g%d_" % num,
            )
            reduction = ast.unparse(
                rewrite.visit(copy.deepcopy(fold.expr))
            )
            env.extend((num, free) for free in fold.names)
        lines.extend([
            "%s    %s = %s" % (pad, slot, reduction),
            "%selse:" % pad,
            "%s    %s = %s" % (pad, slot, item),
            "        _push((list(_acc.items()), _c))",
        ])
    lines.append("    return _results")
    head = [
        "_ENV = %r" % (tuple(env),),
        "_FIELDS = %r" % (tuple(scalarised),),
        "_FOLD = %r" % (
            None if fold is None
            else "called" if fold is True else "lowered",
        ),
        "def %s(_parts, _udfs, _env):" % name,
    ]
    head.extend(
        "    _f%d = _udfs[%d]" % (i, i)
        for i in range(num) if lowerings[i] is None
    )
    if fold is True:
        head.append("    _r = _udfs[%d]" % num)
    if env:
        head.append("    %s = _env" % "".join(
            "_g%d_%s, " % pair for pair in env
        ))
    head.extend([
        "    _results = []",
        "    _push = _results.append",
        "    for _part in _parts:",
    ])
    if fold is None:
        head.extend(["        _out = []", "        _append = _out.append"])
    else:
        head.append("        _acc = {}")
    head.append("        _c = len(_part)%s" % (
        " * %d" % (bounds[0] + 1) if bounds[0] else ""
    ))
    return "\n".join(head + lines) + "\n"


#: A compiled chain: the loop function, the text it was compiled from,
#: and the text's three constants (see :func:`generate_source`).
Compiled = collections.namedtuple("Compiled", "fn source env fields fold")


def _cached_pipeline(key):
    """The cached :class:`Compiled` entry for ``key``, now the most
    recently used, or ``None``."""
    with _COMPILED_LOCK:
        entry = _COMPILED.get(key)
        if entry is not None:
            _COMPILED.move_to_end(key)
        return entry


def compiled_pipeline(key, source, name="_pipeline"):
    """The :class:`Compiled` entry for ``source``, cached per process."""
    entry = _cached_pipeline(key)
    if entry is None:
        with _COMPILED_LOCK:
            entry = _COMPILED.get(key)
            if entry is None:
                namespace = {"_require_keyed": require_keyed}
                code = compile(source, "<repro.codegen %s>" % key, "exec")
                exec(code, namespace)
                entry = _COMPILED[key] = Compiled(
                    namespace[name], source, namespace["_ENV"],
                    namespace["_FIELDS"], namespace["_FOLD"],
                )
                if len(_COMPILED) > COMPILED_CAPACITY:
                    _COMPILED.popitem(last=False)
    return entry


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


def plan_compiled_task(steps, tracer=None, fold=None):
    """A :class:`CompiledPipelineTask` for ``steps`` -- with the tail
    ``fold=(reducer, operator)`` when the chain's task is the map-side
    combine of a ``reduce_by_key`` too -- or ``(None, reason)`` when
    the chain must stay interpreted.

    Compilation happens at most once per chain key per process; a
    cache hit builds the (cheap, picklable) task object from the
    cached source without generating or compiling anything.  On a
    miss, a ``codegen`` span is emitted through ``tracer`` covering
    source generation and compilation.

    Returns ``(task, None)`` or ``(None, reason)``.
    """
    key, lowerings, tail, reason = _plan_chain(steps, fold)
    if key is None:
        return None, reason
    entry = _cached_pipeline(key)
    if entry is not None:
        return CompiledPipelineTask(steps, entry.source, key, fold), None
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
            source = generate_source(kinds, lowerings, fold=tail)
            compiled_pipeline(key, source)
            args["source_lines"] = source.count("\n")
    else:
        source = generate_source(kinds, lowerings, fold=tail)
        compiled_pipeline(key, source)
    return CompiledPipelineTask(steps, source, key, fold), None


# ----------------------------------------------------------------------
# Explain support
# ----------------------------------------------------------------------


def compile_notes(root):
    """Per-node notes for ``Bag.explain(compile=True)``.

    Each fused chain's top node is annotated ``compiled=yes(<key>;
    <lowering note>)`` or ``compiled=no(<reason>)``: the compile gate's
    verdict, which the executor acts on once the chain's task set
    reaches :data:`COMPILE_MIN_RECORD_STEPS`, and what the generated
    loop does with each UDF (:func:`lowering_note`).
    """
    notes = {}
    for unit in dag.plan_units(root):
        if unit.chain is None:
            continue
        task, reason = plan_compiled_task(
            chain_steps(unit.chain), fold=unit.fold
        )
        if task is not None:
            note = "compiled=yes(%s; %s)" % (task.key, lowering_note(task))
        else:
            note = "compiled=no(%s)" % reason
        notes[id(unit.chain[-1])] = note
    return notes
