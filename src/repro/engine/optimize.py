"""The engine's optimizer rules: shuffle elision.

A shuffle's output partitions carry the layout it built, and a narrow
step that keeps every record's key (:func:`keeps_layout`) passes it on.
Each wide node decides its elision from its evaluated inputs' layouts
(:func:`choose_elision`): no pass over the plan runs per job, so a
lineage's materialized prefix is never looked at again.
:func:`plan_shuffle_elisions` predicts the same decisions from the plan
alone (:mod:`repro.analysis.properties`); the engine does not call it.
"""

import ast
from dataclasses import dataclass

from ..udf import facts_for
from . import plan as p

__all__ = [
    "Decision",
    "choose_elision",
    "keeps_layout",
    "plan_auto_caches",
    "plan_shuffle_elisions",
    "udf_preserves_key",
]


@dataclass
class Decision:
    """One recorded optimizer decision (inspectable in tests/benches),
    by the executor or by the lowering phase's Sec. 8 optimizer."""

    kind: str
    choice: str
    num_tags: int
    #: Free-form human-readable context (e.g. which shuffle's layout an
    #: elision reuses); empty for decisions that need none.
    detail: str = ""


def keeps_layout(node):
    """Does the narrow ``node`` keep every record's key, so that its
    output is laid out as its input is?  A filter drops records only;
    a map or flat-map must be proven key-preserving
    (:func:`udf_preserves_key`) or declared so
    (``preserves_partitioning=True``, also the only way for
    ``map_partitions``)."""
    if isinstance(node, p.Filter) or getattr(
        node, "preserves_partitioning", False
    ):
        return True
    return isinstance(node, (p.Map, p.FlatMap)) and udf_preserves_key(
        node.fn, flat=isinstance(node, p.FlatMap)
    ) is True


def _fits(side, num_partitions):
    return side.layout is not None and len(side.partitions) == num_partitions


def choose_elision(node, left, right=None):
    """The shuffle elision the wide ``node`` makes over its evaluated
    inputs (``right`` for a cogroup only), or ``None`` for a full
    shuffle.

    A side *fits* when its partitions carry a layout and are as many as
    ``node`` builds: every key already sits in one partition, which a
    shuffle of ``node``'s width may keep.  Returns ``(choice,
    origin)``, ``origin`` the shuffle whose layout is reused:
    ``"elide"`` for a fitting reduce/group input; for a cogroup
    ``"elide-both"`` when both sides fit with one origin and the same
    assignment (a side cached before its origin ran again on other data
    has another, and is reshuffled), else ``"adopt-left"`` /
    ``"adopt-right"`` for the one side that fits.
    """
    n = node.num_partitions
    left_fits = _fits(left, n)
    if right is None:
        return ("elide", left.layout[0]) if left_fits else None
    right_fits = _fits(right, n)
    if left_fits and right_fits and left.layout[0] is right.layout[0]:
        assignment, other = left.layout[1], right.layout[1]
        if assignment is other or assignment == other:
            return "elide-both", left.layout[0]
        return None
    if left_fits:
        return "adopt-left", left.layout[0]
    if right_fits:
        return "adopt-right", right.layout[0]
    return None


def plan_auto_caches(root):
    """Reused subtrees a ``cache()`` could be inserted on safely.

    Nothing in the engine calls this: it is kept only because the
    wall-clock probes (``benchmarks/wall/probes.py``) time it, and it
    goes when they stop (ROADMAP direction 1(d)).  A node qualifies when:

    * two or more parent edges consume it (``CoGroup(x, x)`` counts
      twice, matching the NPL301 lint),
    * it is not already ``cache()``d,
    * it is not a :class:`~repro.engine.plan.Parallelize` (driver data
      re-splits for free) or a :class:`~repro.engine.plan.Union`
      (``flatten_union_inputs`` rewrites unions structurally at
      bag-construction time, keyed on ``cached``), and
    * every UDF in its subtree is **proven** pure and deterministic by
      :func:`repro.analysis.effects.plan_effects`.  Unknown does not
      qualify: caching trades re-evaluation for replay, which is only
      an equivalence when the subtree provably has no effects for the
      skipped evaluations to skip.

    Returns ``{id(node): node}`` for the qualifying nodes.
    """
    # Lazy import: repro.analysis imports repro.engine, so engine
    # modules must not import the analysis layer at module scope.
    from ..analysis.effects import plan_effects

    consumers = p.consumer_counts(root)
    reports = None
    chosen = {}
    for node in p.iter_nodes_ordered(root):
        if consumers.get(id(node), 0) < 2 or node.cached:
            continue
        if isinstance(node, (p.Parallelize, p.Union)):
            continue
        if reports is None:
            reports = plan_effects(root)
        report = reports.get(id(node))
        if report is None:
            continue
        if report.pure is True and report.deterministic is True:
            chosen[id(node)] = node
    return chosen


def plan_shuffle_elisions(root):
    """The shuffle elisions :func:`choose_elision` is predicted to make
    over ``root``'s plan: ``{id(node): Elision}`` for every wide node
    whose input is provably co-partitioned with the layout it would
    build.

    The prediction of :func:`repro.analysis.properties.infer_properties`,
    which reports it as NPL401 and in ``explain``; it differs from the
    engine only where two cogroup sides carry different runs of one
    shuffle, a fact no plan shows.  Nothing in the engine calls this:
    the wall-clock probes (``benchmarks/wall/probes.py``) time it.
    """
    # Lazy import: repro.analysis imports repro.engine, so engine
    # modules must not import the analysis layer at module scope.
    from ..analysis.properties import infer_properties

    return infer_properties(root).elisions


# ----------------------------------------------------------------------
# UDF key-preservation proof
# ----------------------------------------------------------------------

def udf_preserves_key(fn, flat=False):
    """Prove whether ``fn`` preserves the key slot of keyed records.

    The engine's keyed records are 2-tuples ``(key, value)``.  A map UDF
    preserves partitioning when every record it emits carries the same
    key as its input record.  This is a conservative AST proof:

    Returns:
        ``True`` when every emitted record provably keeps the input
        key, ``False`` when some emitted record provably rewrites it,
        and ``None`` when no proof either way is possible (treated as
        not preserving).
    """
    facts = facts_for(fn)
    if facts is None:
        return None
    flat = bool(flat)
    return facts.derive(
        ("preserves_key", flat),
        lambda facts: _prove_preserves_key(facts, flat),
    )


def _prove_preserves_key(facts, flat):
    if facts.code.co_argcount != 1:
        return None
    node = facts.node
    if node is None:
        return None
    if isinstance(node, ast.Lambda):
        args = node.args
        param = args.args[0].arg if args.args else None
        bodies = [node.body]
    else:
        args = node.args
        if (args.vararg or args.kwarg or args.kwonlyargs
                or getattr(args, "posonlyargs", [])):
            return None
        if len(args.args) != 1:
            return None
        param = args.args[0].arg
        returns = [n for n in ast.walk(node) if isinstance(n, ast.Return)]
        if not returns or any(r.value is None for r in returns):
            return None
        bodies = [r.value for r in returns]
    if param is None or (not isinstance(node, ast.Lambda)
                         and _rebinds_name(node, param)):
        return None
    if isinstance(node, ast.Lambda) and (
            args.vararg or args.kwarg or args.kwonlyargs
            or getattr(args, "posonlyargs", []) or len(args.args) != 1):
        return None
    aliases = set() if isinstance(node, ast.Lambda) else _key_aliases(
        node, param
    )
    classify = _classify_flat if flat else _classify_map
    return _combine(classify(body, param, aliases) for body in bodies)


def _rebinds_name(fndef, name):
    """True when ``name`` is assigned anywhere in the function body."""
    for n in ast.walk(fndef):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
            if n.id == name:
                return True
    return False


def _key_aliases(fndef, param):
    """Names provably bound (exactly once) to the input record's key.

    Recognizes ``k = kv[0]`` and tuple unpacking ``k, v = kv``.  A name
    bound more than once anywhere in the body is not trusted.
    """
    bound_counts = {}
    for n in ast.walk(fndef):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
            bound_counts[n.id] = bound_counts.get(n.id, 0) + 1
    aliases = set()
    for n in ast.walk(fndef):
        if not isinstance(n, ast.Assign) or len(n.targets) != 1:
            continue
        target = n.targets[0]
        if (isinstance(target, ast.Name)
                and _is_key_expr(n.value, param, set())
                and bound_counts.get(target.id) == 1):
            aliases.add(target.id)
        elif (isinstance(target, ast.Tuple) and len(target.elts) == 2
              and isinstance(target.elts[0], ast.Name)
              and isinstance(n.value, ast.Name) and n.value.id == param
              and bound_counts.get(target.elts[0].id) == 1):
            aliases.add(target.elts[0].id)
    return aliases


def _is_key_expr(expr, param, aliases):
    """``kv[0]`` or a trusted alias of it."""
    if isinstance(expr, ast.Name):
        return expr.id in aliases
    return (
        isinstance(expr, ast.Subscript)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == param
        and isinstance(expr.slice, ast.Constant)
        and expr.slice.value == 0
    )


def _references(expr, names):
    for n in ast.walk(expr):
        if isinstance(n, ast.Name) and n.id in names:
            return True
    return False


def _combine(verdicts):
    """All True -> True; any False -> False; else None."""
    result = True
    for verdict in verdicts:
        if verdict is False:
            return False
        if verdict is None:
            result = None
    return result


def _classify_map(expr, param, aliases):
    """Does a map expression emit a record with the input record's key?"""
    if isinstance(expr, ast.IfExp):
        return _combine((
            _classify_map(expr.body, param, aliases),
            _classify_map(expr.orelse, param, aliases),
        ))
    if isinstance(expr, ast.Name):
        if expr.id == param:
            return True  # identity: the record itself
        return None
    if _is_key_expr(expr, param, aliases):
        return False  # emits the bare key (a keys() rewrite)
    if (isinstance(expr, ast.Subscript)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == param
            and isinstance(expr.slice, ast.Constant)):
        return False  # emits a non-key slot (a values() rewrite)
    if isinstance(expr, ast.Tuple) and len(expr.elts) == 2:
        if any(isinstance(e, ast.Starred) for e in expr.elts):
            return None
        first = expr.elts[0]
        if _is_key_expr(first, param, aliases):
            return True
        if (isinstance(first, ast.Subscript)
                and isinstance(first.value, ast.Name)
                and first.value.id == param
                and isinstance(first.slice, ast.Constant)
                and first.slice.value != 0):
            return False  # key rebuilt from a non-key slot
        if _references(first, {param} | aliases):
            return None  # e.g. f(kv[0]), kv[0] + 0, the whole record
        return False  # key built from something unrelated to the input
    return None


def _classify_flat(expr, param, aliases):
    """Does a flat-map expression emit only input-keyed records?"""
    if isinstance(expr, ast.IfExp):
        return _combine((
            _classify_flat(expr.body, param, aliases),
            _classify_flat(expr.orelse, param, aliases),
        ))
    if isinstance(expr, (ast.List, ast.Tuple, ast.Set)):
        if any(isinstance(e, ast.Starred) for e in expr.elts):
            return None
        if not expr.elts:
            return True  # emits nothing
        return _combine(
            _classify_map(e, param, aliases) for e in expr.elts
        )
    if isinstance(expr, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
        shadowed = {param} | aliases
        for comp in expr.generators:
            for n in ast.walk(comp.target):
                if isinstance(n, ast.Name) and n.id in shadowed:
                    return None  # comprehension shadows the record
        return _classify_map(expr.elt, param, aliases)
    return None
