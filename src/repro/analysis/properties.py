"""Plan-property inference: partitioning, key preservation, cardinality.

This module is an abstract interpretation over :mod:`repro.engine.plan`
DAGs.  For every node it infers:

* **Partitioning** -- whether the node's output is provably
  hash-partitioned on the record key (first tuple slot) into a known
  number of partitions, and *which shuffle produced that layout*.
* **Key preservation** -- whether a ``Map``/``FlatMap``/``MapPartitions``
  UDF provably never rewrites the key slot (an AST proof, see
  :func:`udf_preserves_key`).
* **Record bounds** -- static cardinality bounds extending
  :func:`repro.engine.plan.static_record_count` with upper bounds
  through filters, shuffles and joins.

The engine's shuffles place keys with a *balanced* assignment built from
runtime key counts (:func:`repro.engine.partitioner
.build_balanced_assignment`), not a pure hash of the key.  Two
independent shuffles with the same partition count therefore do **not**
co-partition identically; co-partitioning is only provable when two
plan edges trace back to the *same* shuffle node.  A
:class:`Partitioning` consequently carries the identity of its origin
shuffle node; at runtime the executor carries the concrete assignment
a run of that node produced with the partitions laid out by it.

The inference powers three consumers:

* the executor's shuffle-elision pass (:mod:`repro.engine.optimize`),
* the NPL4xx plan diagnostics (:mod:`repro.analysis.plan_lint`),
* ``Bag.explain(properties=True)`` annotations
  (:func:`partitioning_notes`).

Import direction: this module imports :mod:`repro.engine.plan` only.
The engine reaches back into it lazily (from inside functions) to avoid
an import cycle.
"""

import ast

from ..engine import plan as p
from ..udf import facts_for, function_ast

__all__ = [
    "HASH",
    "NONE",
    "Partitioning",
    "Elision",
    "RecordBound",
    "PlanProperties",
    "infer_properties",
    "partitioning_notes",
    "udf_preserves_key",
    "function_ast",
]

#: Output is hash-partitioned on the record key (first tuple slot).
HASH = "hash"
#: No partitioning is provable for the output.
NONE = "none"


class Partitioning:
    """The partitioning property inferred for one plan node's output.

    Attributes:
        kind: :data:`HASH` or :data:`NONE`.
        num_partitions: Partition count of the layout (HASH only).
        origin: The shuffle node whose runtime assignment defines the
            layout (HASH only).  Two HASH properties describe the same
            physical layout iff their origins are the same node.
        blame: For NONE: the node that *destroyed* a provable hash
            partitioning (a key-rewriting map, a coalesce, a union), or
            ``None`` when there was nothing to destroy.
        reason: For NONE with a blame: why the partitioning was lost --
            ``"rewrites-key"`` (UDF provably rewrites the key slot),
            ``"unproven"`` (UDF could not be proven key-preserving),
            ``"coalesce"``, ``"union"``.
        lost: For NONE with a blame: the HASH partitioning that was
            lost.
    """

    __slots__ = ("kind", "num_partitions", "origin", "blame", "reason", "lost")

    def __init__(self, kind, num_partitions=0, origin=None, blame=None,
                 reason="", lost=None):
        self.kind = kind
        self.num_partitions = num_partitions
        self.origin = origin
        self.blame = blame
        self.reason = reason
        self.lost = lost

    @classmethod
    def hashed(cls, num_partitions, origin):
        return cls(HASH, num_partitions=num_partitions, origin=origin)

    @classmethod
    def unknown(cls, blame=None, reason="", lost=None):
        return cls(NONE, blame=blame, reason=reason, lost=lost)

    def __repr__(self):
        if self.kind == HASH:
            return "Partitioning(hash, parts=%d)" % self.num_partitions
        if self.blame is not None:
            return "Partitioning(none, %s)" % self.reason
        return "Partitioning(none)"


class Elision:
    """A shuffle the executor may elide (or partially elide).

    Attributes:
        node: The wide node (ReduceByKey/GroupByKey/CoGroup).
        choice: ``"elide"`` (full elision: the input is already laid
            out exactly as this shuffle would lay it out),
            ``"adopt-left"`` / ``"adopt-right"`` (a CoGroup keeps one
            side in place and bucketizes only the other side into the
            adopted layout), or ``"elide-both"`` (both CoGroup sides
            share the same origin layout; zip partitions directly).
        origin: The shuffle node whose layout is reused.
    """

    __slots__ = ("node", "choice", "origin")

    def __init__(self, node, choice, origin):
        self.node = node
        self.choice = choice
        self.origin = origin

    def __repr__(self):
        return "Elision(%s, %s)" % (type(self.node).__name__, self.choice)


class RecordBound:
    """Static cardinality bounds for one node's output.

    Attributes:
        exact: Exact record count, or ``None`` when unknown.
        upper: Upper bound on the record count, or ``None``.
    """

    __slots__ = ("exact", "upper")

    def __init__(self, exact=None, upper=None):
        self.exact = exact
        self.upper = upper

    def __repr__(self):
        return "RecordBound(exact=%r, upper=%r)" % (self.exact, self.upper)


class PlanProperties:
    """Inference results for a whole plan, keyed by node identity."""

    __slots__ = ("root", "partitioning", "elisions", "bounds")

    def __init__(self, root, partitioning, elisions, bounds):
        self.root = root
        self.partitioning = partitioning
        self.elisions = elisions
        self.bounds = bounds

    def partitioning_of(self, node):
        return self.partitioning[id(node)]

    def bound_of(self, node):
        return self.bounds[id(node)]


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


# ----------------------------------------------------------------------
# Partitioning and bound inference
# ----------------------------------------------------------------------

def infer_properties(root):
    """Run the abstract interpretation over the plan rooted at ``root``.

    Returns:
        A :class:`PlanProperties` with per-node partitioning,
        shuffle-elision opportunities, and record bounds (all keyed by
        ``id(node)``).
    """
    parts = {}
    elisions = {}
    bounds = {}
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        key = id(node)
        if key in parts:
            continue
        if not expanded:
            stack.append((node, True))
            for child in node.children:
                if id(child) not in parts:
                    stack.append((child, False))
            continue
        partitioning, elision = _node_partitioning(node, parts)
        parts[key] = partitioning
        if elision is not None:
            elisions[key] = elision
        bounds[key] = _node_bound(node, bounds)
    return PlanProperties(root, parts, elisions, bounds)


def _node_partitioning(node, parts):
    """(Partitioning, Elision-or-None) for one node, children solved."""
    if isinstance(node, p.Filter):
        return parts[id(node.child)], None
    if isinstance(node, (p.Map, p.FlatMap)):
        child = parts[id(node.child)]
        if child.kind != HASH:
            return child, None
        if getattr(node, "preserves_partitioning", False):
            return child, None
        verdict = udf_preserves_key(node.fn, flat=isinstance(node, p.FlatMap))
        if verdict is True:
            return child, None
        reason = "rewrites-key" if verdict is False else "unproven"
        return Partitioning.unknown(blame=node, reason=reason,
                                    lost=child), None
    if isinstance(node, p.MapPartitions):
        child = parts[id(node.child)]
        if child.kind != HASH:
            return child, None
        if getattr(node, "preserves_partitioning", False):
            return child, None
        return Partitioning.unknown(blame=node, reason="unproven",
                                    lost=child), None
    if isinstance(node, p.ZipWithUniqueId):
        child = parts[id(node.child)]
        if child.kind != HASH:
            return child, None
        return Partitioning.unknown(blame=node, reason="rewrites-key",
                                    lost=child), None
    if isinstance(node, p.Coalesce):
        child = parts[id(node.child)]
        if child.kind != HASH:
            return child, None
        return Partitioning.unknown(blame=node, reason="coalesce",
                                    lost=child), None
    if isinstance(node, p.Union):
        lost = None
        for inp in node.children:
            if parts[id(inp)].kind == HASH:
                lost = parts[id(inp)]
                break
        blame = node if lost is not None else None
        return Partitioning.unknown(blame=blame, reason="union",
                                    lost=lost), None
    if isinstance(node, (p.ReduceByKey, p.GroupByKey)):
        child = parts[id(node.child)]
        n = node.num_partitions
        if child.kind == HASH and child.num_partitions == n:
            # Every key is already confined to the partition this
            # shuffle would send it to: the shuffle is a no-op.
            return child, Elision(node, "elide", child.origin)
        return Partitioning.hashed(n, node), None
    if isinstance(node, p.CoGroup):
        left = parts[id(node.left)]
        right = parts[id(node.right)]
        n = node.num_partitions
        left_fits = left.kind == HASH and left.num_partitions == n
        right_fits = right.kind == HASH and right.num_partitions == n
        if left_fits and right_fits and left.origin is right.origin:
            return (Partitioning.hashed(n, left.origin),
                    Elision(node, "elide-both", left.origin))
        if left_fits:
            return (Partitioning.hashed(n, node),
                    Elision(node, "adopt-left", left.origin))
        if right_fits:
            return (Partitioning.hashed(n, node),
                    Elision(node, "adopt-right", right.origin))
        return Partitioning.hashed(n, node), None
    if isinstance(node, p.BroadcastJoin):
        # Probe-side records (k, v) become (k, (v, w)) in place: the
        # output keeps the left (probe) side's layout and key set.
        return parts[id(node.left)], None
    # Parallelize, CrossBroadcast, and anything unknown.
    return Partitioning.unknown(reason="source"), None


#: Bounds beyond this are useless for sizing decisions and, because
#: join bounds multiply, can otherwise snowball into astronomically
#: large bignums on deep lifted-loop plans; cap to "unknown".
_BOUND_CAP = 10 ** 15


def _capped(value):
    return value if value is None or value <= _BOUND_CAP else None


def _node_bound(node, bounds):
    """Static record bounds for one node, children already solved."""
    if isinstance(node, p.Parallelize):
        n = len(node.data)
        return RecordBound(exact=n, upper=n)
    if isinstance(node, (p.Map, p.ZipWithUniqueId, p.Coalesce)):
        child = bounds[id(node.child)]
        return RecordBound(exact=child.exact, upper=child.upper)
    if isinstance(node, p.Filter):
        return RecordBound(upper=bounds[id(node.child)].upper)
    if isinstance(node, p.Union):
        exacts = [bounds[id(c)].exact for c in node.children]
        uppers = [bounds[id(c)].upper for c in node.children]
        return RecordBound(
            exact=_capped(
                sum(exacts) if all(e is not None for e in exacts)
                else None
            ),
            upper=_capped(
                sum(uppers) if all(u is not None for u in uppers)
                else None
            ),
        )
    if isinstance(node, (p.ReduceByKey, p.GroupByKey)):
        # At most one output record per distinct key.
        return RecordBound(upper=bounds[id(node.child)].upper)
    if isinstance(node, p.CoGroup):
        left = bounds[id(node.left)].upper
        right = bounds[id(node.right)].upper
        if left is not None and right is not None:
            return RecordBound(upper=_capped(left + right))
        return RecordBound()
    if isinstance(node, p.BroadcastJoin):
        left = bounds[id(node.left)].upper
        right = bounds[id(node.right)].upper
        if left is not None and right is not None:
            return RecordBound(upper=_capped(left * right))
        return RecordBound()
    if isinstance(node, p.CrossBroadcast):
        left = bounds[id(node.left)]
        right = bounds[id(node.right)]
        exact = (left.exact * right.exact
                 if left.exact is not None and right.exact is not None
                 else None)
        upper = (left.upper * right.upper
                 if left.upper is not None and right.upper is not None
                 else None)
        return RecordBound(exact=_capped(exact), upper=_capped(upper))
    return RecordBound()


def partitioning_notes(root, props=None):
    """Human-readable partitioning annotations, keyed by ``id(node)``.

    Used by ``Bag.explain(properties=True)``.  HASH nodes are annotated
    ``hash(k0)`` (fresh layout) or ``hash(k0) via #N`` (layout inherited
    from the shuffle with plan id ``N``); nodes that *destroy* a
    provable partitioning are annotated ``drops hash(k0)``.  Other
    nodes carry no note.
    """
    if props is None:
        props = infer_properties(root)
    ids = p.assign_node_ids(root)
    notes = {}
    for node in p.iter_nodes(root):
        partitioning = props.partitioning[id(node)]
        if partitioning.kind == HASH:
            origin = partitioning.origin
            if origin is node:
                notes[id(node)] = "hash(k0)"
            else:
                origin_id = ids.get(id(origin))
                if origin_id is None:
                    notes[id(node)] = "hash(k0)"
                else:
                    notes[id(node)] = "hash(k0) via #%d" % origin_id
        elif partitioning.blame is node:
            notes[id(node)] = "drops hash(k0)"
    return notes
