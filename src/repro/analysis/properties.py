"""Plan-property inference: partitioning and key preservation.

This module is an abstract interpretation over :mod:`repro.engine.plan`
DAGs.  For every node it infers **partitioning**: whether the node's
output is provably hash-partitioned on the record key (first tuple
slot) into a known number of partitions, and *which shuffle produced
that layout*.  Whether a narrow node keeps its input's layout is the
engine's own per-node rule (:func:`repro.engine.optimize.keeps_layout`,
with the AST proof :func:`udf_preserves_key`), so the prediction here
and what the executor does at runtime cannot drift apart.

The engine's shuffles place keys with a *balanced* assignment built from
runtime key counts (:func:`repro.engine.partitioner
.build_balanced_assignment`), not a pure hash of the key.  Two
independent shuffles with the same partition count therefore do **not**
co-partition identically; co-partitioning is only provable when two
plan edges trace back to the *same* shuffle node.  A
:class:`Partitioning` consequently carries the identity of its origin
shuffle node; at runtime the executor carries the concrete assignment
a run of that node produced with the partitions laid out by it, and
decides each elision from that (:func:`repro.engine.optimize
.choose_elision`).  The elisions inferred here are that same function
called on the inputs' predicted partitionings, whose origin stands in
for the assignment: the engine's decisions predicted from the plan
alone, for two consumers:

* the NPL4xx plan diagnostics (:mod:`repro.analysis.plan_lint`),
* ``Bag.explain(properties=True)`` annotations
  (:func:`partitioning_notes`).

Import direction: this module imports the engine's plan and optimizer
modules; the engine reaches back into it only lazily, for
:func:`repro.engine.optimize.plan_shuffle_elisions`.
"""

from ..engine import plan as p
from ..engine.optimize import choose_elision, keeps_layout, udf_preserves_key
from ..udf import function_ast

__all__ = [
    "HASH",
    "NONE",
    "Partitioning",
    "Elision",
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

    @property
    def layout(self):
        """What :func:`choose_elision` reads of a side: ``(origin,
        assignment)`` when HASH, the origin standing in for the one
        assignment a plan can show it building; else ``None``."""
        return (self.origin, self.origin) if self.kind == HASH else None

    @property
    def partitions(self):
        return range(self.num_partitions)

    def __repr__(self):
        if self.kind == HASH:
            return "Partitioning(hash, parts=%d)" % self.num_partitions
        if self.blame is not None:
            return "Partitioning(none, %s)" % self.reason
        return "Partitioning(none)"


class Elision:
    """A shuffle elision the engine is predicted to make
    (:func:`repro.engine.optimize.choose_elision`).

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


class PlanProperties:
    """Inference results for a whole plan, keyed by node identity."""

    __slots__ = ("root", "partitioning", "elisions")

    def __init__(self, root, partitioning, elisions):
        self.root = root
        self.partitioning = partitioning
        self.elisions = elisions

    def partitioning_of(self, node):
        return self.partitioning[id(node)]


# ----------------------------------------------------------------------
# Partitioning inference
# ----------------------------------------------------------------------

def infer_properties(root):
    """Run the abstract interpretation over the plan rooted at ``root``.

    Returns:
        A :class:`PlanProperties` with per-node partitioning and
        shuffle-elision opportunities (both keyed by ``id(node)``).
    """
    elisions = {}

    def visit(node, parts):
        partitioning, elision = _node_partitioning(node, parts)
        if elision is not None:
            elisions[id(node)] = elision
        return partitioning

    return PlanProperties(root, p.fold_plan(root, visit), elisions)


def _node_partitioning(node, parts):
    """(Partitioning, Elision-or-None) for one node, children solved."""
    if isinstance(node, (p.Filter, p.Map, p.FlatMap, p.MapPartitions,
                         p.ZipWithUniqueId, p.Coalesce)):
        child = parts[id(node.child)]
        if child.kind != HASH or keeps_layout(node):
            return child, None
        return Partitioning.unknown(blame=node, reason=_drop_reason(node),
                                    lost=child), None
    if isinstance(node, p.Union):
        lost = next((parts[id(inp)] for inp in node.children
                     if parts[id(inp)].kind == HASH), None)
        blame = node if lost is not None else None
        return Partitioning.unknown(blame=blame, reason="union",
                                    lost=lost), None
    if isinstance(node, (p.ReduceByKey, p.GroupByKey, p.CoGroup)):
        n = node.num_partitions
        chosen = choose_elision(
            node, *(parts[id(child)] for child in node.children)
        )
        if chosen is None:
            return Partitioning.hashed(n, node), None
        choice, origin = chosen
        # An elided shuffle's output keeps the reused layout; an adopted
        # cogroup's builds its own.
        kept = origin if choice in ("elide", "elide-both") else node
        return Partitioning.hashed(n, kept), Elision(node, choice, origin)
    if isinstance(node, p.BroadcastJoin):
        # Probe-side records (k, v) become (k, (v, w)) in place: the
        # output keeps the left (probe) side's layout and key set.
        return parts[id(node.left)], None
    # Parallelize, CrossBroadcast, and anything unknown.
    return Partitioning.unknown(reason="source"), None


def _drop_reason(node):
    """Why a narrow node that does not keep the key loses its input's
    partitioning."""
    if isinstance(node, p.Coalesce):
        return "coalesce"
    if isinstance(node, p.MapPartitions):
        return "unproven"
    if isinstance(node, (p.Map, p.FlatMap)) and udf_preserves_key(
        node.fn, flat=isinstance(node, p.FlatMap)
    ) is None:
        return "unproven"
    return "rewrites-key"


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
    for node in p.iter_nodes_ordered(root):
        partitioning = props.partitioning[id(node)]
        if partitioning.kind == HASH:
            origin_id = ids.get(id(partitioning.origin))
            if partitioning.origin is node or origin_id is None:
                notes[id(node)] = "hash(k0)"
            else:
                notes[id(node)] = "hash(k0) via #%d" % origin_id
        elif partitioning.blame is node:
            notes[id(node)] = "drops hash(k0)"
    return notes
