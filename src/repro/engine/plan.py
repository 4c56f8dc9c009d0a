"""Logical plan nodes (the lineage DAG behind every Bag).

A :class:`~repro.engine.bag.Bag` is a thin, immutable handle around one of
these nodes.  Plans are lazy; the :mod:`executor <repro.engine.executor>`
evaluates them when an action runs.

Narrow nodes (Map, Filter, FlatMap, MapPartitions, ZipWithUniqueId,
BroadcastJoin, CrossBroadcast) transform partitions in place and fuse into
the stage of their input.  Elementwise nodes additionally mark themselves
``fusable``: the executor streams records through maximal fusable chains
one record at a time instead of materializing an intermediate list per
operator.  Wide nodes (ReduceByKey, GroupByKey, CoGroup) require a
shuffle and start a new stage.
"""

import itertools


class PlanNode:
    """Base class for all plan nodes."""

    #: Subclasses list their child nodes here.
    children = ()

    #: Elementwise record-at-a-time operators (map/filter/flat_map) set
    #: this; the executor fuses unbroken chains of them into one
    #: streaming per-partition pipeline.
    fusable = False

    def __init__(self):
        self.cached = False
        self.materialized = None
        # A short human-readable label, settable via Bag.with_label().
        self.label = ""
        # Record scale for cost accounting: False = data-scale records
        # (each stands for ``bytes_per_record`` of the paper's dataset),
        # True = meta-scale records (per-tag scalars, counts, trained
        # models -- charged at ``result_record_bytes``).  Set by
        # Bag._derive from the children; InnerScalar marks its
        # representation explicitly.
        self.meta = False

    @property
    def name(self):
        return type(self).__name__

    def describe(self, ids=None, parts=None, notes=None):
        """One-line description: ``Name#id [label] parts=N (cached)``.

        ``ids`` / ``parts`` are the dicts produced by
        :func:`assign_node_ids` and :func:`partition_counts`; either may
        be omitted.  The id is *stable*: it depends only on the plan
        shape (pre-order position), so diagnostics and repeated
        ``explain()`` calls agree.  ``notes`` is an optional
        ``{id(node): text}`` dict of extra annotations (e.g. inferred
        partitioning properties), appended as ``[text]``.
        """
        line = self.name
        if ids is not None and id(self) in ids:
            line += "#%d" % ids[id(self)]
        if self.label:
            line += " [%s]" % self.label
        if parts is not None and parts.get(id(self)) is not None:
            line += " parts=%d" % parts[id(self)]
        if self.cached:
            line += " (cached)"
        if notes is not None and notes.get(id(self)):
            line += " [%s]" % notes[id(self)]
        return line

    def explain(self, indent=0, ids=None, parts=None, notes=None):
        """Multi-line textual rendering of the plan tree."""
        pad = "  " * indent
        lines = [pad + self.describe(ids, parts, notes)]
        for child in self.children:
            lines.append(child.explain(indent + 1, ids, parts, notes))
        return "\n".join(lines)


class Parallelize(PlanNode):
    """A dataset provided by the driver, split into partitions."""

    def __init__(self, data, num_partitions):
        super().__init__()
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        self.data = list(data)
        self.num_partitions = num_partitions

    def build_partitions(self):
        """Split the driver-side data into ``num_partitions`` slices."""
        n = self.num_partitions
        return [self.data[i::n] for i in range(n)]


class UnaryNode(PlanNode):
    """A node with exactly one child."""

    def __init__(self, child):
        super().__init__()
        self.child = child

    @property
    def children(self):
        return (self.child,)


class Map(UnaryNode):
    fusable = True

    def __init__(self, child, fn, preserves_partitioning=False):
        super().__init__(child)
        self.fn = fn
        # User assertion that fn never rewrites the key slot of keyed
        # records; lets property inference inherit the child's
        # partitioning when the AST proof comes up inconclusive.
        self.preserves_partitioning = preserves_partitioning


class Filter(UnaryNode):
    fusable = True

    def __init__(self, child, fn):
        super().__init__(child)
        self.fn = fn


class FlatMap(UnaryNode):
    fusable = True

    def __init__(self, child, fn, preserves_partitioning=False):
        super().__init__(child)
        self.fn = fn
        self.preserves_partitioning = preserves_partitioning


class MapPartitions(UnaryNode):
    """Applies ``fn(items, partition_index)`` to each whole partition."""

    def __init__(self, child, fn, preserves_partitioning=False):
        super().__init__(child)
        self.fn = fn
        self.preserves_partitioning = preserves_partitioning


class ZipWithUniqueId(UnaryNode):
    """Pairs each element with a cluster-unique integer id.

    Produces ``(element, id)`` pairs, with Spark's id scheme:
    ``id = partition_index + i * num_partitions``.
    """


class Coalesce(UnaryNode):
    """Merge partitions down to ``num_partitions`` without a shuffle.

    Spark's narrow ``coalesce``: needed wherever unions would otherwise
    accumulate partitions (e.g. a lifted if merging branch results every
    loop iteration would double them each time).
    """

    def __init__(self, child, num_partitions):
        super().__init__(child)
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        self.num_partitions = num_partitions


class Union(PlanNode):
    """Concatenation of the partitions of all children (narrow)."""

    def __init__(self, inputs):
        super().__init__()
        if not inputs:
            raise ValueError("union of zero inputs")
        self._inputs = tuple(inputs)

    @property
    def children(self):
        return self._inputs


class ReduceByKey(UnaryNode):
    """Shuffle by key with map-side combining, then per-key reduction."""

    def __init__(self, child, fn, num_partitions):
        super().__init__(child)
        self.fn = fn
        self.num_partitions = num_partitions


class GroupByKey(UnaryNode):
    """Shuffle by key, materializing each group as a list.

    Materializing a group that exceeds executor memory raises
    :class:`~repro.errors.SimulatedOutOfMemory` -- this is the failure mode
    of the outer-parallel workaround in the paper's experiments.
    """

    def __init__(self, child, num_partitions):
        super().__init__(child)
        self.num_partitions = num_partitions


class CoGroup(PlanNode):
    """Shuffle both inputs by key; emit ``(k, (left_values, right_values))``.

    Joins, left-outer joins, and subtract-by-key derive from this node at
    the Bag level.
    """

    def __init__(self, left, right, num_partitions):
        super().__init__()
        self.left = left
        self.right = right
        self.num_partitions = num_partitions

    @property
    def children(self):
        return (self.left, self.right)


class BroadcastJoin(PlanNode):
    """Narrow equi-join: the right side is broadcast to every executor."""

    def __init__(self, left, right):
        super().__init__()
        self.left = left
        self.right = right

    @property
    def children(self):
        return (self.left, self.right)


class CrossBroadcast(PlanNode):
    """Cross product implemented by broadcasting one side.

    ``broadcast_side`` is ``"right"`` (default) or ``"left"``.  The
    broadcast side is collected to the driver and shipped to every
    executor; the other side streams through unchanged partitions.
    """

    def __init__(self, left, right, broadcast_side="right"):
        super().__init__()
        if broadcast_side not in ("left", "right"):
            raise ValueError("broadcast_side must be 'left' or 'right'")
        self.left = left
        self.right = right
        self.broadcast_side = broadcast_side

    @property
    def children(self):
        return (self.left, self.right)


def iter_nodes(root):
    """Yield every node in the plan reachable from ``root`` (pre-order)."""
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        stack.extend(node.children)


def iter_nodes_ordered(root):
    """Depth-first pre-order traversal visiting children left-to-right.

    Unlike :func:`iter_nodes` (whose stack order is an implementation
    detail), this order is the one a reader sees in ``explain()`` --
    node ids are assigned along it.  Iterative, so arbitrarily deep
    plans (the reason the executor itself is iterative) do not overflow
    the Python stack.
    """
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        stack.extend(reversed(node.children))


def consumer_counts(root):
    """How many parent edges reference each node: ``{id(node): int}``
    (``CoGroup(x, x)`` counts twice; the root and unreferenced nodes
    are absent)."""
    counts = {}
    for node in iter_nodes(root):
        for child in node.children:
            counts[id(child)] = counts.get(id(child), 0) + 1
    return counts


def assign_node_ids(root):
    """Stable small integer ids: ``{id(node): ordinal}`` (1-based).

    Ids follow :func:`iter_nodes_ordered`, i.e. the ``explain()``
    reading order, so the same plan always yields the same numbering
    and a diagnostic's ``#n`` can be found by eye in the explain
    output.
    """
    return {
        id(node): ordinal
        for ordinal, node in enumerate(iter_nodes_ordered(root), start=1)
    }


def partition_counts(root):
    """Per-node output partition counts: ``{id(node): int}``.

    Mirrors how the Bag layer threads ``num_partitions``: sources and
    shuffles fix their own count, unions add their inputs, narrow nodes
    inherit from the (streamed) child.
    """
    counts = {}
    # Iterative post-order: children resolved before parents.
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            counts[id(node)] = _own_partitions(node, counts)
            continue
        if id(node) in counts:
            continue
        stack.append((node, True))
        for child in node.children:
            if id(child) not in counts:
                stack.append((child, False))
    return counts


def _own_partitions(node, counts):
    if hasattr(node, "num_partitions"):
        return node.num_partitions
    if isinstance(node, Union):
        child_counts = [counts.get(id(c)) for c in node.children]
        if any(count is None for count in child_counts):
            return None
        return sum(child_counts)
    if isinstance(node, BroadcastJoin):
        return counts.get(id(node.left))
    if isinstance(node, CrossBroadcast):
        stream = node.left if node.broadcast_side == "right" else node.right
        return counts.get(id(stream))
    if isinstance(node, UnaryNode):
        return counts.get(id(node.child))
    return None


def explain_compact(root, notes=None):
    """One line per node: ``#1 Name [label] parts=N <- #2 #3``.

    The compact rendering used by plan-lint diagnostics: each line
    names the node's stable id, its partition count, and the ids of its
    inputs, so a diagnostic can reference an exact node without
    reproducing the whole tree.  ``notes`` optionally appends a
    ``[text]`` annotation per node (see ``PlanNode.describe``).
    """
    ids = assign_node_ids(root)
    parts = partition_counts(root)
    by_ordinal = sorted(
        iter_nodes_ordered(root), key=lambda node: ids[id(node)]
    )
    lines = []
    for node in by_ordinal:
        line = "#%d %s" % (ids[id(node)], node.name)
        if node.label:
            line += " [%s]" % node.label
        count = parts.get(id(node))
        if count is not None:
            line += " parts=%d" % count
        if node.cached:
            line += " (cached)"
        if notes is not None and notes.get(id(node)):
            line += " [%s]" % notes[id(node)]
        if node.children:
            line += " <- " + " ".join(
                "#%d" % ids[id(child)] for child in node.children
            )
        lines.append(line)
    return "\n".join(lines)


def origin(node):
    """``Name`` or ``Name[label]``: what stages, task operators and
    optimizer decisions call the node that produced them."""
    name = node.name
    if node.label:
        name += "[%s]" % node.label
    return name


def describe_node(node, ids=None, parts=None):
    """Compact reference to one node: ``#3 GroupByKey [label] parts=8``.

    Used in diagnostic messages to point at the exact plan node.
    """
    text = node.name
    if ids is not None and id(node) in ids:
        text = "#%d %s" % (ids[id(node)], node.name)
    if node.label:
        text += " [%s]" % node.label
    if parts is not None and parts.get(id(node)) is not None:
        text += " parts=%d" % parts[id(node)]
    return text


def static_record_count(node):
    """Record count of a plan node when statically known, else None.

    Driver-provided data has an exact count; size-preserving narrow
    chains (map, zip-with-id, coalesce) propagate it, and unions add
    their inputs.  Anything data-dependent (filters, shuffles) is
    unknown: the analyses that use this value must treat ``None`` as
    "large".
    """
    while True:
        if isinstance(node, Parallelize):
            return len(node.data)
        if isinstance(node, (Map, ZipWithUniqueId, Coalesce)):
            node = node.child
            continue
        if isinstance(node, Union):
            total = 0
            for child in node.children:
                count = static_record_count(child)
                if count is None:
                    return None
                total += count
            return total
        return None


def count_nodes(root):
    return sum(1 for _ in iter_nodes(root))


def flatten_union_inputs(inputs):
    """Collapse nested unions into a single input list."""
    flat = []
    for node in inputs:
        if isinstance(node, Union) and not node.cached:
            flat.extend(node.children)
        else:
            flat.append(node)
    return flat


def chain_partitions(partition_lists):
    """Concatenate per-child partition lists (for Union)."""
    return list(itertools.chain.from_iterable(partition_lists))
