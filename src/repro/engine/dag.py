"""Evaluation units: the plan, linearized, with its dispatch ordinals.

The executor evaluates a plan as a sequence of **evaluation units** --
one fused elementwise chain or one non-fusable node each, and a
``reduce_by_key`` on top of a chain it may fuse *with* that chain as one
unit (the map-side combine rides in the chain's task).  This module
derives the units (:func:`plan_units`) and their dispatch-ordinal
reservations *before anything runs*; the executor then runs them one at
a time, in plan order, on the calling thread
(:meth:`repro.engine.executor.Executor._eval`).  Plan order is the only
stage schedule: a flattened program's stages each span the whole
cluster already, so there is little inside a job to overlap (the
measurement behind that decision is in ``docs/architecture.md``,
"Flag decisions").  Jobs overlap through ``ctx.gather`` and the serve
daemon's slots, one thread per job.

*Planner-fixed dispatch ordinals.*  Every unit reserves its maximum
dispatch count at planning time (in plan order), and stage evaluation
consumes explicit ordinals from that reservation
(:class:`OrdinalCursor`) -- so fault-injection addressing
(``kill_task(stage=...)``) and task-set identity are properties of the
plan: an elided shuffle leaves a gap instead of shifting every later
stage's address, and concurrently gathered jobs each draw one
contiguous range.
"""

from . import plan as p

__all__ = [
    "EvalUnit",
    "OrdinalCursor",
    "plan_units",
    "snapshot_plan_state",
]


class EvalUnit:
    """One step of plan evaluation.

    Attributes:
        node: The plan node the unit produces a result for (for fused
            chains, the top of the chain).
        chain: The fused elementwise chain bottom-up, or ``None``.  When
            ``node`` is a ``ReduceByKey`` this is the chain *below* it:
            the unit runs chain and map-side combine as one task set,
            then the shuffle and the reduce side.
        cached: True when the node was already materialized at planning
            time (the unit just re-registers the cached partitions).
        ordinal_offset: First dispatch ordinal reserved for this unit,
            relative to the job's reservation base.
        ordinal_budget: Dispatch ordinals reserved (the unit's maximum
            possible task-set count; an elided shuffle may use fewer,
            leaving a deterministic gap).
        reads: Ids of the nodes whose results the unit consumes, one
            per read (``union(x, x)`` reads ``x`` twice); the executor
            frees a result once its last reader has run.
    """

    __slots__ = ("node", "chain", "cached", "reads", "ordinal_offset",
                 "ordinal_budget")

    def __init__(self, node, chain, cached):
        self.node = node
        self.chain = chain
        self.cached = cached
        if cached:
            self.reads = ()
        elif chain is not None:
            self.reads = (id(chain[0].child),)
        else:
            self.reads = tuple(map(id, node.children))
        self.ordinal_offset = 0
        self.ordinal_budget = 0

    @property
    def fold(self):
        """``(reducer, operator)`` when the unit's chain carries the
        map-side combine of its ``ReduceByKey`` as a tail, else
        ``None``."""
        if self.chain is None or self.node.fusable:
            return None
        return self.node.fn, p.origin(self.node)

    @property
    def label(self):
        name = self.node.name
        if self.node.label:
            name += "[%s]" % self.node.label
        return name


# ----------------------------------------------------------------------
# Plan walk helpers (shared by the planner and nothing else: the
# executor consumes units, never raw nodes)
# ----------------------------------------------------------------------


def snapshot_plan_state(root):
    """One consistent read of every node's mutable planning inputs.

    ``cached`` and ``materialized`` are the only plan-node attributes
    planning reads that change after construction (``layout`` changes
    with ``materialized``; only the executor reads it):
    ``Bag.cache()`` and a concurrently gathered job materializing a
    shared cached subtree both flip them while other jobs may be
    planning over the same nodes.  The
    planning walk consults both attributes several times per node
    (refcounts, fusion, the unit emit), so reading them live would let
    one walk observe *different* values for the same node -- making
    the unit graph, the stage layout, and with them the plan's stable
    node ids depend on thread interleaving.  Snapshotting once up
    front pins one consistent view for the whole walk; whether a
    concurrent flip lands before or after the snapshot, the resulting
    unit graph is one of the two valid serial outcomes, never a
    hybrid.

    The walk stops at a node it reads as materialized, as evaluation
    does: a job over a lifted loop's cached iterate reads none of the
    iterations below it.

    Returns ``{id(node): (cached, materialized)}`` for every node the
    job may evaluate or read.
    """
    state = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in state:
            continue
        state[id(node)] = entry = (node.cached, node.materialized)
        if entry[1] is None:
            stack.extend(node.children)
    return state


def compute_refcounts(root, state):
    """Number of evaluated parents per node (by id).

    Only edges that evaluation will actually traverse count: children
    below an already-materialized node are never evaluated.  ``state``
    is the :func:`snapshot_plan_state` of the walk.
    """
    counts = {}
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if state[id(node)][1] is not None:
            continue
        for child in node.children:
            counts[id(child)] = counts.get(id(child), 0) + 1
            stack.append(child)
    return counts


def dep_order(node):
    """Children in the order their side effects must occur.

    Broadcast operators evaluate (and size-check) the build side
    before the stream side, mirroring a real driver's submission
    order.
    """
    if isinstance(node, p.BroadcastJoin):
        return (node.right, node.left)
    if isinstance(node, p.CrossBroadcast):
        if node.broadcast_side == "right":
            return (node.right, node.left)
        return (node.left, node.right)
    return tuple(node.children)


def fused_chain(node, refcounts, state):
    """The maximal fusable elementwise chain ending at ``node``.

    Returns the chain bottom-up (``chain[0]`` closest to the data)
    or ``None`` when ``node`` is not elementwise.  Fusion never
    crosses a node that is cached, already materialized, or shared
    by another parent (those must produce a memoized result of
    their own).  ``cached`` / ``materialized`` come from the walk's
    :func:`snapshot_plan_state`, never from the live node.

    A ``ReduceByKey`` ends a chain under the same rule: when its child
    may be fused into, the chain returned is the one ending at the
    child, and the unit folds its output map-side in the same task --
    or, when the chain's output fits the reduce's shuffle
    (:func:`repro.engine.optimize.choose_elision`), runs the chain and
    then the reduce's one combine pass.
    """
    if node.fusable:
        chain = [node]
    elif isinstance(node, p.ReduceByKey):
        chain = []
    else:
        return None
    child = node.child
    while True:
        cached, materialized = state[id(child)]
        if not (
            child.fusable
            and not cached
            and materialized is None
            and refcounts.get(id(child), 0) == 1
        ):
            break
        chain.append(child)
        child = child.child
    chain.reverse()
    return chain or None


def _dispatch_budget(unit):
    """Maximum task sets this unit can dispatch through the scheduler.

    Must cover every evaluation path: ``ReduceByKey`` dispatches twice
    (map-side combine + reduce) unless its shuffle is elided, so it
    reserves two either way -- runtime elision then leaves an unused
    ordinal rather than shifting every later stage's address.  Fused
    with the chain below it, the unit reserves the chain's ordinal and
    then those same two, in that order: the chain-and-fold task set
    draws the chain's, the map-side combine's is the gap, and every
    later address is what it would be unfused.  Elided, the chain
    draws its own, the one combine pass the next, and the last is
    the gap.
    """
    if unit.cached or unit.chain is None and isinstance(
        unit.node,
        (p.Parallelize, p.ZipWithUniqueId, p.Union, p.Coalesce),
    ):
        return 0
    if isinstance(unit.node, p.ReduceByKey):
        return 2 if unit.chain is None else 3
    return 1


def plan_units(root):
    """Linearize ``root``'s lineage into units, in plan order.

    Children before parents, broadcast build sides before stream
    sides, fused chains collapsed into their top node -- or into the
    ``ReduceByKey`` above it: ``units[i]`` is the ``i``-th step the
    executor runs.  Dispatch ordinals are
    reserved cumulatively over that order.
    """
    state = snapshot_plan_state(root)
    refcounts = compute_refcounts(root, state)
    units = []
    done = set()
    stack = [root]
    while stack:
        node = stack[-1]
        key = id(node)
        if key in done:
            stack.pop()
            continue
        if state[key][1] is not None:
            units.append(EvalUnit(node, None, True))
            done.add(key)
            stack.pop()
            continue
        chain = fused_chain(node, refcounts, state)
        if chain is not None:
            deps = (chain[0].child,)
        else:
            deps = dep_order(node)
        pending = [dep for dep in deps if id(dep) not in done]
        if pending:
            stack.extend(reversed(pending))
            continue
        stack.pop()
        units.append(EvalUnit(node, chain, False))
        done.add(key)
    offset = 0
    for unit in units:
        unit.ordinal_offset = offset
        unit.ordinal_budget = _dispatch_budget(unit)
        offset += unit.ordinal_budget
    return units


def total_ordinal_budget(units):
    """Dispatch ordinals one job's units reserve in total."""
    return sum(unit.ordinal_budget for unit in units)


class OrdinalCursor:
    """Hands a unit its reserved dispatch ordinals, in order."""

    __slots__ = ("_next",)

    def __init__(self, base):
        self._next = base

    def take(self):
        value = self._next
        self._next += 1
        return value
