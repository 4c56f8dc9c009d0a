"""The engine's static optimizer passes: shuffle elision, auto-caching.

The executor consults this once per job.  The heavy lifting -- proving
which wide nodes re-shuffle data that is already laid out correctly,
and which UDFs are pure and deterministic -- lives in
:mod:`repro.analysis.properties` and :mod:`repro.analysis.effects`;
this module is the thin engine-side entry point that honors
``ClusterConfig.optimize_shuffles`` / ``optimize_caching``.

Soundness note: a static :class:`~repro.analysis.properties.Elision` is
a *permission*, not a command.  The executor still checks the runtime
preconditions (partition counts match, the origin shuffle's concrete
assignment is registered) and falls back to a normal shuffle when they
do not hold.  Auto-caching is held to a stricter bar: it only fires on
subtrees whose every UDF is *proven* pure and deterministic, because a
cache substitutes one recorded evaluation for repeated evaluations --
only provable effect-freedom makes those interchangeable.
"""

from dataclasses import dataclass

__all__ = [
    "Decision",
    "plan_auto_caches",
    "plan_shuffle_elisions",
    "release_layouts",
    "sweep_layouts",
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


def plan_auto_caches(root, config=None):
    """Plan nodes the executor should auto-cache for this plan.

    The NPL301 lint predicts the waste (an uncached node consumed by
    two or more parents recomputes once per consumer); this pass is
    the rewrite that removes it.  A node qualifies when:

    * two or more parent edges consume it (``CoGroup(x, x)`` counts
      twice, matching the lint),
    * it is not already ``cache()``d,
    * it is not a :class:`~repro.engine.plan.Parallelize` (driver data
      re-splits for free) or a :class:`~repro.engine.plan.Union`
      (``flatten_union_inputs`` rewrites unions structurally at
      bag-construction time, keyed on ``cached``; flipping the flag
      later would make plan shape depend on optimizer timing), and
    * every UDF in its subtree is **proven** pure and deterministic by
      :func:`repro.analysis.effects.plan_effects`.  Unknown does not
      qualify: caching trades re-evaluation for replay, which is only
      an equivalence when the subtree provably has no effects for the
      skipped evaluations to skip.

    Returns ``{id(node): node}`` for the qualifying nodes.  The
    executor flips ``node.cached`` and records an ``auto-cache``
    :class:`Decision` per entry.
    """
    if config is not None and not config.optimize_caching:
        return {}
    # Lazy import: repro.analysis imports repro.engine, so engine
    # modules must not import the analysis layer at module scope.
    from ..analysis.effects import plan_effects
    from . import plan as p

    consumers = {}
    for node in p.iter_nodes_ordered(root):
        for child in node.children:
            consumers[id(child)] = consumers.get(id(child), 0) + 1
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


def plan_shuffle_elisions(root, config=None):
    """Shuffles the executor may elide for this plan.

    Args:
        root: The plan's root node.
        config: The cluster config; when it disables
            ``optimize_shuffles`` no elisions are planned.

    Returns:
        ``{id(node): Elision}`` for every wide node whose input is
        provably co-partitioned with the layout the node would build.
    """
    if config is not None and not config.optimize_shuffles:
        return {}
    # Lazy import: repro.analysis imports repro.engine, so engine
    # modules must not import the analysis layer at module scope.
    from ..analysis.properties import infer_properties

    return infer_properties(root).elisions


def release_layouts(assignments, root):
    """Drop every origin->layout registry entry under ``root``'s subtree.

    ``assignments`` is the executor's cross-job layout registry
    (``{id(node): (weakref(node), {key: bucket})}``).  Entries keep a
    subtree's concrete key assignments available so later jobs can
    adopt the layout; once the artifact built on that subtree is
    released (``Bag.uncache``, artifact-cache eviction), the entries
    are dead weight -- and leaving them behind would let a later plan
    adopt a layout whose backing partitions no longer exist.  The walk
    is iterative (stack, visited set), so loop-unrolled lineages of any
    depth release without recursion.

    The caller holds whatever lock guards ``assignments``.  Returns the
    number of entries removed.
    """
    removed = 0
    stack = [root]
    seen = set()
    while stack:
        node = stack.pop()
        key = id(node)
        if key in seen:
            continue
        seen.add(key)
        if key in assignments:
            del assignments[key]
            removed += 1
        stack.extend(node.children)
    return removed


def sweep_layouts(assignments):
    """Drop registry entries whose origin node has been collected.

    Registry values hold their node only weakly (see
    :class:`~repro.engine.executor.Executor`), so once a one-shot job's
    plan graph is garbage its layouts can never be adopted again; this
    reclaims their entries.  Cached bags keep their subtrees alive, so
    their entries survive the sweep.  The caller holds whatever lock
    guards ``assignments``.  Returns the number of entries dropped.
    """
    dead = [
        key for key, (ref, _layout) in assignments.items()
        if ref() is None
    ]
    for key in dead:
        del assignments[key]
    return len(dead)
