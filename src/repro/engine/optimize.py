"""The engine's static optimizer pass: shuffle elision.

The executor consults this once per job.  The heavy lifting -- proving
which wide nodes re-shuffle data that is already laid out correctly --
lives in :mod:`repro.analysis.properties`; this module is the thin
engine-side entry point.

Soundness note: a static :class:`~repro.analysis.properties.Elision` is
a *permission*, not a command.  The executor still checks the runtime
preconditions (partition counts match, the input partitions carry the
origin shuffle's layout) and falls back to a normal shuffle when they
do not hold.
"""

from dataclasses import dataclass

__all__ = [
    "Decision",
    "plan_auto_caches",
    "plan_shuffle_elisions",
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
    from . import plan as p

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
    """Shuffles the executor may elide for this plan: ``{id(node):
    Elision}`` for every wide node whose input is provably
    co-partitioned with the layout the node would build.

    Every job plans them, as Spark skips the shuffle of an input already
    partitioned by the target partitioner.  Differential checks take the
    reference run -- no elision -- by replacing this function as the
    executor imported it.
    """
    # Lazy import: repro.analysis imports repro.engine, so engine
    # modules must not import the analysis layer at module scope.
    from ..analysis.properties import infer_properties

    return infer_properties(root).elisions
