"""NPL3xx / NPL4xx: lint over :mod:`repro.engine.plan` DAGs.

All checks run pre-execution (the point is to predict the failure or
the waste *before* the job runs):

* **NPL301** -- a node consumed by two or more parents without
  ``cache()``: lineage recomputes it once per consumer.
* **NPL302** -- a filter applied above a shuffle whose predicate
  provably reads only the key: pushing it below the shuffle would cut
  shuffle volume.  The predicate proof is best-effort source analysis
  (a lambda reading only ``kv[0]``); anything unprovable is silent.
* **NPL303** -- a broadcast join / cross whose build side's statically
  known size exceeds the executor memory bound: the engine's own
  :func:`~repro.engine.broadcast.broadcast_footprint`, the rule it
  raises :class:`~repro.errors.SimulatedOutOfMemory` by at runtime,
  evaluated at plan-build time.
* **NPL304** -- a coalesce immediately re-coalesced: the inner coalesce
  does no enduring work.  (Shuffle-over-same-partitioning, NPL304's
  former second case, is now NPL401: property inference proves it and
  the engine elides it.)
* **NPL203** -- driver-provided keyed records whose key type would hash
  through the partitioner's ``repr()`` fallback, which is not
  guaranteed process-stable.
* **NPL401** -- a shuffle (or a cogroup side) whose input is provably
  already partitioned in the layout the shuffle would build; the
  engine elides it (see :mod:`repro.engine.optimize`).  Reported so
  the saving is visible at lint time.
* **NPL402** -- a key-rewriting map that destroys a provable
  co-partitioning right before a shuffle that could otherwise have
  been elided.
* **NPL403** -- a shuffle input that *is* hash-partitioned, but into a
  different partition count, forcing a full reshuffle.
* **NPL404** -- a shuffle input whose map could not be *proven*
  key-preserving; a ``preserves_partitioning=True`` hint (if truthful)
  would enable elision.
* **NPL6xx** -- record schema & shape findings from
  :mod:`repro.analysis.schema` (key-type mismatches, union shape
  mismatches, unhashable shuffle keys), plus an NPL001 notice for
  each UDF whose source inference could not read.

NPL4xx findings come from :mod:`repro.analysis.properties`.
Diagnostics carry the node's stable id (see
:func:`repro.engine.plan.assign_node_ids`), so a finding can be matched
by eye against ``Bag.explain()`` / ``explain_compact``.
"""

import ast

from ..engine import plan as p
from ..engine.broadcast import broadcast_footprint
from ..engine.partitioner import unstable_key_reason
from .diagnostics import make_diagnostic
from .properties import HASH, NONE, function_ast, infer_properties

_WIDE = (p.ReduceByKey, p.GroupByKey, p.CoGroup)

#: How many driver-side records NPL203 samples per Parallelize node.
_KEY_SAMPLE = 8


def analyze_plan(root, config=None):
    """Lint one plan DAG; returns a list of Diagnostics.

    Args:
        root: The root :class:`~repro.engine.plan.PlanNode` (e.g.
            ``bag.node``).
        config: The :class:`~repro.engine.config.ClusterConfig` whose
            memory bounds the NPL303 prediction uses; without one the
            memory check is skipped.
    """
    ids = p.assign_node_ids(root)
    parts = p.partition_counts(root)
    consumers = p.consumer_counts(root)
    props = infer_properties(root)
    has_wide = any(
        isinstance(node, _WIDE) for node in p.iter_nodes_ordered(root)
    )
    diags = []

    def ref(node):
        return p.describe_node(node, ids, parts)

    for node in p.iter_nodes_ordered(root):
        _check_uncached_reuse(node, consumers, ref, diags)
        _check_filter_pushdown(node, ref, diags)
        if config is not None:
            _check_broadcast_size(node, config, ref, diags)
        _check_redundant_repartition(node, ref, diags)
        _check_partitioning(node, props, ref, diags)
        if has_wide:
            _check_unstable_keys(node, ref, diags)
    from .schema import schema_diagnostics

    diags.extend(schema_diagnostics(root, ids, parts))
    return diags


def analyze_bag(bag):
    """Convenience wrapper: lint a Bag against its context's config."""
    return analyze_plan(bag.node, bag.context.config)


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def _check_uncached_reuse(node, consumers, ref, diags):
    uses = consumers.get(id(node), 0)
    if uses < 2 or node.cached:
        return
    if isinstance(node, p.Parallelize):
        # Driver-side data re-splits cheaply; no lineage recompute.
        return
    diags.append(
        make_diagnostic(
            "NPL301",
            "%s is consumed %d times without cache(); lineage will "
            "recompute it once per consumer -- call .cache() on the "
            "shared bag" % (ref(node), uses),
            node=ref(node),
        )
    )


def _check_filter_pushdown(node, ref, diags):
    if not isinstance(node, p.Filter):
        return
    child = node.child
    if not isinstance(child, _WIDE):
        return
    if _reads_only_key(node.fn) is not True:
        return
    diags.append(
        make_diagnostic(
            "NPL302",
            "%s reads only the key of %s's output; filtering before "
            "the shuffle would drop those records from the shuffle "
            "instead of after it" % (ref(node), ref(child)),
            node=ref(node),
        )
    )


def _check_broadcast_size(node, config, ref, diags):
    if isinstance(node, p.BroadcastJoin):
        build = node.right
    elif isinstance(node, p.CrossBroadcast):
        build = node.right if node.broadcast_side == "right" else node.left
    else:
        return
    count = p.static_record_count(build)
    if count is None:
        return
    needed, limit = broadcast_footprint(count, config, meta=build.meta)
    if needed <= limit:
        return
    diags.append(
        make_diagnostic(
            "NPL303",
            "%s broadcasts %s (%d records, ~%d bytes materialized) "
            "but the executor memory bound is %d bytes: the engine "
            "will raise SimulatedOutOfMemory at execution -- use a "
            "repartition join" % (ref(node), ref(build), count, needed,
                                  limit),
            node=ref(node),
        )
    )


def _check_redundant_repartition(node, ref, diags):
    # The wide-above-wide case this check used to flag is strictly
    # subsumed by NPL401 (property inference proves the layout reuse
    # and the engine elides the shuffle); only the coalesce-of-coalesce
    # case remains here, so one plan defect yields one diagnostic.
    if isinstance(node, p.Coalesce) and isinstance(node.child, p.Coalesce):
        diags.append(
            make_diagnostic(
                "NPL304",
                "%s immediately re-coalesces %s; the inner coalesce "
                "does no enduring work -- coalesce once to the final "
                "partition count" % (ref(node), ref(node.child)),
                node=ref(node),
            )
        )


def _wide_input_sides(node, props):
    """(side_name, Partitioning) for each shuffled input of a wide node."""
    if isinstance(node, p.CoGroup):
        return (
            ("left", props.partitioning_of(node.left)),
            ("right", props.partitioning_of(node.right)),
        )
    return (("input", props.partitioning_of(node.child)),)


def _check_partitioning(node, props, ref, diags):
    """NPL401-404: partitioning-property findings for one wide node."""
    if not isinstance(node, _WIDE):
        return
    elision = props.elisions.get(id(node))
    if elision is not None:
        if elision.choice == "elide":
            what = (
                "%s re-shuffles data already partitioned by %s into "
                "%d partitions; the engine elides this shuffle (no "
                "records move)"
                % (ref(node), ref(elision.origin), node.num_partitions)
            )
        elif elision.choice == "elide-both":
            what = (
                "both inputs of %s already share the layout of %s; "
                "the engine elides the shuffle entirely"
                % (ref(node), ref(elision.origin))
            )
        else:
            side = "left" if elision.choice == "adopt-left" else "right"
            what = (
                "the %s input of %s already has the layout of %s; the "
                "engine keeps it in place and shuffles only the other "
                "side" % (side, ref(node), ref(elision.origin))
            )
        diags.append(make_diagnostic("NPL401", what, node=ref(node)))
    for side, partitioning in _wide_input_sides(node, props):
        if (
            partitioning.kind == HASH
            and partitioning.num_partitions != node.num_partitions
        ):
            diags.append(
                make_diagnostic(
                    "NPL403",
                    "the %s input of %s is hash-partitioned into %d "
                    "partitions but %s shuffles into %d; the count "
                    "mismatch forces a full reshuffle -- align the "
                    "partition counts to enable elision"
                    % (side, ref(node), partitioning.num_partitions,
                       ref(node), node.num_partitions),
                    node=ref(node),
                )
            )
            continue
        if partitioning.kind != NONE or partitioning.lost is None:
            continue
        lost = partitioning.lost
        if lost.num_partitions != node.num_partitions:
            continue
        blame = partitioning.blame
        if partitioning.reason == "rewrites-key":
            diags.append(
                make_diagnostic(
                    "NPL402",
                    "%s rewrites the key slot and destroys the "
                    "co-partitioning of %s right before %s, which "
                    "could otherwise elide its shuffle"
                    % (ref(blame), ref(lost.origin), ref(node)),
                    node=ref(blame),
                )
            )
        elif partitioning.reason == "unproven":
            diags.append(
                make_diagnostic(
                    "NPL404",
                    "%s could not be proven key-preserving, so %s "
                    "cannot reuse the layout of %s; if the UDF never "
                    "rewrites the key, pass preserves_partitioning="
                    "True to enable shuffle elision"
                    % (ref(blame), ref(node), ref(lost.origin)),
                    node=ref(blame),
                )
            )


def _check_unstable_keys(node, ref, diags):
    """NPL203: driver data whose keys hash via the repr() fallback."""
    if not isinstance(node, p.Parallelize):
        return
    for record in node.data[:_KEY_SAMPLE]:
        if not isinstance(record, tuple) or len(record) != 2:
            continue
        reason = unstable_key_reason(record[0])
        if reason is not None:
            diags.append(
                make_diagnostic(
                    "NPL203",
                    "%s feeds a shuffle with keys that are not "
                    "canonically hashable: %s -- use primitives or "
                    "tuples of primitives as shuffle keys"
                    % (ref(node), reason),
                    node=ref(node),
                )
            )
            return


# ---------------------------------------------------------------------------
# predicate analysis for NPL302
# ---------------------------------------------------------------------------


def _reads_only_key(fn):
    """True / False / None(unknown): does ``fn(kv)`` read only ``kv[0]``?

    Best-effort: parses the predicate's source.  Multi-line lambdas,
    builtins, and functions without retrievable source return ``None``
    (the check stays silent rather than guessing).
    """
    lambda_node = function_ast(fn)
    if lambda_node is None:
        return None
    args = lambda_node.args
    if len(args.args) != 1 or args.vararg or args.kwarg or args.kwonlyargs:
        return None
    param = args.args[0].arg
    body = (
        lambda_node.body
        if isinstance(lambda_node, ast.Lambda)
        else lambda_node
    )
    uses = []
    key_uses = set()
    for node in ast.walk(body):
        if isinstance(node, ast.Name) and node.id == param:
            uses.append(node)
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == param
            and isinstance(node.slice, ast.Constant)
            and node.slice.value == 0
        ):
            key_uses.add(id(node.value))
    if not uses:
        return None
    return all(id(use) in key_uses for use in uses)
