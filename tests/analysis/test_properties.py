"""Plan-property inference: partitioning and key preservation."""

import pytest

from repro.analysis.properties import (
    HASH,
    NONE,
    infer_properties,
    partitioning_notes,
    udf_preserves_key,
)
from repro.engine import EngineContext, dag, executor, laptop_config
from repro.engine.plan import CoGroup, GroupByKey
from tests.programs import (
    PROGRAMS,
    library_programs,
    stale_layout_elide_both_program,
)


def _add(a, b):
    return a + b


def _keyed(ctx, n=60, k=5):
    return ctx.bag_of(list(range(n))).map(lambda x: (x % k, x))


# ---------------------------------------------------------------------------
# the UDF key-preservation prover
# ---------------------------------------------------------------------------


def _identity(kv):
    return kv


def _map_value(kv):
    return (kv[0], kv[1] * 2)


def _keys_only(kv):
    return kv[0]


def _swap(kv):
    return (kv[1], kv[0])


def _rekey_const(kv):
    return (0, kv[1])


def _rekey_call(kv):
    return (hash(kv[0]), kv[1])


def _unpack_rebuild(kv):
    k, v = kv
    return (k, v + 1)


def _opaque(kv):
    return _swap(kv)


def _flat_pairs(kv):
    return [(kv[0], v) for v in kv[1]]


def _flat_rekeyed(kv):
    return [(v, kv[0]) for v in kv[1]]


def test_prover_identity_and_value_maps_preserve():
    assert udf_preserves_key(_identity) is True
    assert udf_preserves_key(_map_value) is True
    assert udf_preserves_key(_unpack_rebuild) is True
    assert udf_preserves_key(lambda kv: (kv[0], abs(kv[1]))) is True


def test_prover_key_rewrites_are_refuted():
    assert udf_preserves_key(_keys_only) is False
    assert udf_preserves_key(_swap) is False
    assert udf_preserves_key(_rekey_const) is False
    assert udf_preserves_key(lambda kv: kv[1]) is False


def test_prover_unknown_stays_unknown():
    # A computed key or a helper call is neither proven nor refuted.
    assert udf_preserves_key(_rekey_call) is None
    assert udf_preserves_key(_opaque) is None


def test_prover_flat_map_variants():
    assert udf_preserves_key(_flat_pairs, flat=True) is True
    assert udf_preserves_key(_flat_rekeyed, flat=True) is False
    assert udf_preserves_key(lambda kv: [kv], flat=True) is True


def test_prover_handles_builtins_without_source():
    assert udf_preserves_key(len) is None


# ---------------------------------------------------------------------------
# partitioning inference over plans
# ---------------------------------------------------------------------------


def test_shuffle_output_is_hash_partitioned(ctx):
    bag = _keyed(ctx).reduce_by_key(_add, 4)
    part = infer_properties(bag.node).partitioning_of(bag.node)
    assert part.kind == HASH
    assert part.num_partitions == 4
    assert part.origin is bag.node


def test_same_layout_shuffle_is_elided(ctx):
    rbk = _keyed(ctx).reduce_by_key(_add, 4)
    gbk = rbk.group_by_key(4)
    props = infer_properties(gbk.node)
    elision = props.elisions.get(id(gbk.node))
    assert elision is not None
    assert elision.choice == "elide"
    assert elision.origin is rbk.node


def test_partition_count_mismatch_blocks_elision(ctx):
    gbk = _keyed(ctx).reduce_by_key(_add, 4).group_by_key(8)
    props = infer_properties(gbk.node)
    assert id(gbk.node) not in props.elisions
    assert props.partitioning_of(gbk.node).num_partitions == 8


def test_key_preserving_map_inherits_partitioning(ctx):
    mapped = _keyed(ctx).reduce_by_key(_add, 4).map(_map_value)
    gbk = mapped.group_by_key(4)
    props = infer_properties(gbk.node)
    assert props.partitioning_of(mapped.node).kind == HASH
    assert props.elisions[id(gbk.node)].choice == "elide"


def test_key_rewriting_map_destroys_partitioning(ctx):
    mapped = _keyed(ctx).reduce_by_key(_add, 4).map(_swap)
    props = infer_properties(mapped.node)
    part = props.partitioning_of(mapped.node)
    assert part.kind == NONE
    assert part.reason == "rewrites-key"
    assert part.blame is mapped.node
    assert part.lost is not None and part.lost.num_partitions == 4


def test_preserves_partitioning_hint_overrides_unproven(ctx):
    rbk = _keyed(ctx).reduce_by_key(_add, 4)
    unproven = rbk.map(_opaque).group_by_key(4)
    hinted = rbk.map(_opaque, preserves_partitioning=True).group_by_key(4)
    assert id(unproven.node) not in infer_properties(unproven.node).elisions
    assert id(hinted.node) in infer_properties(hinted.node).elisions


def test_coalesce_destroys_hash_partitioning(ctx):
    bag = _keyed(ctx).reduce_by_key(_add, 4).coalesce(2)
    part = infer_properties(bag.node).partitioning_of(bag.node)
    assert part.kind == NONE
    assert part.reason == "coalesce"


def test_union_of_mixed_partitionings_is_unknown(ctx):
    rbk = _keyed(ctx).reduce_by_key(_add, 4)
    merged = rbk.union(_keyed(ctx))
    part = infer_properties(merged.node).partitioning_of(merged.node)
    assert part.kind == NONE
    assert part.reason == "union"


def test_cogroup_with_shared_origin_elides_both(ctx):
    rbk = _keyed(ctx).reduce_by_key(_add, 4).cache()
    joined = rbk.join(rbk, num_partitions=4)
    # join() builds pairs with a FlatMap above the CoGroup.
    cogroup = joined.node.child
    props = infer_properties(joined.node)
    elision = props.elisions.get(id(cogroup))
    assert elision is not None and elision.choice == "elide-both"


def test_cogroup_adopts_one_partitioned_side(ctx):
    rbk = _keyed(ctx).reduce_by_key(_add, 4)
    other = _keyed(ctx, n=40)
    joined = rbk.join(other, num_partitions=4)
    cogroup = joined.node.child
    props = infer_properties(joined.node)
    elision = props.elisions.get(id(cogroup))
    assert elision is not None and elision.choice == "adopt-left"
    assert elision.origin is rbk.node


# ---------------------------------------------------------------------------
# the lint's prediction and the engine's decisions
# ---------------------------------------------------------------------------


def _decisions_per_job(monkeypatch, program):
    """Run ``program``; per job, the ``(node, predicted, made)`` triple
    of every wide node the job evaluates: ``infer_properties``'s
    elision and the engine's ``choose_elision``, each ``(choice,
    origin)`` or ``None``."""
    jobs = []
    plan_units = dag.plan_units
    choose = executor.choose_elision

    def planned(root):
        jobs.append((infer_properties(root).elisions, []))
        return plan_units(root)

    def choosing(node, left, right=None):
        made = choose(node, left, right)
        predicted, seen = jobs[-1]
        elision = predicted.get(id(node))
        if elision is not None:
            elision = (elision.choice, elision.origin)
        seen.append((node, elision, made))
        return made

    monkeypatch.setattr(dag, "plan_units", planned)
    monkeypatch.setattr(executor, "choose_elision", choosing)
    with EngineContext(laptop_config()) as ctx:
        program(ctx)
    return [seen for _predicted, seen in jobs]


@pytest.mark.parametrize("name, program", library_programs(), ids=PROGRAMS)
def test_every_predicted_elision_is_the_one_the_engine_makes(
        monkeypatch, name, program):
    # Every NPL401 the lint reports is a saving that happens, and the
    # engine elides nothing the lint does not predict.
    jobs = _decisions_per_job(monkeypatch, program)
    decided = [triple for seen in jobs for triple in seen]
    assert decided
    assert [
        (node.name, predicted, made)
        for node, predicted, made in decided if predicted != made
    ] == []


def test_two_runs_of_one_origin_are_the_one_refusal_the_plan_cannot_show(
        monkeypatch):
    jobs = _decisions_per_job(monkeypatch, stale_layout_elide_both_program)
    differing = [
        (node, predicted, made)
        for seen in jobs for node, predicted, made in seen
        if predicted != made
    ]
    # The cached side was laid out by an earlier run of the shuffle the
    # other side reran: the plan shows one origin, the engine sees two
    # assignments and reshuffles.
    [(node, (choice, origin), made)] = differing
    assert isinstance(node, CoGroup) and isinstance(origin, GroupByKey)
    assert (choice, made) == ("elide-both", None)


# ---------------------------------------------------------------------------
# explain(properties=True) annotations
# ---------------------------------------------------------------------------


def test_partitioning_notes_mark_hash_and_loss(ctx):
    mapped = _keyed(ctx).reduce_by_key(_add, 4).map(_swap)
    notes = partitioning_notes(mapped.node)
    rbk_node = mapped.node.child
    assert "hash(k0)" in notes[id(rbk_node)]
    assert "drops hash(k0)" in notes[id(mapped.node)]


def test_explain_properties_renders_annotations(ctx):
    bag = _keyed(ctx).reduce_by_key(_add, 4)
    plain = bag.explain()
    annotated = bag.explain(properties=True)
    assert "hash(k0)" not in plain
    assert "hash(k0)" in annotated
    assert "hash(k0)" in bag.explain(compact=True, properties=True)
