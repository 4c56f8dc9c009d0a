"""Plan node utilities and invariants."""

import pytest

from repro.engine import plan as p


def small_plan():
    source = p.Parallelize([1, 2, 3], num_partitions=2)
    mapped = p.Map(source, lambda x: x)
    reduced = p.ReduceByKey(mapped, lambda a, b: a, num_partitions=4)
    return source, mapped, reduced


class TestNodeBasics:
    def test_parallelize_splits_round_robin(self):
        node = p.Parallelize([1, 2, 3, 4, 5], num_partitions=2)
        parts = node.build_partitions()
        assert parts == [[1, 3, 5], [2, 4]]

    def test_parallelize_rejects_zero_partitions(self):
        with pytest.raises(ValueError):
            p.Parallelize([1], num_partitions=0)

    def test_empty_data_keeps_partition_count(self):
        node = p.Parallelize([], num_partitions=3)
        assert node.build_partitions() == [[], [], []]

    def test_children(self):
        source, mapped, reduced = small_plan()
        assert mapped.children == (source,)
        assert reduced.children == (mapped,)
        assert source.children == ()

    def test_binary_node_children(self):
        left = p.Parallelize([("a", 1)], 1)
        right = p.Parallelize([("a", 2)], 1)
        join = p.CoGroup(left, right, num_partitions=2)
        assert join.children == (left, right)

    def test_cross_rejects_bad_side(self):
        left = p.Parallelize([1], 1)
        right = p.Parallelize([2], 1)
        with pytest.raises(ValueError):
            p.CrossBroadcast(left, right, broadcast_side="middle")

    def test_union_rejects_empty(self):
        with pytest.raises(ValueError):
            p.Union([])


class TestTraversal:
    def test_iter_nodes_visits_all(self):
        source, mapped, reduced = small_plan()
        names = {node.name for node in p.iter_nodes(reduced)}
        assert names == {"Parallelize", "Map", "ReduceByKey"}

    def test_count_nodes_handles_diamonds(self):
        source = p.Parallelize([("a", 1)], 1)
        join = p.CoGroup(source, source, num_partitions=1)
        assert p.count_nodes(join) == 2

    def test_consumer_counts_count_parent_edges(self):
        # A diamond whose one side reads the shared node twice: three
        # edges into it, one into each side, none into the root.
        source = p.Parallelize([("a", 1)], 1)
        mapped = p.Map(source, lambda kv: kv)
        both = p.CoGroup(source, source, num_partitions=1)
        root = p.CoGroup(mapped, both, num_partitions=1)
        assert p.consumer_counts(root) == {
            id(source): 3, id(mapped): 1, id(both): 1,
        }

    def test_explain_indents(self):
        _s, _m, reduced = small_plan()
        lines = reduced.explain().splitlines()
        assert lines[0].startswith("ReduceByKey")
        assert lines[1].startswith("  Map")
        assert lines[2].startswith("    Parallelize")

    def test_explain_shows_cached_and_label(self):
        node = p.Parallelize([1], 1)
        node.cached = True
        node.label = "input"
        text = node.explain()
        assert "(cached)" in text
        assert "[input]" in text


class TestUnionFlattening:
    def test_nested_unions_collapse(self):
        a = p.Parallelize([1], 1)
        b = p.Parallelize([2], 1)
        c = p.Parallelize([3], 1)
        inner = p.Union([a, b])
        flat = p.flatten_union_inputs([inner, c])
        assert flat == [a, b, c]

    def test_cached_unions_preserved(self):
        a = p.Parallelize([1], 1)
        b = p.Parallelize([2], 1)
        inner = p.Union([a, b])
        inner.cached = True
        flat = p.flatten_union_inputs([inner])
        assert flat == [inner]

    def test_chain_partitions(self):
        assert p.chain_partitions([[[1], [2]], [[3]]]) == [
            [1], [2], [3],
        ]


class TestMetaPropagation:
    def test_derived_meta_requires_all_children(self, ctx):
        meta = ctx.bag_of([("a", 1)]).as_meta()
        data = ctx.bag_of([("a", 2)])
        assert meta.map(lambda kv: kv).is_meta
        assert not data.map(lambda kv: kv).is_meta
        assert not meta.join(data).is_meta
        assert meta.join(
            ctx.bag_of([("a", 3)]).as_meta()
        ).is_meta

    def test_union_meta(self, ctx):
        meta_a = ctx.bag_of([1]).as_meta()
        meta_b = ctx.bag_of([2]).as_meta()
        assert meta_a.union(meta_b).is_meta
        assert not meta_a.union(ctx.bag_of([3])).is_meta
