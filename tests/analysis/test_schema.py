"""Whole-plan schema & shape inference (:mod:`repro.analysis.schema`).

Covers the lattice, UDF abstract interpretation, plan-level inference,
the hashability verdict, and at least one positive and one negative
case for every NPL6xx diagnostic plus the NPL001 skip notice.
"""

import pytest

from repro.analysis.schema import (
    ANY,
    BOOL,
    FLOAT,
    INT,
    ListType,
    STR,
    ScalarType,
    TupleType,
    UnhashableType,
    hashable_verdict,
    infer_schemas,
    infer_udf_schema,
    join_types,
    schema_diagnostics,
    schema_notes,
)
from repro.engine import plan as p
from repro.udf import clear_cache


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


# ----------------------------------------------------------------------
# module-level UDFs (lambdas on their own lines, so source is located)
# ----------------------------------------------------------------------


def _double(x):
    return x * 2


def _to_pair(x):
    return (x, x / 2)


def _to_str(x):
    return "n=%d" % x


def _to_list_key(x):
    return ([x], x)


def _add(a, b):
    return a + b


def _helper_square(x):
    return x * x


def _calls_helper(x):
    return _helper_square(x) + 1


def _swap(pair):
    key, value = pair
    return (value, key)


def _explode(x):
    return [x, x + 1, x + 2]


def _recursive(x):
    return _recursive(x)


# ----------------------------------------------------------------------
# lattice
# ----------------------------------------------------------------------


class TestLattice:
    def test_join_identical(self):
        assert join_types(INT, INT) == INT
        assert join_types(
            TupleType((INT, FLOAT)), TupleType((INT, FLOAT))
        ) == TupleType((INT, FLOAT))

    def test_int_float_join_is_any(self):
        # Mixed columns are not provably lossless, so the join refuses
        # to claim float.
        assert join_types(INT, FLOAT) is ANY

    def test_bool_never_decays_to_int(self):
        assert join_types(BOOL, INT) is ANY
        assert BOOL != INT

    def test_any_absorbs(self):
        assert join_types(ANY, INT) is ANY
        assert join_types(TupleType((INT,)), ANY) is ANY

    def test_tuple_join_elementwise(self):
        joined = join_types(
            TupleType((INT, INT)), TupleType((INT, FLOAT))
        )
        assert joined == TupleType((INT, ANY))

    def test_mismatched_arity_joins_to_any(self):
        assert join_types(
            TupleType((INT, INT)), TupleType((INT,))
        ) is ANY

    def test_list_join(self):
        assert join_types(ListType(INT), ListType(INT)) == ListType(INT)
        assert join_types(ListType(INT), ListType(STR)) == ListType(ANY)

    def test_reprs_are_stable(self):
        assert repr(ANY) == "?"
        assert repr(TupleType((INT, FLOAT))) == "(int, float)"
        assert repr(TupleType((INT,))) == "(int,)"
        assert repr(ListType(INT)) == "[int]"
        assert repr(UnhashableType("dict")) == "dict"


# ----------------------------------------------------------------------
# verdicts
# ----------------------------------------------------------------------


class TestVerdicts:
    def test_hashable_verdicts(self):
        assert hashable_verdict(INT) is True
        assert hashable_verdict(TupleType((INT, STR))) is True
        assert hashable_verdict(ListType(INT)) is False
        assert hashable_verdict(UnhashableType("dict")) is False
        assert hashable_verdict(TupleType((INT, ListType(INT)))) is False
        assert hashable_verdict(ANY) is None
        assert hashable_verdict(TupleType((INT, ANY))) is None


# ----------------------------------------------------------------------
# UDF abstract interpretation
# ----------------------------------------------------------------------


class TestUdfInference:
    def test_arithmetic(self):
        assert infer_udf_schema(_double, (INT,)) == INT
        assert infer_udf_schema(_double, (FLOAT,)) == FLOAT

    def test_division_is_float(self):
        assert infer_udf_schema(_to_pair, (INT,)) == TupleType(
            (INT, FLOAT)
        )

    def test_string_formatting(self):
        assert infer_udf_schema(_to_str, (INT,)) == STR

    def test_transitive_helper_call(self):
        assert infer_udf_schema(_calls_helper, (INT,)) == INT

    def test_tuple_unpack_in_body(self):
        assert infer_udf_schema(
            _swap, (TupleType((INT, STR)),)
        ) == TupleType((STR, INT))

    def test_flat_map_semantics(self):
        assert infer_udf_schema(_explode, (INT,), flat=True) == INT

    def test_lambda_inference(self):
        key_by_parity = lambda x: (x % 2, x)  # noqa: E731
        assert infer_udf_schema(key_by_parity, (INT,)) == TupleType(
            (INT, INT)
        )

    def test_comparison_is_bool(self):
        is_even = lambda x: x % 2 == 0  # noqa: E731
        assert infer_udf_schema(is_even, (INT,)) == BOOL

    def test_control_flow_answers_any(self):
        def branchy(x):
            if x > 0:
                return x
            return -x

        assert infer_udf_schema(branchy, (INT,)) is ANY

    def test_recursion_answers_any(self):
        assert infer_udf_schema(_recursive, (INT,)) is ANY

    def test_unreadable_source_is_skipped(self):
        skips = []
        assert infer_udf_schema(str, (INT,), skips=skips) is ANY
        assert str in skips

    def test_skips_resurface_on_cache_hits(self):
        first = []
        infer_udf_schema(str, (INT,), skips=first)
        second = []
        infer_udf_schema(str, (INT,), skips=second)
        assert second == first

    def test_builtin_conversions(self):
        to_float = lambda x: float(x)  # noqa: E731
        assert infer_udf_schema(to_float, (INT,)) == FLOAT
        measure = lambda s: len(s)  # noqa: E731
        assert infer_udf_schema(measure, (STR,)) == INT

    def test_subscript_on_tuple(self):
        first = lambda pair: pair[0]  # noqa: E731
        assert infer_udf_schema(
            first, (TupleType((STR, INT)),)
        ) == STR

    def test_comprehension_over_range(self):
        spread = lambda x: [i * 2 for i in range(x)]  # noqa: E731
        assert infer_udf_schema(spread, (INT,)) == ListType(INT)


# ----------------------------------------------------------------------
# plan-level inference
# ----------------------------------------------------------------------


class TestPlanInference:
    def test_parallelize_scalar_scan(self, ctx):
        bag = ctx.bag_of([1, 2, 3])
        assert infer_schemas(bag.node).schema_of(bag.node) == INT

    def test_parallelize_scan_is_exact_about_bool(self, ctx):
        bag = ctx.bag_of([1, 2, True])
        # bool is not int: a mixed scan answers ANY, never a kind that
        # would let True encode as 1.
        assert infer_schemas(bag.node).schema_of(bag.node) is ANY

    def test_parallelize_tuple_scan(self, ctx):
        bag = ctx.bag_of([(1, "a"), (2, "b")])
        assert infer_schemas(bag.node).schema_of(bag.node) == TupleType(
            (INT, STR)
        )

    def test_map_filter_chain(self, ctx):
        bag = ctx.bag_of([1, 2, 3]).map(_to_pair).filter(_truthy)
        assert infer_schemas(bag.node).schema_of(bag.node) == TupleType(
            (INT, FLOAT)
        )

    def test_flat_map(self, ctx):
        bag = ctx.bag_of([1, 2]).flat_map(_explode)
        assert infer_schemas(bag.node).schema_of(bag.node) == INT

    def test_group_by_key(self, ctx):
        bag = ctx.bag_of([(1, 2.0), (1, 3.0)]).group_by_key()
        assert infer_schemas(bag.node).schema_of(bag.node) == TupleType(
            (INT, ListType(FLOAT))
        )

    def test_reduce_by_key_fixpoint(self, ctx):
        bag = ctx.bag_of([(1, 2), (1, 3)]).reduce_by_key(_add)
        assert infer_schemas(bag.node).schema_of(bag.node) == TupleType(
            (INT, INT)
        )

    def test_zip_with_unique_id(self, ctx):
        bag = ctx.bag_of(["a", "b"]).zip_with_unique_id()
        assert infer_schemas(bag.node).schema_of(bag.node) == TupleType(
            (STR, INT)
        )

    def test_union_joins_branches(self, ctx):
        left = ctx.bag_of([1, 2])
        right = ctx.bag_of([3, 4])
        merged = left.union(right)
        assert infer_schemas(merged.node).schema_of(merged.node) == INT

    def test_cogroup_shape(self, ctx):
        left = ctx.bag_of([(1, 2.0)])
        right = ctx.bag_of([(1, "x")])
        merged = left.cogroup(right)
        assert infer_schemas(merged.node).schema_of(
            merged.node
        ) == TupleType(
            (INT, TupleType((ListType(FLOAT), ListType(STR))))
        )

    def test_map_partitions_is_any(self, ctx):
        bag = ctx.bag_of([1, 2]).map_partitions(_identity_part)
        assert infer_schemas(bag.node).schema_of(bag.node) is ANY


def _truthy(pair):
    return pair[0] > 0


def _identity_part(part):
    return part


# ----------------------------------------------------------------------
# NPL6xx diagnostics
# ----------------------------------------------------------------------


def _codes(diags):
    return [d.code for d in diags]


class TestSchemaDiagnostics:
    def test_npl601_key_type_mismatch(self, ctx):
        left = ctx.bag_of([(1, "a")])
        right = ctx.bag_of([("x", 2.0)])
        diags = schema_diagnostics(left.cogroup(right).node)
        assert "NPL601" in _codes(diags)
        found = [d for d in diags if d.code == "NPL601"][0]
        assert "int" in found.message and "str" in found.message

    def test_npl601_not_fired_for_numeric_kinds(self, ctx):
        # 1 == 1.0 hash-match: int vs float keys are compatible.
        left = ctx.bag_of([(1, "a")])
        right = ctx.bag_of([(1.5, "b")])
        diags = schema_diagnostics(left.cogroup(right).node)
        assert "NPL601" not in _codes(diags)

    def test_npl602_union_arity_mismatch(self, ctx):
        pairs = ctx.bag_of([(1, 2)])
        flat = ctx.bag_of([3, 4])
        diags = schema_diagnostics(pairs.union(flat).node)
        assert "NPL602" in _codes(diags)

    def test_npl602_allows_kind_differences(self, ctx):
        # Same shape, different scalar kinds: allowed (heterogeneous
        # unions are legal), so no finding.
        ints = ctx.bag_of([1, 2])
        floats = ctx.bag_of([1.5, 2.5])
        diags = schema_diagnostics(ints.union(floats).node)
        assert "NPL602" not in _codes(diags)

    def test_npl603_non_hashable_key(self, ctx):
        bag = ctx.bag_of([1, 2]).map(_to_list_key).group_by_key()
        diags = schema_diagnostics(bag.node)
        assert "NPL603" in _codes(diags)
        found = [d for d in diags if d.code == "NPL603"][0]
        assert found.severity == "error"

    def test_npl603_not_fired_for_tuple_keys(self, ctx):
        bag = ctx.bag_of([((1, 2), 3)]).group_by_key()
        diags = schema_diagnostics(bag.node)
        assert "NPL603" not in _codes(diags)

    def test_npl001_skip_notice(self, ctx):
        bag = ctx.bag_of([1, 2]).map(str)
        diags = schema_diagnostics(bag.node)
        npl001 = [d for d in diags if d.code == "NPL001"]
        assert len(npl001) == 1
        assert "str" in npl001[0].message

    def test_clean_plan_has_no_findings(self, ctx):
        bag = (
            ctx.bag_of([1, 2, 3])
            .map(_to_pair)
            .reduce_by_key(_add_floats)
        )
        assert schema_diagnostics(bag.node) == []


def _add_floats(a, b):
    return a + b


# ----------------------------------------------------------------------
# explain notes & plan lint integration
# ----------------------------------------------------------------------


class TestNotesAndLint:
    def test_schema_notes_cover_every_node(self, ctx):
        bag = ctx.bag_of([1, 2]).map(_to_pair).group_by_key()
        notes = schema_notes(bag.node)
        nodes = list(p.iter_nodes_ordered(bag.node))
        assert len(notes) == len(nodes)
        assert all(text.startswith("schema=") for text in notes.values())

    def test_explain_schema_flag(self, ctx):
        text = ctx.bag_of([1, 2]).map(_to_pair).explain(schema=True)
        assert "schema=(int, float)" in text
        assert "schema=int" in text

    def test_explain_flags_compose_in_stable_order(self, ctx):
        bag = ctx.bag_of([(1, 2)]).map(_swap).group_by_key()
        text = bag.explain(
            properties=True, effects=True, compile=True, schema=True
        )
        # The Map node carries all four note families; they must render
        # in the fixed order properties -> effects -> compile -> schema.
        line = next(
            ln for ln in text.splitlines()
            if "Map" in ln and "schema=" in ln
        )
        markers = [
            line.index("pure"),
            line.index("compiled="),
            line.index("schema="),
        ]
        assert markers == sorted(markers)
        # Running the flags one at a time yields the same annotations.
        solo = bag.explain(schema=True)
        assert "schema=(int, [int])" in solo

    def test_plan_lint_includes_schema_findings(self, ctx):
        from repro.analysis import analyze_plan

        bag = ctx.bag_of([1, 2]).map(_to_list_key).group_by_key()
        codes = _codes(analyze_plan(bag.node, ctx.config))
        assert "NPL603" in codes

    def test_collect_lint_error_raises_on_npl603(self, ctx):
        from repro.errors import AnalysisError

        bag = ctx.bag_of([1, 2]).map(_to_list_key).group_by_key()
        with pytest.raises(AnalysisError):
            bag.collect(lint="error")
