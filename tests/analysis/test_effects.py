"""Effect & determinism analysis: EffectReport verdicts, NPL5xx
diagnostics, interprocedural resolution, fingerprints, plan-level
combination.

Every NPL5xx dimension gets a positive (refuted -> diagnostic) and
negative (proven -> clean) case, plus conservativeness checks: the
analysis must never answer ``proven`` for code with an actual effect --
unknown is always the acceptable fallback, a wrong proof never is.
"""

import ast
import functools
import random
import textwrap

from repro.analysis.effects import (
    DETERMINISM,
    IO,
    PURITY,
    EffectReport,
    analyze_effects,
    combine_reports,
    effect_diagnostics,
    effects_notes,
    fingerprint_function,
    plan_effects,
    scan_effects,
    static_resolver,
    subtree_effects,
    task_effects,
    verdict,
)

_SINK = []


# ---------------------------------------------------------------------------
# module-level subjects (runtime resolver needs real source)
# ---------------------------------------------------------------------------


def _clean(x):
    return x * 2 + len(str(x))


def _mutates_global(x):
    _SINK.append(x)
    return x


def _calls_mutator(x):
    return _mutates_global(x) + 1


def _rolls_dice(x):
    return x + random.random()


def _seeded(x):
    rng = random.Random(42)
    return x + rng.random()


def _opens_file(path):
    with open(path) as handle:
        return handle.read()


def _prints(x):
    print(x)
    return x


def _fresh_copy(xs):
    out = list(xs)
    out.append(1)
    return out


def _recurses_a(x):
    return _recurses_b(x)


def _recurses_b(x):
    if x <= 0:
        return 0
    return _recurses_a(x - 1)


def _unknown_callee(x):
    return ast.walk(x)


# ---------------------------------------------------------------------------
# verdicts and report algebra
# ---------------------------------------------------------------------------


def test_verdict_names():
    assert verdict(True) == "proven"
    assert verdict(False) == "refuted"
    assert verdict(None) == "unknown"


def test_proven_requires_all_three():
    assert EffectReport().proven
    assert not EffectReport(pure=None).proven
    assert not EffectReport(deterministic=False).proven


def test_summary_tokens():
    assert EffectReport().summary() == "pure det io-free"
    report = EffectReport(pure=None, deterministic=False, io_free=None)
    assert report.summary() == "pure? nondet io?"


def test_combine_refuted_beats_unknown_beats_proven():
    combined = combine_reports([
        EffectReport(),
        EffectReport(pure=None, deterministic=False),
    ])
    assert combined.pure is None
    assert combined.deterministic is False
    assert combined.io_free is True


def test_combine_empty_is_proven():
    assert combine_reports([]).proven
    assert task_effects(()).proven


# ---------------------------------------------------------------------------
# NPL501 purity
# ---------------------------------------------------------------------------


def test_clean_udf_proven_pure():
    report = analyze_effects(_clean)
    assert report.pure is True
    assert report.proven


def test_global_mutation_refutes_purity():
    report = analyze_effects(_mutates_global)
    assert report.pure is False
    assert any(
        r.dimension == PURITY and r.refuting for r in report.reasons
    )


def test_purity_refutation_is_interprocedural():
    assert analyze_effects(_calls_mutator).pure is False


def test_fresh_object_mutation_stays_pure():
    assert analyze_effects(_fresh_copy).pure is True


def test_captured_mutation_refutes_purity():
    acc = []

    def udf(x):
        acc.append(x)
        return x

    assert analyze_effects(udf).pure is False


# ---------------------------------------------------------------------------
# NPL502 determinism
# ---------------------------------------------------------------------------


def test_module_random_refutes_determinism():
    report = analyze_effects(_rolls_dice)
    assert report.deterministic is False
    assert any(
        r.dimension == DETERMINISM and r.refuting for r in report.reasons
    )


def test_seeded_local_rng_is_deterministic():
    report = analyze_effects(_seeded)
    assert report.deterministic is True
    assert report.proven


# ---------------------------------------------------------------------------
# NPL503 external I/O
# ---------------------------------------------------------------------------


def test_open_refutes_io_freedom():
    report = analyze_effects(_opens_file)
    assert report.io_free is False
    assert any(r.dimension == IO and r.refuting for r in report.reasons)


def test_print_refutes_io_freedom():
    assert analyze_effects(_prints).io_free is False


def test_pure_arithmetic_proven_io_free():
    assert analyze_effects(_clean).io_free is True


# ---------------------------------------------------------------------------
# conservativeness: unresolvable constructs degrade to unknown, never
# to a wrong proof
# ---------------------------------------------------------------------------


def test_unknown_callee_is_unknown_not_proven():
    report = analyze_effects(_unknown_callee)
    assert report.pure is not True
    assert report.pure is not False  # no effect was demonstrated either


def test_recursion_terminates_and_stays_sound():
    report = analyze_effects(_recurses_a)
    # cycle-safe: must terminate; the verdict may be unknown but must
    # not be refuted (there is no actual effect in the cycle).
    assert report.pure is not False
    assert report.io_free is not False


def test_sourceless_builtin_is_all_unknown():
    report = analyze_effects(len)
    assert report.pure is None
    assert report.deterministic is None
    assert report.io_free is None


def test_partial_and_bound_methods_analyzed():
    assert analyze_effects(functools.partial(_clean)).proven
    assert (
        analyze_effects(functools.partial(_rolls_dice)).deterministic
        is False
    )


# ---------------------------------------------------------------------------
# NPL5xx diagnostics
# ---------------------------------------------------------------------------


def test_refuted_dimensions_emit_npl5_codes():
    def udf(x):
        _SINK.append(x)
        print(x + random.random())
        return x

    report = analyze_effects(udf)
    codes = {d.code for d in effect_diagnostics(report, udf_name="udf")}
    assert codes == {"NPL501", "NPL502", "NPL503"}


def test_unknown_dimensions_emit_no_diagnostics():
    report = analyze_effects(_unknown_callee)
    assert report.pure is None
    assert effect_diagnostics(report) == []


def test_proven_report_emits_no_diagnostics():
    assert effect_diagnostics(analyze_effects(_clean)) == []


def test_diagnostic_messages_name_the_udf():
    diags = effect_diagnostics(
        analyze_effects(_opens_file), udf_name="loader"
    )
    assert any("'loader'" in d.message for d in diags)
    assert all(d.severity == "warning" for d in diags)


# ---------------------------------------------------------------------------
# static resolver (no-import CLI path)
# ---------------------------------------------------------------------------


def test_static_resolver_follows_module_helpers():
    source = textwrap.dedent(
        """
        def helper(x):
            print(x)
            return x

        def udf(x):
            return helper(x) + 1
        """
    )
    tree = ast.parse(source)
    resolver = static_resolver(tree)
    udf_def = tree.body[1]
    report = scan_effects(udf_def, resolver=resolver)
    assert report.io_free is False


def test_static_resolver_unresolved_call_is_unknown():
    tree = ast.parse("def udf(x):\n    return mystery(x)\n")
    report = scan_effects(tree.body[0], resolver=static_resolver(tree))
    assert report.pure is None
    assert report.pure is not False


# ---------------------------------------------------------------------------
# plan-level combination
# ---------------------------------------------------------------------------


def test_plan_effects_combines_subtree(ctx):
    bag = ctx.bag_of([1, 2, 3]).map(_rolls_dice).filter(lambda x: x > 0)
    reports = plan_effects(bag.node)
    root_report = reports[id(bag.node)]
    assert root_report.deterministic is False
    assert subtree_effects(bag.node).deterministic is False


def test_plan_effects_proven_for_clean_chain(ctx):
    bag = ctx.bag_of([1, 2, 3]).map(_clean)
    assert subtree_effects(bag.node).proven


def test_a_diamond_keeps_each_reason_once(ctx):
    # ``b = b.cogroup(b).map(...)`` doubles the paths from the root to
    # the source at every level: 2**16 of them here.  The root report
    # holds each UDF reason once, not once per path.
    udfs = (_rolls_dice, _unknown_callee)
    bag = ctx.bag_of([(1, 2)]).map(_rolls_dice)
    for _ in range(16):
        bag = bag.cogroup(bag).map(_unknown_callee)
    root = subtree_effects(bag.node)
    distinct = {
        id(reason) for fn in udfs for reason in analyze_effects(fn).reasons
    }
    assert 0 < len(root.reasons) <= len(distinct)
    combined = task_effects(udfs)
    assert (root.pure, root.deterministic, root.io_free) == (
        combined.pure, combined.deterministic, combined.io_free
    )
    assert root.deterministic is False and root.pure is None


def test_effects_notes_only_on_udf_nodes(ctx):
    bag = ctx.bag_of([1, 2, 3]).map(_clean)
    notes = effects_notes(bag.node)
    assert notes == {id(bag.node): "pure det io-free"}


def test_bag_explain_effects(ctx):
    bag = ctx.bag_of([1, 2, 3]).map(_rolls_dice)
    text = bag.explain(effects=True)
    assert "nondet" in text


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------


def test_fingerprint_is_stable():
    assert fingerprint_function(_clean) == fingerprint_function(_clean)


def test_fingerprint_distinguishes_bodies():
    assert fingerprint_function(_clean) != fingerprint_function(_prints)


def test_fingerprint_covers_called_helpers():
    assert fingerprint_function(_calls_mutator) != fingerprint_function(
        _clean
    )


def test_fingerprint_unwraps_partials():
    assert fingerprint_function(
        functools.partial(_clean)
    ) == fingerprint_function(_clean)


def test_fingerprint_none_without_source():
    assert fingerprint_function(len) is None
