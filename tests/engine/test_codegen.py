"""Compiled fused pipelines: parity, gating, lowering (which UDF bodies
stand in the loop, and that no name of theirs meets one of the loop's),
caching, observability, and the size rule that decides which chains are
planned at all."""

import functools
import os
import pickle
import sys

import pytest

import repro.analysis.effects
from repro import udf
from repro.engine import EngineContext, codegen, laptop_config
from repro.engine.codegen import (
    chain_compilability,
    clear_compiled_cache,
    compiled_cache_size,
    compiled_pipeline,
    generate_source,
    lowering_note,
    plan_compiled_task,
    udf_lowering,
)
from repro.engine.runtime.task import (
    STEP_FILTER,
    STEP_FLATMAP,
    STEP_MAP,
    CompiledPipelineTask,
    FusedPipelineTask,
)
from repro.engine.work import Weighted
from repro.errors import UdfError
from repro.lang import nested_udf
from tests.engine.runtime.test_vector_pipeline import compiled_task
from tests.programs import trace_signature


# Module-level UDFs: provably pure, with recoverable source.


def _double(x):
    return x * 2


def _odd(x):
    return x % 2 == 1


def _pair(x):
    return [x, x + 1]


def _negate(x):
    return -x


def _weighted_pair(x):
    return [Weighted(x, work=3)]


_COUNTER = {"n": 0}


def _impure(x):
    _COUNTER["n"] += 1
    return x


def _steps(*pairs):
    return [
        (kind, fn, "%s#%d" % (fn.__name__.strip("_"), i))
        for i, (kind, fn) in enumerate(pairs)
    ]


class TestParity:
    """Compiled output must match the interpreter exactly: records,
    the summed per-operator count, and (trivially) no weighted works."""

    CHAINS = [
        _steps((STEP_MAP, _double)),
        _steps((STEP_FILTER, _odd)),
        _steps((STEP_FLATMAP, _pair)),
        _steps((STEP_MAP, _double), (STEP_FILTER, _odd)),
        _steps((STEP_FILTER, _odd), (STEP_MAP, _double)),
        _steps((STEP_MAP, _double), (STEP_FLATMAP, _pair),
               (STEP_FILTER, _odd), (STEP_MAP, _negate)),
        _steps((STEP_FLATMAP, _pair), (STEP_FLATMAP, _pair),
               (STEP_FILTER, _odd)),
        _steps((STEP_FILTER, _odd), (STEP_FILTER, _odd),
               (STEP_MAP, _double), (STEP_MAP, _negate),
               (STEP_FLATMAP, _pair)),
    ]

    @pytest.mark.parametrize("steps", CHAINS,
                             ids=["+".join(s[2] for s in c)
                                  for c in CHAINS])
    @pytest.mark.parametrize("part", [[], [7], list(range(20))],
                             ids=["empty", "one", "twenty"])
    def test_matches_interpreter(self, steps, part):
        task, reason = plan_compiled_task(steps)
        assert reason is None, reason
        out_i, count_i, works_i = FusedPipelineTask(steps)(list(part))
        out_c, count_c, works_c = task(list(part))
        assert out_c == out_i
        assert count_c == count_i
        assert works_c == works_i
        assert works_c is None


class TestGating:
    def test_impure_udf_falls_back(self):
        steps = _steps((STEP_MAP, _impure))
        key, reason = chain_compilability(steps)
        assert key is None
        assert "impure" in reason

    def test_unproven_purity_falls_back(self):
        # No recoverable source: exec'd functions can't be analyzed.
        namespace = {}
        exec("def mystery(x):\n    return x", namespace)
        steps = [(STEP_MAP, namespace["mystery"], "Map#1")]
        key, reason = chain_compilability(steps)
        assert key is None
        assert "purity unproven" in reason

    def test_weighted_returning_udf_falls_back(self):
        steps = _steps((STEP_MAP, _double),
                       (STEP_FLATMAP, _weighted_pair))
        key, reason = chain_compilability(steps)
        assert key is None
        assert "Weighted" in reason

    def test_pure_chain_gets_a_stable_key(self):
        steps = _steps((STEP_MAP, _double), (STEP_FILTER, _odd))
        key_a, _ = chain_compilability(steps)
        key_b, _ = chain_compilability(steps)
        assert key_a == key_b
        assert len(key_a) == 16

    def test_key_distinguishes_step_kinds(self):
        as_map = _steps((STEP_MAP, _double))
        as_filter = _steps((STEP_FILTER, _double))
        assert chain_compilability(as_map)[0] != (
            chain_compilability(as_filter)[0]
        )


class TestGeneratedSource:
    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            generate_source([])

    def test_source_is_one_loop(self):
        source = generate_source([STEP_MAP, STEP_FILTER, STEP_MAP])
        # One loop over the batch's partitions, one record loop, no
        # per-step dispatch machinery.
        assert source.count("for ") == 2
        assert "call_udf" not in source
        assert "unwrap" not in source

    def test_flatmap_nests_loops(self):
        source = generate_source([STEP_FLATMAP, STEP_FLATMAP])
        assert source.count("for ") == 4


# UDFs for TestLowering.  Every name a generated loop uses for itself
# appears below as a parameter or a captured name.


def _shadowing_steps(_out, _c, _push, _append):
    def add(_v0):
        return _v0 + _out

    def keep(_v1):
        return _v1 % _c != _push

    def pair(_v0):
        return (_v0, _append)

    def fold(_part):
        return _part[0] * _part[1] + _out

    return _steps(
        (STEP_MAP, add), (STEP_FILTER, keep), (STEP_FILTER, keep),
        (STEP_FILTER, keep), (STEP_FILTER, keep), (STEP_MAP, pair),
        (STEP_MAP, fold),
    )


def _adder(k):
    return lambda x: x + k


def bin(x):  # a module global shadowing a builtin
    return x + 1000


def _shadowed_builtin(x):
    return bin(x)


_OFFSET = 1


def _offset(x):
    return x + _OFFSET


def _with_default(x, k=3):
    return x + k


def _two_statements(x):
    y = x + 1
    return y * 2


def _documented(x):
    """A docstring is not a second statement."""
    return x * 2


class _Scaler:
    def __init__(self, k):
        self.k = k

    def scale(self, x):
        return x * self.k


@nested_udf
def _rewritten(x):
    return x + 1


def _to_pair(x):
    return (x, x * 0.5)


def _last(r):
    return (r[-1], r[0])


def _past(r):
    return (r[0], r[2])


def _starred(r):
    return (*r, r[0])


def _first_and_all(r):
    return (r[0], r)


def _keep_even_key(r):
    return r[0] % 2 == 0


def _sum_fields(r):
    return r[0] + r[1]


def _undefined_name(x):
    return x + _never_defined  # noqa: F821


class TestLowering:
    """Which steps lose their call, and that a lowered step means what
    its call meant.  ``compiled_task`` lowers past the gate, so a step
    the gate would refuse can still show its lowering verdict."""

    def test_single_expressions_are_substituted_not_called(self):
        steps = _steps((STEP_MAP, _double), (STEP_FILTER, _odd2),
                       (STEP_FLATMAP, _pair), (STEP_MAP, _documented))
        task, reason = plan_compiled_task(steps)
        assert reason is None
        assert "_udfs[" not in task.source
        assert task(list(range(30))) == FusedPipelineTask(steps)(
            list(range(30))
        )

    def test_names_equal_to_generated_locals_do_not_collide(self):
        steps = _shadowing_steps(5, 3, 1, 0.5)
        task, reason = plan_compiled_task(steps)
        assert reason is None
        assert "_udfs[" not in task.source
        for name in ("_out", "_c", "_push", "_append"):
            assert "__%s" % name.lstrip("_") in task.source  # renamed
        part = list(range(50))
        assert task(part) == FusedPipelineTask(steps)(part)
        assert task(part)[0] == [
            (x + 5) * 0.5 + 5 for x in part if (x + 5) % 3 != 1
        ]

    def test_closures_of_one_code_object_keep_their_own_constants(self):
        clear_compiled_cache()
        small = _steps((STEP_MAP, _adder(1)), (STEP_MAP, _adder(10)))
        large = _steps((STEP_MAP, _adder(100)), (STEP_MAP, _adder(1000)))
        task_small, _ = plan_compiled_task(small)
        task_large, _ = plan_compiled_task(large)
        # One key, one compiled function, two sets of bindings.
        assert task_small.key == task_large.key
        assert compiled_cache_size() == 1
        assert "_udfs[" not in task_small.source
        assert task_small([0, 1])[0] == [11, 12]
        assert task_large([0, 1])[0] == [1100, 1101]
        assert task_small([0, 1])[0] == [11, 12]

    def test_a_global_shadowing_a_builtin_is_the_one_read(self):
        steps = _steps((STEP_MAP, _shadowed_builtin))
        task, reason = plan_compiled_task(steps)
        assert reason is None and "_udfs[" not in task.source
        assert task([1, 2])[0] == [1001, 1002]

    def test_a_global_rebound_between_two_ops_is_seen(self, monkeypatch):
        steps = _steps((STEP_MAP, _offset))
        task, reason = plan_compiled_task(steps)
        assert reason is None and "_udfs[" not in task.source
        assert task([1])[0] == [2]
        monkeypatch.setattr(sys.modules[__name__], "_OFFSET", 40)
        task, _ = plan_compiled_task(steps)
        assert task([1])[0] == [41]

    def test_a_name_that_stopped_resolving_fails_as_the_call_would(
        self, monkeypatch
    ):
        steps = _steps((STEP_MAP, _offset))
        task, _ = plan_compiled_task(steps)
        monkeypatch.delattr(sys.modules[__name__], "_OFFSET")
        with pytest.raises(UdfError) as err:
            task([1])
        assert isinstance(err.value.original, NameError)
        assert err.value.operator == "offset#0"

    @pytest.mark.parametrize("fn, reason", [
        (_with_default, "default argument"),
        (_two_statements, "2 statements"),
        (functools.partial(_double), "partial"),
        (_Scaler(3).scale, "bound method"),
        (_rewritten, "rewritten by @nested_udf"),
        (_undefined_name, "unresolved name _never_defined"),
        (lambda x: [y for y in x], "comprehension"),
        (lambda x: (z := x) + z, "assignment expression"),
        (lambda x, *rest: x, "not one plain parameter"),
        (len, "not a plain function"),
    ], ids=lambda value: getattr(value, "__name__", None) or str(value))
    def test_everything_else_keeps_its_call(self, fn, reason):
        assert udf_lowering(fn) == (None, reason)
        source = generate_source([STEP_MAP], [udf_lowering(fn)[0]])
        assert "_v1 = _f0(_v0)" in source

    def test_kept_calls_sit_between_lowered_steps(self):
        steps = [
            (STEP_MAP, _to_pair, "to_pair"),
            (STEP_FILTER, _keep_even_key, "keep"),
            (STEP_MAP, functools.partial(_last), "last"),
            (STEP_MAP, _Scaler(2).scale, "scale"),
            (STEP_MAP, _documented, "documented"),
        ]
        task, reason = plan_compiled_task(steps)
        assert reason is None
        part = list(range(20))
        assert task(part) == FusedPipelineTask(steps)(part)
        assert "_f2(" in task.source and "_f3(" in task.source
        assert "_f0" not in task.source and "_f1" not in task.source
        compiled = compiled_pipeline(task.key, task.source)
        assert compiled.fields == (0,)
        assert compiled.env == ()
        assert lowering_note(task) == (
            "lowered 3/5, fields 1; last: partial; scale: bound method"
        )

    @pytest.mark.parametrize("tail", [
        [_last], [_past], [_starred], [_first_and_all],
        [_keep_even_key], [_keep_even_key, functools.partial(_last)],
        [_sum_fields], [_last, _sum_fields],
    ], ids=lambda fns: "+".join(
        getattr(fn, "__name__", "partial") for fn in fns
    ))
    def test_tuples_are_whole_wherever_the_call_saw_them_whole(self, tail):
        # A tuple display feeds: a negative and an out-of-range constant
        # subscript, a starred display, a whole-value use, the chain's
        # end (through a filter) and a kept call.
        steps = [(STEP_MAP, _to_pair, "to_pair")] + [
            (STEP_FILTER if fn is _keep_even_key else STEP_MAP, fn,
             "step-%d" % index)
            for index, fn in enumerate(tail)
        ]
        part = list(range(12))
        try:
            want = FusedPipelineTask(steps)(part)
        except UdfError as err:
            with pytest.raises(UdfError) as got:
                compiled_task(steps)(part)
            assert got.value.operator == err.operator
            assert type(got.value.original) is type(err.original)
        else:
            assert compiled_task(steps)(part) == want

    def test_a_dropped_record_never_builds_its_tuple(self):
        steps = _steps((STEP_MAP, _to_pair), (STEP_FILTER, _keep_even_key))
        source = compiled_task(steps).source
        # Fields first, the filter on a field, the tuple only for the
        # output.
        assert source.index("continue") < source.index("_append((")
        assert source.count("(_v0, ") == 1

    def test_the_key_says_which_steps_are_lowered(self):
        # One AST fingerprint, two sources: the key must tell them apart.
        plain = _steps((STEP_MAP, _double))
        wrapped = [(STEP_MAP, functools.partial(_double), "double#0")]
        task_plain, _ = plan_compiled_task(plain)
        task_wrapped, _ = plan_compiled_task(wrapped)
        assert task_plain.key != task_wrapped.key
        assert "_f0(" in task_wrapped.source
        assert "_f0(" not in task_plain.source
        assert task_plain([1, 2]) == task_wrapped([1, 2])


class TestCompiledTask:
    def test_pickles_without_compiled_state(self):
        steps = _steps((STEP_MAP, _double), (STEP_FILTER, _odd))
        task, _ = plan_compiled_task(steps)
        clone = pickle.loads(pickle.dumps(task))
        assert isinstance(clone, CompiledPipelineTask)
        assert clone.key == task.key
        assert clone(list(range(10))) == task(list(range(10)))

    def test_lowered_bindings_resolve_in_a_process_worker(self):
        steps = _steps((STEP_MAP, _adder(7)), (STEP_MAP, _offset))
        task, reason = plan_compiled_task(steps)
        assert reason is None and "_udfs[" not in task.source
        from repro.engine.runtime.backends import ProcessPoolBackend
        from repro.engine.runtime.task import Invocation

        backend = ProcessPoolBackend(num_workers=2)
        try:
            outcomes = backend.run_invocations([
                Invocation(task, [[index, 10]], [index])
                for index in range(2)
            ])
        finally:
            backend.close()
        assert [o.values[0][0] for o in outcomes] == [[8, 18], [9, 18]]
        assert os.getpid() not in [o.worker_pid for o in outcomes]

    def test_cache_reused_across_instances(self):
        clear_compiled_cache()
        steps = _steps((STEP_MAP, _double), (STEP_FILTER, _odd))
        task_a, _ = plan_compiled_task(steps)
        task_a(list(range(4)))
        size = compiled_cache_size()
        task_b, _ = plan_compiled_task(steps)
        task_b(list(range(4)))
        assert compiled_cache_size() == size

    def test_the_cache_keeps_the_most_recently_used_chains(self):
        clear_compiled_cache()
        steps = _steps((STEP_MAP, _double), (STEP_FILTER, _odd))
        task, _ = plan_compiled_task(steps)
        part = list(range(10))
        expected = task(part)
        capacity = codegen.COMPILED_CAPACITY
        assert capacity >= 256
        # capacity + 10 distinct texts of the one loop, a key each.
        texts = {
            "%s-%d" % (task.key, number): "%s# text %d\n" % (
                task.source, number,
            )
            for number in range(capacity + 10)
        }
        for key, text in texts.items():
            compiled_pipeline(key, text)
        assert compiled_cache_size() == capacity
        keys = list(texts)
        # The planned chain and the first 10 texts were dropped.
        assert list(codegen._COMPILED) == keys[10:]
        # A hit makes the least recent text the most recent, so the
        # next miss drops the one after it.
        compiled_pipeline(keys[10], texts[keys[10]])
        compiled_pipeline(keys[0], texts[keys[0]])
        assert compiled_cache_size() == capacity
        assert keys[10] in codegen._COMPILED
        assert keys[11] not in codegen._COMPILED
        # Dropped keys compile again, to loops with the same results.
        again = CompiledPipelineTask(steps, texts[keys[1]], keys[1])
        assert again(part) == expected
        replanned, reason = plan_compiled_task(steps)
        assert reason is None and replanned.key == task.key
        assert replanned(part) == expected
        clear_compiled_cache()


class TestEngineIntegration:
    @pytest.fixture(autouse=True)
    def every_chain_is_large_enough(self, monkeypatch):
        monkeypatch.setattr(codegen, "COMPILE_MIN_RECORD_STEPS", 0)

    def _run(self, trace=False, **overrides):
        return EngineContext(laptop_config(**overrides), trace=trace)

    def _program(self, ctx):
        return (
            ctx.bag_of(range(200), num_partitions=4)
            .map(_double)
            .filter(_odd2)
            .flat_map(_pair)
            .collect()
        )

    def test_identical_results_and_signature(self, monkeypatch):
        with self._run() as base, self._run() as comp:
            compiled = self._program(comp)
            monkeypatch.setattr(
                codegen, "COMPILE_MIN_RECORD_STEPS", sys.maxsize
            )
            assert sorted(compiled) == sorted(self._program(base))
            assert not base.optimizer_decisions
            assert trace_signature(comp.trace) == trace_signature(
                base.trace
            )
            assert comp.simulated_seconds() == base.simulated_seconds()

    def test_decision_recorded_per_chain(self):
        with self._run() as ctx:
            self._program(ctx)
            decisions = [
                d for d in ctx.optimizer_decisions
                if d.kind == "compiled-pipeline"
            ]
            assert len(decisions) == 1
            assert decisions[0].choice == "compile"
            assert "compiled as" in decisions[0].detail
            assert decisions[0].detail.endswith("; lowered 3/3")

    def test_fallback_reason_recorded(self):
        with self._run() as ctx:
            ctx.bag_of(range(10)).map(_impure).count()
            (decision,) = [
                d for d in ctx.optimizer_decisions
                if d.kind == "compiled-pipeline"
            ]
            assert decision.choice == "interpret"
            assert "impure" in decision.detail

    def test_codegen_span_emitted_once(self):
        clear_compiled_cache()
        with self._run(trace=True) as ctx:
            self._program(ctx)
            self._program(ctx)  # second run: cache hit, no new span
            spans = [
                e for e in ctx.tracer.events()
                if e.kind == "codegen"
            ]
            assert len(spans) == 1
            assert spans[0].args["key"]
            assert spans[0].args["steps"] == 3
            assert spans[0].args["source_lines"] > 0

    def test_process_backend_runs_compiled_chains(self):
        with self._run(backend="process", num_workers=2) as ctx:
            out = self._program(ctx)
            assert sorted(out) == sorted(
                y for x in range(200) if (x * 2) % 3 != 0
                for y in (x * 2, x * 2 + 1)
            )
            assert any(
                d.choice == "compile"
                for d in ctx.optimizer_decisions
                if d.kind == "compiled-pipeline"
            )

    def test_explain_annotates_compiled_chains(self):
        with self._run() as ctx:
            bag = (
                ctx.bag_of(range(10))
                .map(_double)
                .filter(_odd2)
            )
            text = bag.explain(compile=True)
            assert "compiled=yes(" in text
            assert "; lowered 2/2)" in text
            impure = ctx.bag_of(range(10)).map(_impure)
            text = impure.explain(compile=True)
            assert "compiled=no(" in text
            assert "impure" in text


def _odd2(x):
    return x % 3 != 0


def _keyed(x):
    return (x % 5, x)


def _add(a, b):
    return a + b


def _largest(a, b):
    return a if a > b else b


def _add_in_steps(a, b):
    total = a + b
    return total


def _add_weighted(a, b):
    return Weighted(a + b, 2)


def _add_counting(a, b):
    _COUNTER["n"] += 1
    return a + b


class TestFoldTail:
    """A chain under a ``reduce_by_key`` is planned with the reducer as
    its tail: the gate every step passes decides whether the generated
    loop folds, the lowering verdict whether it calls."""

    @pytest.fixture(autouse=True)
    def every_chain_is_large_enough(self, monkeypatch):
        monkeypatch.setattr(codegen, "COMPILE_MIN_RECORD_STEPS", 0)

    STEPS = _steps((STEP_MAP, _double), (STEP_MAP, _keyed))

    @pytest.mark.parametrize("reducer, fold, note", [
        (_add, "lowered", "fold lowered"),
        (_add_in_steps, "called", "fold called: 2 statements"),
        (functools.partial(_add), "called", "fold called: partial"),
        (_add_weighted, None, "fold called: may return Weighted"),
        (_add_counting, None, "fold called: is impure"),
        (max, None, "fold called: purity unproven"),
    ], ids=lambda value: getattr(value, "__name__", None))
    def test_the_gate_decides_where_the_reducer_runs(
        self, reducer, fold, note
    ):
        task, reason = plan_compiled_task(self.STEPS, fold=(reducer, "sum"))
        assert reason is None
        assert compiled_pipeline(task.key, task.source).fold == fold
        assert ("_acc" in task.source) == (fold is not None)
        assert lowering_note(task).endswith("; " + note)
        # A reducer never keeps a chain from compiling, and one the loop
        # does not fold with leaves the chain's own text and key.
        chain, _reason = plan_compiled_task(self.STEPS)
        assert (task.key == chain.key) == (fold is None)
        part = list(range(40))
        want = FusedPipelineTask(self.STEPS, (reducer, "sum"))(part)
        assert task(part) == want
        assert pickle.loads(pickle.dumps(task))(part) == want
        assert task.operator == "double#0+keyed#1+sum"

    def test_lowered_and_called_folds_have_keys_of_their_own(self):
        keys = [plan_compiled_task(self.STEPS)[0].key] + [
            plan_compiled_task(self.STEPS, fold=(reducer, "sum"))[0].key
            for reducer in (_add, _add_in_steps, _largest)
        ]
        assert len(set(keys)) == 4

    def test_one_decision_one_task_set_same_trace(self, monkeypatch):
        def program(ctx):
            return sorted(
                ctx.bag_of(range(200), num_partitions=4)
                .map(_double).map(_keyed).reduce_by_key(_add).collect()
            )

        with EngineContext(laptop_config()) as comp, EngineContext(
            laptop_config()
        ) as base:
            compiled = program(comp)
            monkeypatch.setattr(
                codegen, "COMPILE_MIN_RECORD_STEPS", sys.maxsize
            )
            assert compiled == program(base)
            (decision,) = comp.optimizer_decisions
            assert decision.detail.startswith(
                "Map+Map+ReduceByKey compiled as "
            )
            assert decision.detail.endswith(
                "; lowered 2/2, fields 1; fold lowered"
            )
            assert decision.num_tags == 2
            assert not base.optimizer_decisions
            assert trace_signature(comp.trace) == trace_signature(base.trace)
            assert comp.simulated_seconds() == base.simulated_seconds()
            # Chain and map-side combine were one task set of 4, the
            # reduce side one more.
            reduce_side = comp.trace.jobs[0].stages[1].task_records
            assert comp.runtime.tasks_launched == 4 + sum(
                1 for count in reduce_side.amounts if count
            )

    def test_explain_says_how_the_chain_folds(self):
        with EngineContext(laptop_config()) as ctx:
            keyed = ctx.bag_of(range(10)).map(_double).map(_keyed)
            text = keyed.reduce_by_key(_add_in_steps).explain(compile=True)
            (line,) = [ln for ln in text.splitlines() if "compiled=" in ln]
            assert "Map" in line and "ReduceByKey" not in line
            assert line.endswith(
                "; lowered 2/2, fields 1; fold called: 2 statements)]"
            )
            assert "fold" not in keyed.explain(compile=True)

    def test_the_size_rule_counts_the_steps_not_the_fold(self, monkeypatch):
        monkeypatch.setattr(codegen, "COMPILE_MIN_RECORD_STEPS", 2 * 64)
        for size, planned in ((63, 0), (64, 1)):
            with EngineContext(laptop_config()) as ctx:
                (
                    ctx.bag_of(range(size)).map(_double).map(_keyed)
                    .reduce_by_key(_add).collect()
                )
                assert len(ctx.optimizer_decisions) == planned


class TestSizeRule:
    """The executor plans a chain iff steps x input records reaches
    ``COMPILE_MIN_RECORD_STEPS``; below it nothing of codegen runs."""

    STEPS = 3
    RECORDS = 100

    def _run(self, records):
        """``(compile decisions, everything that must not depend on the
        body)`` of one run of a three-step chain."""
        with EngineContext(laptop_config()) as ctx:
            result = (
                ctx.bag_of(range(records), num_partitions=4)
                .map(_double)
                .filter(_odd2)
                .map(_negate)
                .collect()
            )
            decisions = [
                d.choice for d in ctx.optimizer_decisions
                if d.kind == "compiled-pipeline"
            ]
            return decisions, (
                sorted(result), trace_signature(ctx.trace),
                ctx.simulated_seconds(),
            )

    def test_a_task_set_compiles_from_the_threshold_up(self, monkeypatch):
        analyzed = []
        analyze = repro.analysis.effects.analyze_effects

        def counting(fn, *args, **kwargs):
            analyzed.append(fn)
            return analyze(fn, *args, **kwargs)

        monkeypatch.setattr(
            repro.analysis.effects, "analyze_effects", counting
        )
        monkeypatch.setattr(
            codegen, "COMPILE_MIN_RECORD_STEPS", self.STEPS * self.RECORDS
        )
        udf.clear_cache()
        clear_compiled_cache()
        decisions, _observable = self._run(self.RECORDS - 1)
        assert decisions == []
        assert analyzed == [] and compiled_cache_size() == 0
        decisions, _observable = self._run(self.RECORDS)
        assert decisions == ["compile"]
        assert analyzed and compiled_cache_size() == 1

    def test_the_threshold_changes_nothing_but_the_body(self, monkeypatch):
        runs = []
        for threshold in (self.STEPS * self.RECORDS, sys.maxsize):
            monkeypatch.setattr(
                codegen, "COMPILE_MIN_RECORD_STEPS", threshold
            )
            runs.append(self._run(self.RECORDS))
        (compiled, observable), (interpreted, same) = runs
        assert compiled == ["compile"] and interpreted == []
        assert observable == same
