"""Compiled fused pipelines: parity, gating, caching, observability,
and the size rule that decides which chains are planned at all."""

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
    generate_source,
    plan_compiled_task,
)
from repro.engine.runtime.task import (
    STEP_FILTER,
    STEP_FLATMAP,
    STEP_MAP,
    CompiledPipelineTask,
    FusedPipelineTask,
)
from repro.engine.validate import trace_signature
from repro.engine.work import Weighted


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
    per-operator counts, and (trivially) zero weighted works."""

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
        out_i, counts_i, works_i = FusedPipelineTask(steps)(list(part))
        out_c, counts_c, works_c = task(list(part))
        assert out_c == out_i
        assert counts_c == counts_i
        assert works_c == works_i
        assert all(w == 0 for w in works_c)


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
        # One record loop, no per-step dispatch machinery.
        assert source.count("for ") == 1
        assert "call_udf" not in source
        assert "unwrap" not in source

    def test_flatmap_nests_loops(self):
        source = generate_source([STEP_FLATMAP, STEP_FLATMAP])
        assert source.count("for ") == 3


class TestCompiledTask:
    def test_pickles_without_compiled_state(self):
        steps = _steps((STEP_MAP, _double), (STEP_FILTER, _odd))
        task, _ = plan_compiled_task(steps)
        clone = pickle.loads(pickle.dumps(task))
        assert isinstance(clone, CompiledPipelineTask)
        assert clone.key == task.key
        assert clone(list(range(10))) == task(list(range(10)))

    def test_cache_reused_across_instances(self):
        clear_compiled_cache()
        steps = _steps((STEP_MAP, _double), (STEP_FILTER, _odd))
        task_a, _ = plan_compiled_task(steps)
        task_a(list(range(4)))
        size = compiled_cache_size()
        task_b, _ = plan_compiled_task(steps)
        task_b(list(range(4)))
        assert compiled_cache_size() == size


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
            impure = ctx.bag_of(range(10)).map(_impure)
            text = impure.explain(compile=True)
            assert "compiled=no(" in text
            assert "impure" in text


def _odd2(x):
    return x % 3 != 0


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
