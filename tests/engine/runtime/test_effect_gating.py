"""Effect-gated re-execution.

Retries of provably nondeterministic tasks are never silent: the
scheduler warns once per operator and emits a
``nondeterministic_retry`` trace instant (the retry still runs --
loud, not blocked).
"""

import random
import warnings

import pytest

from repro.engine import EngineContext, laptop_config
from repro.observe.events import KIND_NONDETERMINISTIC_RETRY


def _noisy(x):
    return x + random.random()


def _steady(x):
    return x * 2


def fresh_ctx(**overrides):
    overrides.setdefault("backend", "serial")
    trace = overrides.pop("trace", False)
    return EngineContext(laptop_config(**overrides), trace=trace)


class TestRetryGate:
    def test_nondeterministic_retry_warns(self):
        ctx = fresh_ctx()
        ctx.fault_injector.kill_task(task_index=0, stage=0)
        with pytest.warns(RuntimeWarning, match="nondeterministic"):
            ctx.bag_of(range(8)).map(_noisy).collect()
        assert ctx.runtime.tasks_retried == 1

    def test_warning_fires_once_per_operator(self):
        ctx = fresh_ctx()
        ctx.fault_injector.kill_task(task_index=0, stage=0, times=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ctx.bag_of(range(8)).map(_noisy).collect()
        relevant = [
            w for w in caught if "nondeterministic" in str(w.message)
        ]
        assert len(relevant) == 1
        assert ctx.runtime.tasks_retried == 2

    def test_deterministic_retry_is_silent(self):
        ctx = fresh_ctx()
        ctx.fault_injector.kill_task(task_index=0, stage=0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = sorted(ctx.bag_of(range(8)).map(_steady).collect())
        assert result == [x * 2 for x in range(8)]
        assert not [
            w for w in caught if "nondeterministic" in str(w.message)
        ]
        assert ctx.runtime.tasks_retried == 1

    def test_trace_instant_emitted_per_retry(self):
        ctx = fresh_ctx(trace=True)
        ctx.fault_injector.kill_task(task_index=0, stage=0, times=2)
        with pytest.warns(RuntimeWarning):
            ctx.bag_of(range(8)).map(_noisy).collect()
        instants = [
            e
            for e in ctx.tracer.events()
            if e.kind == KIND_NONDETERMINISTIC_RETRY
        ]
        # warn-once, but *every* unsafe retry is traced
        assert len(instants) == 2
        assert all(e.args["reason"] == "retry" for e in instants)

    def test_retry_still_completes_the_job(self):
        ctx = fresh_ctx()
        ctx.fault_injector.kill_task(task_index=0, stage=0)
        with pytest.warns(RuntimeWarning):
            assert ctx.bag_of(range(8)).map(_noisy).count() == 8
