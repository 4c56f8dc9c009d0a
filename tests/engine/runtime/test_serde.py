"""Closure serialization: the cloudpickle path and the built-in fallback.

Every roundtrip runs under both picklers (``force_fallback=True``
exercises the marshal-based function pickler even when cloudpickle is
installed), because a worker only ever sees the bytes.
"""

import threading

import pytest

from repro.engine.runtime import serde
from repro.engine.runtime.task import (
    STEP_FILTER,
    STEP_MAP,
    FusedPipelineTask,
    Invocation,
)
from repro.errors import SerializationError

MODULE_CONSTANT = 17


def top_level_double(x):
    return x * 2


def make_adder(n):
    def add(x):
        return x + n

    return add


BOTH_PICKLERS = pytest.mark.parametrize(
    "force_fallback", [False, True], ids=["cloudpickle-or-fallback",
                                          "fallback"]
)


def roundtrip(obj, force_fallback):
    return serde.loads(serde.dumps(obj, force_fallback=force_fallback))


class TestRoundtrips:
    @BOTH_PICKLERS
    def test_lambda(self, force_fallback):
        fn = roundtrip(lambda x: x * 3, force_fallback)
        assert fn(4) == 12

    @BOTH_PICKLERS
    def test_closure_over_local(self, force_fallback):
        fn = roundtrip(make_adder(5), force_fallback)
        assert fn(10) == 15

    @BOTH_PICKLERS
    def test_nested_closures(self, force_fallback):
        inner = lambda x: x + 1  # noqa: E731
        outer = lambda x: inner(x) * 2  # noqa: E731
        fn = roundtrip(outer, force_fallback)
        assert fn(3) == 8

    @BOTH_PICKLERS
    def test_defaults_and_kwdefaults(self, force_fallback):
        def fn(x, y=3, *, z=4):
            return x + y + z

        rebuilt = roundtrip(fn, force_fallback)
        assert rebuilt(1) == 8
        assert rebuilt(1, 2, z=0) == 3

    def test_module_global_resolves_on_fallback(self):
        fn = roundtrip(lambda x: x + MODULE_CONSTANT, True)
        assert fn(1) == 18

    def test_importable_function_goes_by_name(self):
        # Top-level defs take pickle's default by-name path even under
        # the fallback pickler, so they come back as the same object.
        assert roundtrip(top_level_double, True) is top_level_double

    @BOTH_PICKLERS
    def test_fused_pipeline_task(self, force_fallback):
        task = FusedPipelineTask(
            [
                (STEP_MAP, lambda x: x + 1, "Map[a]"),
                (STEP_FILTER, lambda x: x % 2 == 0, "Filter[b]"),
            ]
        )
        rebuilt = roundtrip(task, force_fallback)
        out, count, _works = rebuilt([1, 2, 3, 4])
        assert out == [2, 4]
        assert count == 4 + 4
        assert rebuilt.operator == "Map[a]+Filter[b]"

    @BOTH_PICKLERS
    def test_invocation_roundtrip(self, force_fallback):
        offset = 100
        task = FusedPipelineTask(
            [(STEP_MAP, lambda x: x + offset, "Map[c]")]
        )
        invocation = Invocation(task, [[1, 2], [3]], [7, 8], attempt=2,
                                inject_fault=True)
        rebuilt = roundtrip(invocation, force_fallback)
        assert rebuilt.indices == [7, 8]
        assert rebuilt.attempt == 2
        assert rebuilt.inject_fault is True
        (out, _count, _works), (more, _, _) = rebuilt.task.run(
            rebuilt.parts
        )
        assert (out, more) == ([101, 102], [103])


class TestEnsureSerializable:
    def test_success_returns_bytes(self):
        payload = serde.ensure_serializable(lambda x: x, "Map[ok]")
        assert isinstance(payload, bytes)
        assert serde.loads(payload)(9) == 9

    def test_failure_names_operator(self):
        lock = threading.Lock()
        with pytest.raises(SerializationError, match=r"Map\[locked\]"):
            serde.ensure_serializable(
                lambda x: lock.acquire() and x, "Map[locked]"
            )

    def test_failure_chains_original_error(self):
        lock = threading.Lock()
        with pytest.raises(SerializationError) as info:
            serde.ensure_serializable(lambda x: (lock, x), "Map[l]")
        assert info.value.__cause__ is not None

    def test_fallback_also_rejects_unpicklable_closures(self):
        lock = threading.Lock()
        with pytest.raises(Exception):
            serde.dumps(lambda x: (lock, x), force_fallback=True)
