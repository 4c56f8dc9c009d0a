"""Shared fixtures for the test suite."""

import pytest

from repro.engine import (
    ClusterConfig,
    EngineContext,
    codegen,
    executor,
    laptop_config,
)


def pytest_addoption(parser):
    parser.addoption(
        "--compile-all", action="store_true",
        help="plan every fused chain for compilation, whatever its "
        "size (codegen.COMPILE_MIN_RECORD_STEPS = 0), so the suite "
        "runs CompiledPipelineTask wherever the compile gate allows",
    )


@pytest.fixture(scope="session", autouse=True)
def compile_all(request):
    """``--compile-all``: the suite's chains are far below the
    executor's size threshold, so without it they are all interpreted."""
    with pytest.MonkeyPatch.context() as patch:
        if request.config.getoption("--compile-all"):
            patch.setattr(codegen, "COMPILE_MIN_RECORD_STEPS", 0)
        yield


@pytest.fixture
def without_elision(monkeypatch):
    """Call it and every later job plans no shuffle elision: the
    reference run the always-on optimizer is checked against.  Elision
    is no setting, so this moves the planner seam the executor calls."""

    def disable():
        monkeypatch.setattr(
            executor, "plan_shuffle_elisions", lambda root: {}
        )

    return disable


@pytest.fixture
def config():
    """A small, OOM-proof cluster config."""
    return laptop_config()

@pytest.fixture
def ctx(config):
    """A fresh engine context per test."""
    return EngineContext(config)


@pytest.fixture
def tight_memory_config():
    """A config whose memory limits are easy to hit on purpose."""
    return ClusterConfig(
        machines=2,
        cores_per_machine=2,
        memory_per_machine_bytes=10_000,
        bytes_per_record=100.0,
        memory_overhead_factor=1.0,
        driver_memory_bytes=50_000,
        parallelism_factor=2,
    )


@pytest.fixture
def tight_ctx(tight_memory_config):
    return EngineContext(tight_memory_config)
