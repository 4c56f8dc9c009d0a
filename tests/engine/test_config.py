"""ClusterConfig invariants and presets."""

import dataclasses

import pytest

from repro.engine import GB, ClusterConfig
from repro.engine.config import (
    laptop_config,
    large_cluster_config,
    paper_cluster_config,
)


class TestClusterConfig:
    def test_total_cores(self):
        config = ClusterConfig(machines=25, cores_per_machine=16)
        assert config.total_cores == 400

    def test_default_parallelism_is_three_times_cores(self):
        config = ClusterConfig(
            machines=25, cores_per_machine=16, parallelism_factor=3
        )
        assert config.default_parallelism == 1200

    def test_executor_memory_limit_respects_safety_fraction(self):
        config = ClusterConfig(
            memory_per_machine_bytes=10 * GB, memory_safety_fraction=0.5
        )
        assert config.executor_memory_limit_bytes == 5 * GB

    def test_rejects_zero_machines(self):
        with pytest.raises(ValueError):
            ClusterConfig(machines=0)

    def test_rejects_zero_cores(self):
        with pytest.raises(ValueError):
            ClusterConfig(cores_per_machine=0)

    def test_rejects_nonpositive_record_bytes(self):
        with pytest.raises(ValueError):
            ClusterConfig(bytes_per_record=0)

    def test_with_machines_returns_modified_copy(self):
        config = ClusterConfig(machines=25)
        other = config.with_machines(5)
        assert other.machines == 5
        assert config.machines == 25

    def test_with_bytes_per_record(self):
        config = ClusterConfig().with_bytes_per_record(42.0)
        assert config.bytes_per_record == 42.0

    def test_frozen(self):
        config = ClusterConfig()
        with pytest.raises(Exception):
            config.machines = 3

    def test_the_on_off_flags_are_exactly_these(self):
        # Each flag is one more row the differential harness has to
        # cover (CHOICES in tests/programs.py), so the next one is a
        # deliberate edit here.  How a fused chain runs and which
        # shuffles are elided are not flags: the executor decides them.
        flags = [
            field.name for field in dataclasses.fields(ClusterConfig)
            if field.type is bool
        ]
        assert flags == ["optimize_caching"]


class TestTaskMemory:
    def test_lone_task_uses_full_executor_budget(self):
        config = ClusterConfig(
            memory_per_machine_bytes=16 * GB, memory_safety_fraction=0.5
        )
        assert config.task_memory_limit_bytes(1) == 8 * GB

    def test_concurrent_tasks_share_memory(self):
        config = ClusterConfig(
            cores_per_machine=16,
            memory_per_machine_bytes=16 * GB,
            memory_safety_fraction=0.5,
        )
        assert config.task_memory_limit_bytes(8) == GB

    def test_concurrency_capped_at_core_count(self):
        config = ClusterConfig(
            cores_per_machine=4,
            memory_per_machine_bytes=8 * GB,
            memory_safety_fraction=0.5,
        )
        assert config.task_memory_limit_bytes(100) == GB

    def test_materialized_bytes_applies_overhead(self):
        config = ClusterConfig(
            bytes_per_record=100.0, memory_overhead_factor=3.0
        )
        assert config.materialized_bytes(10) == 3000

    def test_materialized_bytes_custom_rate(self):
        config = ClusterConfig(memory_overhead_factor=2.0)
        assert config.materialized_bytes(10, record_bytes=50) == 1000


class TestPresets:
    def test_paper_cluster_matches_section_9_1(self):
        config = paper_cluster_config()
        assert config.machines == 25
        assert config.cores_per_machine == 16
        assert config.memory_per_machine_bytes == 22 * GB

    def test_large_cluster_matches_section_9_7(self):
        config = large_cluster_config()
        assert config.machines == 36
        assert config.cores_per_machine == 40
        assert config.memory_per_machine_bytes == 100 * GB

    def test_laptop_config_accepts_overrides(self):
        config = laptop_config(machines=7)
        assert config.machines == 7
