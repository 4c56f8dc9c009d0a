"""Cluster configuration for the simulated dataflow engine.

A :class:`ClusterConfig` plays the role of the paper's physical cluster plus
the Spark configuration: it fixes the machine count, cores, memory, network
and the overhead constants that the cost model uses to turn an execution
trace into simulated wall-clock seconds.

The default constants are calibrated to the Spark deployments described in
the paper's evaluation (Sec. 9.1): job-launch overhead on the order of a
second, default parallelism of 3x the total core count, and 22 GB of
executor memory per machine.
"""

import os
from dataclasses import dataclass, field, replace

GB = 1024 ** 3
MB = 1024 ** 2

#: Backends the task runtime knows (see :mod:`repro.engine.runtime`).
VALID_BACKENDS = ("serial", "process")


def _env(name, default):
    """A field ``default_factory`` reading environment variable ``name``
    as a ``type(default)``."""

    def read():
        raw = os.environ.get(name)
        if raw is None:
            return default
        return type(default)(raw)

    return read


@dataclass(frozen=True)
class ClusterConfig:
    """Static description of the simulated cluster.

    Attributes:
        machines: Number of worker machines.
        cores_per_machine: CPU cores per machine (the paper's machines have
            two 8-core processors).
        memory_per_machine_bytes: Memory available to the engine on each
            machine (the paper dedicates 22 GB per machine to Spark).
        bytes_per_record: How many bytes one record of the *paper-scale*
            dataset represents.  The generators produce laptop-scale record
            counts; this factor maps record counts back onto the paper's
            GB-scale axis for both memory accounting and shuffle costs.
        parallelism_factor: Default number of partitions is
            ``parallelism_factor * total_cores`` (the paper sets Spark
            parallelism to 3x the total core count).
        job_launch_overhead_s: Fixed cost of launching one job (driver
            round-trip, DAG scheduling, executor wake-up).
        stage_overhead_s: Fixed cost per stage (scheduling a task set).
        task_overhead_s: Cost of launching a single task [37].
        cpu_bytes_per_s: Bulk processing throughput of one core running a
            fused operator pipeline (scan + hash + serialize).
        sequential_work_factor: Slowdown of record-at-a-time UDF-internal
            loops (hash probes, boxed objects) relative to the bulk rate.
            Work reported through :class:`~repro.engine.work.Weighted` is
            charged at this multiple.
        network_bytes_per_s: Aggregate per-machine network bandwidth (the
            paper's cluster has 1 Gb Ethernet).
        disk_bytes_per_s: Per-machine disk bandwidth, charged for spills.
        driver_memory_bytes: Memory limit of the driver process, charged
            when collecting results.
        memory_safety_fraction: Fraction of executor memory usable for a
            single materialized working set (mirrors Spark's storage/
            execution fractions).
        result_record_bytes: Size of a record returned to the driver by
            an action.  Results (counts, aggregates, trained models) are
            summary-sized regardless of the input record scale, so they
            are charged separately from ``bytes_per_record``.
        memory_overhead_factor: In-memory blow-up of materialized data
            relative to its serialized size (JVM object headers, boxing,
            hash-map load factors).  Spark's tuning guide cites 2-5x for
            primitive-heavy data; string-heavy records go higher.  Set it
            per experiment to match the workload's record type.
    """

    machines: int = 25
    cores_per_machine: int = 16
    memory_per_machine_bytes: int = 22 * GB
    bytes_per_record: float = 100.0
    parallelism_factor: int = 3
    job_launch_overhead_s: float = 0.8
    stage_overhead_s: float = 0.05
    task_overhead_s: float = 0.002
    cpu_bytes_per_s: float = 100 * MB
    sequential_work_factor: float = 8.0
    network_bytes_per_s: float = 120 * MB
    disk_bytes_per_s: float = 150 * MB
    driver_memory_bytes: int = 8 * GB
    memory_safety_fraction: float = 0.6
    memory_overhead_factor: float = 3.0
    result_record_bytes: float = 256.0
    #: The engine optimizer's own broadcast-join threshold (the analog
    #: of Spark's spark.sql.autoBroadcastJoinThreshold): with
    #: strategy="auto", a join side whose estimated size is below this
    #: is broadcast.
    auto_broadcast_threshold_bytes: int = 512 * MB
    #: Task runtime backend (:mod:`repro.engine.runtime`): ``"serial"``
    #: runs tasks inline on the driver thread, ``"process"`` fans them
    #: out over worker processes.  Defaults to the ``REPRO_BACKEND``
    #: environment variable, else serial.
    backend: str = field(default_factory=_env("REPRO_BACKEND", "serial"))
    #: Worker processes for the process backend; 0 means one per CPU.
    #: Defaults to ``REPRO_NUM_WORKERS``, else 0.  Orthogonal to
    #: ``machines``, which sizes the *simulated* cluster.
    num_workers: int = field(
        default_factory=_env("REPRO_NUM_WORKERS", 0)
    )
    #: Per-task attempt budget (Spark's spark.task.maxFailures is 4):
    #: transient failures are retried until the task succeeds or the
    #: budget is spent.
    max_task_attempts: int = 4
    #: A task is counted as a straggler -- into
    #: ``StageMetrics.straggler_tasks``, nothing is re-run -- when its
    #: measured runtime exceeds this multiple of the median of its task
    #: set's dispatched tasks ...
    straggler_factor: float = 1.5
    #: ... and this absolute floor, so scheduling jitter on
    #: microsecond-scale tasks never registers.
    straggler_min_task_seconds: float = 0.01

    def __post_init__(self):
        if self.machines < 1:
            raise ValueError("machines must be >= 1")
        if self.cores_per_machine < 1:
            raise ValueError("cores_per_machine must be >= 1")
        if self.bytes_per_record <= 0:
            raise ValueError("bytes_per_record must be positive")
        if self.backend not in VALID_BACKENDS:
            raise ValueError(
                "backend must be one of %r, got %r"
                % (VALID_BACKENDS, self.backend)
            )
        if self.num_workers < 0:
            raise ValueError("num_workers must be >= 0")
        if self.max_task_attempts < 1:
            raise ValueError("max_task_attempts must be >= 1")
        if self.straggler_factor < 1.0:
            raise ValueError("straggler_factor must be >= 1.0")

    @property
    def total_cores(self):
        """Total task slots in the cluster."""
        return self.machines * self.cores_per_machine

    @property
    def default_parallelism(self):
        """Default partition count for shuffles and parallelize."""
        return self.parallelism_factor * self.total_cores

    @property
    def executor_memory_limit_bytes(self):
        """Largest working set a single executor may materialize."""
        return int(self.memory_per_machine_bytes * self.memory_safety_fraction)

    def task_memory_limit_bytes(self, concurrent_tasks_per_machine):
        """Working-set budget of one task.

        Concurrently running tasks on a machine share executor memory
        (Spark's unified memory manager); a lone task may use all of it.
        """
        concurrent = max(1, min(self.cores_per_machine,
                                concurrent_tasks_per_machine))
        return self.executor_memory_limit_bytes // concurrent

    def materialized_bytes(self, num_records, record_bytes=None):
        """In-memory footprint of materializing ``num_records`` records."""
        if record_bytes is None:
            record_bytes = self.bytes_per_record
        return int(
            num_records * record_bytes * self.memory_overhead_factor
        )

    def with_machines(self, machines):
        """Return a copy of this config with a different machine count."""
        return replace(self, machines=machines)

    def with_bytes_per_record(self, bytes_per_record):
        """Return a copy with a different record-size scale factor."""
        return replace(self, bytes_per_record=bytes_per_record)


def laptop_config(**overrides):
    """A small config suitable for tests: no OOM surprises, tiny overheads."""
    defaults = {
        "machines": 2,
        "cores_per_machine": 4,
        "memory_per_machine_bytes": 4 * GB,
        "bytes_per_record": 100.0,
        "parallelism_factor": 2,
    }
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def paper_cluster_config(**overrides):
    """The 25-machine cluster from the paper's evaluation (Sec. 9.1)."""
    defaults = {
        "machines": 25,
        "cores_per_machine": 16,
        "memory_per_machine_bytes": 22 * GB,
    }
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def large_cluster_config(**overrides):
    """The 36-machine cluster used for the larger datasets (Sec. 9.7)."""
    defaults = {
        "machines": 36,
        "cores_per_machine": 40,
        "memory_per_machine_bytes": 100 * GB,
    }
    defaults.update(overrides)
    return ClusterConfig(**defaults)
