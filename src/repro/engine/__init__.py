"""A flat-parallel dataflow engine (the Spark-analog substrate).

Public surface:

* :class:`~repro.engine.context.EngineContext` -- create bags, run jobs,
  read simulated runtimes.
* :class:`~repro.engine.bag.Bag` -- the distributed collection.
* :class:`~repro.engine.config.ClusterConfig` and the preset factories.
* :class:`~repro.engine.work.Weighted` -- report UDF-internal work.
* The task runtime (:mod:`repro.engine.runtime`): pluggable serial /
  process-pool execution backends behind the simulated clock.
"""

from .bag import Bag, JoinHint
from .broadcast import Broadcast
from .columnar import ColumnarPartition
from .config import (
    GB,
    MB,
    ClusterConfig,
    laptop_config,
    large_cluster_config,
    paper_cluster_config,
)
from .context import EngineContext
from .costmodel import CostBreakdown, CostModel
from .metrics import ExecutionTrace, JobMetrics, StageMetrics
from .partitioner import HashPartitioner, stable_hash
from .runtime import (
    FaultInjector,
    ProcessPoolBackend,
    SerialBackend,
    TaskScheduler,
)
from .sizing import estimate_record_size, estimate_size
from .validate import (
    TraceInvariantError,
    validate_job,
    validate_trace,
)
from .work import Weighted

__all__ = [
    "Bag",
    "Broadcast",
    "ClusterConfig",
    "ColumnarPartition",
    "CostBreakdown",
    "CostModel",
    "EngineContext",
    "ExecutionTrace",
    "FaultInjector",
    "GB",
    "HashPartitioner",
    "JobMetrics",
    "JoinHint",
    "MB",
    "ProcessPoolBackend",
    "SerialBackend",
    "StageMetrics",
    "TaskScheduler",
    "TraceInvariantError",
    "Weighted",
    "estimate_record_size",
    "estimate_size",
    "laptop_config",
    "large_cluster_config",
    "paper_cluster_config",
    "stable_hash",
    "validate_job",
    "validate_trace",
]
