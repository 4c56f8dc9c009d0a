"""Analytical cost model: execution trace -> simulated wall-clock seconds.

This module is the substitute for running on the paper's physical cluster.
The engine executes programs for real (so results are correct), while the
cost model converts the recorded trace into the runtime the same program
would exhibit on a cluster described by a
:class:`~repro.engine.config.ClusterConfig`.

The model charges exactly the structural costs the paper's analysis relies
on:

* per-job launch overhead -- this is what makes the inner-parallel
  workaround slow (one job chain per inner computation, Sec. 1);
* task makespan on a bounded number of slots -- this is what makes the
  outer-parallel workaround slow (parallelism capped by the number of
  groups, and skewed groups serialize on one core, Sec. 1 and Sec. 9.5);
* shuffle, spill, and broadcast volumes -- these drive the join-strategy
  trade-offs in Sec. 8.2/8.3.
"""

import heapq
from dataclasses import dataclass


@dataclass
class CostBreakdown:
    """Simulated seconds attributed to each cost component."""

    job_launch_s: float = 0.0
    stage_overhead_s: float = 0.0
    task_overhead_s: float = 0.0
    compute_s: float = 0.0
    shuffle_s: float = 0.0
    spill_s: float = 0.0
    broadcast_s: float = 0.0
    collect_s: float = 0.0

    @property
    def total_s(self):
        return (
            self.job_launch_s
            + self.stage_overhead_s
            + self.task_overhead_s
            + self.compute_s
            + self.shuffle_s
            + self.spill_s
            + self.broadcast_s
            + self.collect_s
        )

    def add(self, other):
        self.job_launch_s += other.job_launch_s
        self.stage_overhead_s += other.stage_overhead_s
        self.task_overhead_s += other.task_overhead_s
        self.compute_s += other.compute_s
        self.shuffle_s += other.shuffle_s
        self.spill_s += other.spill_s
        self.broadcast_s += other.broadcast_s
        self.collect_s += other.collect_s


@dataclass
class CostModel:
    """Computes simulated runtimes from an execution trace.

    Args:
        config: The simulated cluster.
    """

    config: object

    def stage_cost(self, stage):
        """Cost breakdown for one :class:`StageMetrics` in isolation.

        Covers the per-stage terms only (scheduling overhead, compute
        makespan, shuffle, spill); job-level terms (launch, broadcast,
        collect) live in :meth:`job_cost`.
        """
        cfg = self.config
        cost = CostBreakdown()
        slots = cfg.total_cores
        if stage.kind not in ("union", "coalesce", "cached"):
            # Unions, coalesces and cache reads are narrow
            # continuations, not scheduled task sets of their own;
            # their tasks belong to the stages that consume them.
            cost.stage_overhead_s += cfg.stage_overhead_s
            # Task scheduling is serial at the driver [24, 37]: many
            # tiny tasks cost real time regardless of cluster size.
            # This is both why inner-parallel degrades with more
            # machines (Fig. 4) and why Sec. 8.1 sizes partition
            # counts to InnerScalar cardinalities.
            cost.task_overhead_s += (
                cfg.task_overhead_s * max(1, stage.num_tasks)
            )
        record_bytes = (
            cfg.result_record_bytes if stage.meta
            else cfg.bytes_per_record
        )
        cost.compute_s += (
            _makespan(stage.task_records.amounts, slots)
            * record_bytes
            / cfg.cpu_bytes_per_s
        )
        shuffle_bytes = stage.shuffle_read_records * record_bytes
        cost.shuffle_s += shuffle_bytes / (
            cfg.network_bytes_per_s * cfg.machines
        )
        spill_bytes = stage.spilled_records * record_bytes
        # Spilled data is written once and read once.
        cost.spill_s += 2 * spill_bytes / (
            cfg.disk_bytes_per_s * cfg.machines
        )
        return cost

    def job_cost(self, job, stage_costs=None):
        """Cost breakdown for a single :class:`JobMetrics`.

        ``stage_costs`` are the job's :meth:`stage_cost` results, in
        stage order, from a caller that already has them; they are
        added exactly as the ones computed here would be.
        """
        cfg = self.config
        cost = CostBreakdown(job_launch_s=cfg.job_launch_overhead_s)
        if stage_costs is None:
            stage_costs = map(self.stage_cost, job.stages)
        for stage_cost in stage_costs:
            cost.add(stage_cost)
        broadcast_bytes = (
            job.broadcast_records * cfg.bytes_per_record
            + job.broadcast_meta_records * cfg.result_record_bytes
        )
        # A broadcast ships the full payload to every machine; the driver's
        # uplink is the bottleneck (Spark's torrent broadcast softens this
        # logarithmically; we keep the linear model because the paper's
        # broadcast-join failures come from volume, not topology).
        cost.broadcast_s += (
            broadcast_bytes * cfg.machines / cfg.network_bytes_per_s
        ) / max(1, cfg.machines // 2)
        collect_bytes = job.collected_records * cfg.result_record_bytes
        cost.collect_s += collect_bytes / cfg.network_bytes_per_s
        saved_bytes = (
            job.saved_records * cfg.bytes_per_record
            + job.saved_meta_records * cfg.result_record_bytes
        )
        cost.collect_s += saved_bytes / (
            cfg.disk_bytes_per_s * cfg.machines
        )
        return cost

    def trace_cost(self, trace):
        """Total cost breakdown for every job in the trace.

        Jobs submitted from a driver program run sequentially, so the total
        is the sum over jobs.
        """
        total = CostBreakdown()
        for job in trace.jobs:
            total.add(self.job_cost(job))
        return total

    def simulated_seconds(self, trace):
        """Simulated wall-clock seconds for the whole trace."""
        return self.trace_cost(trace).total_s


def _makespan(task_records, slots):
    """Makespan (in records) of scheduling tasks onto ``slots`` cores.

    ``task_records`` are the live tasks' amounts (a stage's
    :class:`~repro.engine.metrics.Ledger`): a task with no records
    never reaches the slots, so the tasks no credit reached need not be
    read.

    Uses the longest-processing-time greedy rule, which is how a dataflow
    engine's slot scheduler behaves to first order.  This is the term that
    penalizes both too-few tasks (outer-parallel: fewer tasks than cores
    leave cores idle) and skew (one giant task dominates).  The least
    loaded slot comes off a min-heap: which of several equally loaded
    slots takes a task permutes ``loads`` and nothing else.
    """
    active = [records for records in task_records if records > 0]
    if not active:
        return 0
    if len(active) <= slots:
        return max(active)
    loads = [0] * slots
    for records in sorted(active, reverse=True):
        heapq.heapreplace(loads, loads[0] + records)
    return max(loads)
