"""The engine context: entry point for creating bags and running jobs.

An :class:`EngineContext` is the analog of a ``SparkContext``: it owns the
cluster configuration, the task runtime (scheduler + backend), the
executor, the execution trace, and the cost model that converts the
trace into simulated seconds.
"""

import itertools
import threading
import time

from ..observe import resolve_tracer
from ..observe.events import KIND_BROADCAST
from ..observe.report import entry_totals, job_entry
from .bag import Bag
from .broadcast import Broadcast, check_broadcast_fits
from .config import ClusterConfig, laptop_config
from .costmodel import CostModel
from .executor import Executor
from .metrics import ExecutionTrace
from .plan import Parallelize
from .runtime.scheduler import TaskScheduler
from .validate import validate_trace


class EngineContext:
    """Owns one simulated cluster and everything that runs on it.

    Args:
        config: The simulated cluster; defaults to a small laptop-friendly
            configuration suitable for tests.
        trace: Tracing spec for :mod:`repro.observe` -- ``None`` (follow
            the ``REPRO_TRACE`` environment variable; unset means off),
            ``True``/``"memory"`` (in-memory ring buffer), a file path
            (JSON-lines sink), ``"null"`` (enabled but discarding), a
            sink, or a ready :class:`~repro.observe.Tracer`.  The
            resolved tracer is available as ``ctx.tracer``.
    """

    def __init__(self, config=None, trace=None):
        self.config = config if config is not None else laptop_config()
        if not isinstance(self.config, ClusterConfig):
            raise TypeError("config must be a ClusterConfig")
        self.trace = ExecutionTrace()
        self.tracer = resolve_tracer(trace)
        self.runtime = TaskScheduler(self.config, tracer=self.tracer)
        self.executor = Executor(
            self.config, self.trace, self.runtime, tracer=self.tracer
        )
        self.cost_model = CostModel(self.config)
        # Accounting-window tickets (begin_job/end_job).  itertools
        # counters are atomic under the GIL, so concurrent worker slots
        # can open windows without a dedicated lock.
        self._tickets = itertools.count(1)

    @property
    def fault_injector(self):
        """The runtime's deterministic fault-injection hook."""
        return self.runtime.fault_injector

    @property
    def optimizer_decisions(self):
        """Engine-level optimizer decisions recorded so far (e.g.
        shuffle elisions), as :class:`repro.engine.optimize.Decision`
        records."""
        return self.executor.decisions

    # ------------------------------------------------------------------
    # Bag creation
    # ------------------------------------------------------------------

    def bag_of(self, data, num_partitions=None):
        """Create a bag from driver-side data."""
        data = list(data)
        if num_partitions is None:
            num_partitions = min(
                self.config.default_parallelism, max(1, len(data))
            )
        return Bag(self, Parallelize(data, num_partitions), num_partitions)

    def empty_bag(self):
        return self.bag_of([], num_partitions=1)

    def range_bag(self, n, num_partitions=None):
        """A bag of the integers ``0 .. n-1``."""
        return self.bag_of(range(n), num_partitions)

    # ------------------------------------------------------------------
    # Broadcast
    # ------------------------------------------------------------------

    def broadcast(self, value, num_records=None):
        """Ship a read-only value to every executor.

        Args:
            value: The payload.
            num_records: How many paper-scale records the payload
                represents (defaults to ``len(value)`` for sized
                collections, else 1).
        """
        if num_records is None:
            try:
                num_records = len(value)
            except TypeError:
                num_records = 1
        check_broadcast_fits(num_records, self.config)
        if self.trace.jobs:
            self.trace.jobs[-1].broadcast_records += num_records
        if self.tracer.enabled:
            self.tracer.instant(
                "broadcast:driver", KIND_BROADCAST,
                what="explicit broadcast", records=num_records,
                bytes=int(num_records * self.config.bytes_per_record),
            )
        return Broadcast(value, num_records)

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------

    def simulated_seconds(self):
        """Simulated wall-clock seconds for everything run so far."""
        return self.cost_model.simulated_seconds(self.trace)

    def measured_task_seconds(self):
        """*Measured* task wall-clock recorded by the runtime so far.

        This is real time actually spent in task bodies on this
        machine (summed across tasks, so with a process backend it can
        exceed elapsed time), not the simulated cluster seconds.
        """
        return self.trace.measured_task_seconds

    def cost_breakdown(self):
        return self.cost_model.trace_cost(self.trace)

    def reset_trace(self):
        """Start a fresh measurement window (keeps caches)."""
        self.trace.reset()

    # ------------------------------------------------------------------
    # Bounded per-job accounting (long-lived contexts)
    # ------------------------------------------------------------------

    def begin_job(self):
        """Open a per-job accounting window on the calling thread.

        A long-lived context (the :mod:`repro.serve` daemon) runs an
        unbounded stream of jobs; without windows, ``ExecutionTrace``
        and the optimizer decision log grow forever.  Every engine job
        submitted between ``begin_job()`` and the matching
        ``end_job()`` -- on this thread, or on threads spawned by
        ``ctx.gather`` inside the window -- is tagged with the window's
        ticket; ``end_job`` extracts exactly those jobs, summarizes
        them, and (by default) removes them from the trace, so retained
        state stays bounded no matter how many jobs run.

        Windows on different threads do not interfere: each worker slot
        of a service opens its own window and extracts only its own
        jobs.  Nesting on one thread is not supported (the inner window
        would steal the outer one's jobs).

        Returns:
            A :class:`JobWindow` token to pass to :meth:`end_job`.
        """
        ticket = next(self._tickets)
        self.trace.set_job_ticket(ticket)
        return JobWindow(ticket)

    def end_job(self, window, drain=True):
        """Close an accounting window; return its :class:`JobAccounting`.

        Args:
            window: The token from :meth:`begin_job`.
            drain: Remove the window's jobs from the trace (default).
                ``drain=False`` keeps them -- for harnesses that still
                want the full trace (the bench regression gate) -- at
                the price of unbounded growth.

        Draining also empties the executor's optimizer-decision log
        into the accounting.  With concurrent windows -- the jobs of a
        ``ctx.gather``, the serve daemon's slots -- the decision log
        cannot be attributed per window (the executor keeps one log per
        context, whichever thread's job decided), so a window's
        ``decisions`` are best-effort: everything logged since the
        last drain.
        """
        self.trace.set_job_ticket(-1)
        jobs = self.trace.take_ticket_jobs(window.ticket, drain=drain)
        if drain:
            decisions = self.executor.drain_decisions()
        else:
            decisions = list(self.executor.decisions)
        return JobAccounting(jobs, self.cost_model, decisions)

    def validate_trace(self):
        """Assert the trace invariants (:mod:`repro.engine.validate`).

        The executor already validates each job as it completes; this
        re-checks the whole trace, e.g. before handing it to the cost
        model.
        """
        return validate_trace(self.trace)

    def gather(self, *thunks):
        """Run several job-submitting thunks concurrently.

        Each thunk is a zero-argument callable that may run any number
        of actions against this context; all thunks run at once, on one
        thread each, sharing the scheduler and backend -- so on the
        process backend their stages interleave over the same worker
        pool.  Returns the thunks' return values in submission order.

        Trace determinism: jobs land in the trace in completion order,
        so after the concurrent window closes the trace is stably
        re-sorted by submission slot
        (:meth:`~repro.engine.metrics.ExecutionTrace.restore_submission_order`)
        and job ids renumbered -- the recorded trace is the one serial
        submission would have produced, job for job.  When tracing,
        everything a slot's jobs emit on the driver side goes to the
        slot's own ``driver-<slot>`` lane.

        If several thunks raise, the exception of the earliest slot
        propagates.  Thunks evaluating the *same* not-yet-materialized
        cached bag may duplicate its evaluation (both compute it, both
        write the same partitions -- wasteful, never wrong: evaluation
        is pure and the scheduler's metrics mutators are locked).
        """
        if not thunks:
            return []
        start = self.trace.next_job_id
        results = [None] * len(thunks)
        errors = [None] * len(thunks)
        # Jobs submitted by the thunks belong to the caller's accounting
        # window (if one is open): propagate the ticket into the fresh
        # threads, whose thread-locals start empty.
        ticket = self.trace.current_ticket()

        def entry(slot, thunk):
            self.trace.set_job_slot(slot)
            self.trace.set_job_ticket(ticket)
            try:
                results[slot] = thunk()
            except BaseException as exc:  # noqa: BLE001 -- re-raised below
                errors[slot] = exc
            finally:
                self.trace.set_job_slot(-1)
                self.trace.set_job_ticket(-1)

        threads = [
            threading.Thread(
                target=entry, args=(slot, thunk),
                name="repro-gather-%d" % slot,
            )
            for slot, thunk in enumerate(thunks)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.trace.restore_submission_order(start)
        for error in errors:
            if error is not None:
                raise error
        return results

    def measure(self):
        """Context manager measuring a block's simulated *and* real time::

            with ctx.measure() as measurement:
                program(ctx)
            print(measurement.seconds)           # simulated cluster time
            print(measurement.measured_seconds)  # real wall-clock of block

        The surrounding trace is preserved: jobs run inside the block
        are appended as usual, and the measurement reports only their
        cost.  ``measured_seconds`` is driver wall-clock of the whole
        block; ``task_seconds`` is the runtime's summed per-task time
        for the block's jobs.
        """
        return _Measurement(self)

    def close(self):
        """Release runtime resources and flush/close the tracer's sink
        (worker pools are process-shared and survive; closing them is
        handled at interpreter exit)."""
        self.runtime.close()
        self.tracer.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def __repr__(self):
        return (
            "EngineContext(machines=%d, cores=%d, %s)"
            % (
                self.config.machines,
                self.config.total_cores,
                self.trace.summary(),
            )
        )


class JobWindow:
    """Token for one open ``begin_job``/``end_job`` accounting window."""

    __slots__ = ("ticket",)

    def __init__(self, ticket):
        self.ticket = ticket

    def __repr__(self):
        return "JobWindow(ticket=%d)" % self.ticket


class JobAccounting:
    """Summary of the engine jobs run inside one accounting window.

    Everything is computed eagerly from the window's
    :class:`~repro.engine.metrics.JobMetrics` at ``end_job`` time, in
    the one pass that costs each stage, so the accounting stays valid
    after the jobs are drained from the trace.  ``entries`` holds that
    pass's result, one :func:`repro.observe.report.job_entry` per
    engine job (scalars per stage); the sums are read off it.  ``jobs``
    keeps the metrics themselves, per-task lists included, for as long
    as the caller keeps the accounting -- a long-lived holder (the
    serve daemon's report window) retains ``entries`` instead.
    """

    __slots__ = (
        "jobs", "entries", "decisions", "simulated_seconds",
        "measured_task_seconds", "num_stages", "total_records",
        "shuffle_records", "shuffle_records_saved", "task_retries",
    )

    def __init__(self, jobs, cost_model, decisions=()):
        self.jobs = list(jobs)
        self.entries = [job_entry(job, cost_model) for job in self.jobs]
        self.decisions = list(decisions)
        self.simulated_seconds = sum(
            entry["simulated_seconds"] for entry in self.entries
        )
        self.measured_task_seconds = sum(
            entry["measured_task_seconds"] for entry in self.entries
        )
        totals = entry_totals(self.entries)
        self.num_stages = totals["stages"]
        self.total_records = totals["records"]
        self.shuffle_records = totals["shuffle_records"]
        self.shuffle_records_saved = totals["shuffle_records_saved"]
        self.task_retries = totals["retries"]

    @property
    def num_jobs(self):
        return len(self.jobs)

    def to_dict(self):
        """JSON-ready summary (the service's per-job JSONL record)."""
        return {
            "jobs": self.num_jobs,
            "stages": self.num_stages,
            "records": self.total_records,
            "shuffle_records": self.shuffle_records,
            "shuffle_records_saved": self.shuffle_records_saved,
            "simulated_seconds": self.simulated_seconds,
            "measured_task_seconds": self.measured_task_seconds,
            "task_retries": self.task_retries,
            "decisions": len(self.decisions),
        }

    def __repr__(self):
        return (
            "JobAccounting(jobs=%d, stages=%d, simulated=%.3fs)"
            % (self.num_jobs, self.num_stages, self.simulated_seconds)
        )


class _Measurement:
    """Simulated and measured seconds of the jobs in a ``with`` block.

    Attributes:
        seconds: Simulated cluster seconds (cost model over the trace).
        measured_seconds: Real driver wall-clock of the block.
        task_seconds: Real per-task wall-clock summed over the block's
            jobs (recorded by the task runtime).
    """

    def __init__(self, ctx):
        self._ctx = ctx
        self._start_job = None
        self._start_time = None
        self.seconds = None
        self.measured_seconds = None
        self.task_seconds = None

    def __enter__(self):
        self._start_job = self._ctx.trace.num_jobs
        self._start_time = time.perf_counter()
        return self

    def __exit__(self, exc_type, _exc, _tb):
        self.measured_seconds = time.perf_counter() - self._start_time
        cost = 0.0
        tasks = 0.0
        for job in self._ctx.trace.jobs[self._start_job:]:
            cost += self._ctx.cost_model.job_cost(job).total_s
            tasks += job.measured_task_seconds
        self.seconds = cost
        self.task_seconds = tasks
        return False
