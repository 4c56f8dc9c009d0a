"""Execution metrics: the trace the cost model consumes.

The engine records, for every job it runs, the same quantities a Spark UI
would show: stages, per-task input record counts, shuffle read volumes,
spill volumes, and broadcast sizes.  The cost model (``costmodel.py``) turns
this trace into simulated wall-clock seconds for a given
:class:`~repro.engine.config.ClusterConfig`.

Concurrency: ``ctx.gather`` and the serve daemon's slots run jobs over
one context on separate threads: they share the trace, and nothing
stops two threads from handing ``TaskScheduler.run_stage`` the same
stage.  Every incremental mutator here is therefore guarded by a
per-object lock; since all credited quantities are sums, the final
totals are deterministic regardless of interleaving.  Plain field
assignment on a freshly created stage (one not yet visible to other
threads) needs no lock and is left alone.
"""

import operator
import threading
from dataclasses import dataclass, field


def _credit(totals, amounts, zero):
    """``totals[i] += amounts[i]``, growing ``totals`` with ``zero``."""
    if not totals:
        totals.extend(amounts)  # a stage's first credit: nothing to add
        return
    missing = len(amounts) - len(totals)
    if missing > 0:
        totals.extend([zero] * missing)
    totals[:len(amounts)] = map(operator.add, totals, amounts)


@dataclass
class StageMetrics:
    """Metrics for one stage (a fused pipeline over one set of partitions).

    Attributes:
        stage_id: Stage number within the trace.
        kind: How the stage's input partitions were obtained:
            ``"input"`` (driver-provided data) and ``"shuffle"`` (a wide
            operator's reduce side) are scheduled task sets;
            ``"union"``, ``"coalesce"``, and ``"cached"`` are narrow
            continuations whose tasks belong to the stages that consume
            them.  See :mod:`repro.engine.validate` for the invariants
            each kind must satisfy.
        task_records: Per-task record counts, *including* extra work that
            UDFs reported (see :mod:`repro.engine.work`).  Task ``i``
            corresponds to partition ``i`` of the stage input.
        shuffle_read_records: Records read over the network to form the
            stage input (0 for non-shuffle stages).
        shuffle_write_records: Records the upstream map side wrote into
            the shuffle feeding this stage.  Always equals
            ``shuffle_read_records`` in a valid trace (every shuffled
            record is read exactly once); recorded separately so the
            validator can prove it.
        spilled_records: Records spilled to disk during the shuffle because
            the in-memory working set was too large.
        task_seconds: *Measured* wall-clock seconds per task, recorded
            by the task runtime next to the simulated counters.  Task
            ``i`` corresponds to partition ``i``; driver-inline work
            (unions, shuffle bucketing) is not timed.  Only the
            *successful* attempt of each task is credited here, so
            retried tasks are never double-counted; time burned in
            failed attempts accrues to ``failed_attempt_seconds``.
        failed_attempt_seconds: Wall-clock spent in task attempts that
            failed (and were retried or gave up).  Kept separate from
            ``task_seconds`` so per-stage measured totals stay
            comparable across runs with and without faults.
        task_retries: Task attempts beyond the first that the scheduler
            launched for this stage (each recovery from a fault adds
            one).
        straggler_tasks: Tasks whose measured runtime exceeded the
            configured multiple of their task set's median.
    """

    stage_id: int
    kind: str = "input"
    task_records: list = field(default_factory=list)
    shuffle_read_records: int = 0
    shuffle_write_records: int = 0
    #: Records a full shuffle would have moved here but did not because
    #: the optimizer elided (part of) the shuffle: the input was already
    #: laid out as this stage required (see :mod:`repro.engine.optimize`).
    #: Only shuffle stages may carry a non-zero value.
    shuffle_records_saved: int = 0
    spilled_records: int = 0
    #: Meta-scale stages carry per-tag summary records, charged at the
    #: config's result_record_bytes instead of bytes_per_record.
    meta: bool = False
    #: Name (and label, if set) of the plan node that opened this stage.
    origin: str = ""
    task_seconds: list = field(default_factory=list)
    failed_attempt_seconds: float = 0.0
    task_retries: int = 0
    straggler_tasks: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False,
        compare=False,
    )

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()

    @property
    def num_tasks(self):
        return len(self.task_records)

    @property
    def total_records(self):
        return sum(self.task_records)

    @property
    def measured_seconds(self):
        """Total measured task wall-clock for this stage.

        Successful attempts only; see ``failed_attempt_seconds`` for
        time lost to faults.
        """
        return sum(self.task_seconds)

    def credit_task_records(self, counts):
        """Credit one task set's processed records: ``counts[i]`` to
        task ``i``, the whole set under one lock acquisition."""
        with self._lock:
            _credit(self.task_records, counts, 0)

    def credit_task_seconds(self, seconds):
        """Credit one task set's measured wall-clock: ``seconds[i]`` to
        task ``i`` (``0.0`` for a task that was not dispatched)."""
        with self._lock:
            _credit(self.task_seconds, seconds, 0.0)

    def add_failed_attempt_seconds(self, seconds):
        """Credit wall-clock burned in a failed task attempt."""
        with self._lock:
            self.failed_attempt_seconds += seconds

    def add_task_retries(self, count):
        """Credit retried task attempts to this stage."""
        with self._lock:
            self.task_retries += count

    def add_straggler_tasks(self, count):
        """Credit detected straggler tasks to this stage."""
        with self._lock:
            self.straggler_tasks += count


@dataclass
class JobMetrics:
    """Metrics for one job (one action: collect, count, reduce, ...)."""

    job_id: int
    action: str = ""
    stages: list = field(default_factory=list)
    broadcast_records: int = 0
    broadcast_meta_records: int = 0
    collected_records: int = 0
    saved_records: int = 0
    saved_meta_records: int = 0
    label: str = ""
    #: Submission slot for jobs run concurrently via ``ctx.gather``:
    #: the index of the thunk that submitted this job, or -1 for jobs
    #: submitted from the driver thread.  Used to restore submission
    #: order in the trace after a concurrent window closes.
    slot: int = -1
    #: Accounting-window ticket (``ctx.begin_job``): every job created
    #: while a window is open on the submitting thread carries the
    #: window's ticket, so ``ctx.end_job`` can extract exactly its own
    #: jobs even when several windows run concurrently (the service's
    #: worker slots).  -1 means "no window".
    ticket: int = -1

    def new_stage(self, kind, meta=False, origin=""):
        stage = StageMetrics(
            stage_id=len(self.stages), kind=kind, meta=meta,
            origin=origin,
        )
        self.stages.append(stage)
        return stage

    @property
    def total_records(self):
        return sum(stage.total_records for stage in self.stages)

    @property
    def total_shuffle_records(self):
        return sum(stage.shuffle_read_records for stage in self.stages)

    @property
    def measured_task_seconds(self):
        """Measured task wall-clock summed over the job's stages."""
        return sum(stage.measured_seconds for stage in self.stages)

    @property
    def failed_attempt_seconds(self):
        return sum(stage.failed_attempt_seconds for stage in self.stages)

    @property
    def task_retries(self):
        return sum(stage.task_retries for stage in self.stages)


@dataclass
class ExecutionTrace:
    """All jobs run against one :class:`~repro.engine.context.EngineContext`.

    The trace is append-only; ``reset()`` starts a fresh measurement window
    (used by the benchmark harness between systems).
    """

    jobs: list = field(default_factory=list)
    #: Next job id.  Monotonic across the trace's lifetime, so draining
    #: completed jobs (``take_ticket_jobs``) never recycles an id.
    next_job_id: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False,
        compare=False,
    )
    _slots: threading.local = field(
        default_factory=threading.local, init=False, repr=False,
        compare=False,
    )

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_lock"]
        del state["_slots"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()
        self._slots = threading.local()

    def new_job(self, action, label=""):
        with self._lock:
            job = JobMetrics(
                job_id=self.next_job_id, action=action, label=label,
                slot=getattr(self._slots, "value", -1),
                ticket=getattr(self._slots, "ticket", -1),
            )
            self.next_job_id += 1
            self.jobs.append(job)
            return job

    def set_job_slot(self, slot):
        """Tag jobs created on *this thread* with a submission slot.

        ``ctx.gather`` assigns each concurrent thunk a slot so the
        trace can be restored to submission order afterwards; pass
        ``-1`` (the default for untagged threads) to clear.
        """
        self._slots.value = slot

    def current_slot(self):
        """The submission slot tagged on this thread (-1 if none)."""
        return getattr(self._slots, "value", -1)

    def set_job_ticket(self, ticket):
        """Tag jobs created on *this thread* with an accounting ticket.

        ``ctx.begin_job`` opens a window by tagging the calling thread;
        ``-1`` clears.  Orthogonal to the gather slot: the slot orders
        concurrent jobs, the ticket groups them into windows.
        """
        self._slots.ticket = ticket

    def current_ticket(self):
        """The accounting ticket tagged on this thread (-1 if none)."""
        return getattr(self._slots, "ticket", -1)

    def take_ticket_jobs(self, ticket, drain=True):
        """Jobs tagged with ``ticket``, in trace order.

        With ``drain=True`` (the default) the returned jobs are removed
        from the trace -- this is how a long-lived context keeps its
        trace bounded: each completed accounting window carries its own
        jobs away.  ``drain=False`` returns them but leaves the trace
        intact (used when a surrounding harness still wants the full
        trace, e.g. the bench regression gate).
        """
        with self._lock:
            taken = [job for job in self.jobs if job.ticket == ticket]
            if drain:
                self.jobs = [
                    job for job in self.jobs if job.ticket != ticket
                ]
            return taken

    def restore_submission_order(self, start_id=0):
        """Stable-sort the jobs with ``job_id >= start_id`` by slot.

        Jobs appended concurrently land in completion order; sorting by
        the submission slot (stable, so a slot's own jobs keep their
        relative order) makes the trace independent of thread timing.
        The window is addressed by job *id*, not list position, so a
        concurrent ``take_ticket_jobs`` drain (another worker slot
        closing its accounting window) cannot shift it; the sorted jobs
        are renumbered consecutively from the window's smallest id.
        """
        with self._lock:
            keep = [j for j in self.jobs if j.job_id < start_id]
            window = [j for j in self.jobs if j.job_id >= start_id]
            if not window:
                return
            base = min(job.job_id for job in window)
            window.sort(key=lambda job: job.slot)
            for index, job in enumerate(window):
                job.job_id = base + index
            self.jobs = keep + window

    def reset(self):
        with self._lock:
            self.jobs.clear()

    @property
    def num_jobs(self):
        return len(self.jobs)

    @property
    def num_stages(self):
        return sum(len(job.stages) for job in self.jobs)

    @property
    def num_tasks(self):
        return sum(
            stage.num_tasks for job in self.jobs for stage in job.stages
        )

    @property
    def total_records(self):
        return sum(job.total_records for job in self.jobs)

    @property
    def measured_task_seconds(self):
        """Measured task wall-clock summed over every job.

        Successful attempts only: a retried task contributes the time
        of the attempt that produced its result, never the failed ones
        (those are in :attr:`failed_attempt_seconds`).
        """
        return sum(job.measured_task_seconds for job in self.jobs)

    @property
    def failed_attempt_seconds(self):
        """Wall-clock lost to failed task attempts across every job."""
        return sum(job.failed_attempt_seconds for job in self.jobs)

    @property
    def task_retries(self):
        return sum(job.task_retries for job in self.jobs)

    def summary(self):
        """Human-readable one-line summary of the trace."""
        return (
            "jobs=%d stages=%d tasks=%d records=%d"
            % (self.num_jobs, self.num_stages, self.num_tasks,
               self.total_records)
        )

    def describe(self, max_jobs=None):
        """A multi-line per-job rendering of the trace (a mini Spark UI).

        Args:
            max_jobs: Show only the last ``max_jobs`` jobs.
        """
        jobs = self.jobs if max_jobs is None else self.jobs[-max_jobs:]
        lines = [self.summary()]
        for job in jobs:
            label = " [%s]" % job.label if job.label else ""
            lines.append(
                "job %d: %s%s -- %d stages, %d records"
                % (job.job_id, job.action, label, len(job.stages),
                   job.total_records)
            )
            for stage in job.stages:
                origin = " <- %s" % stage.origin if stage.origin else ""
                scale = " meta" if stage.meta else ""
                extras = []
                if stage.shuffle_read_records:
                    extras.append(
                        "shuffle=%d" % stage.shuffle_read_records
                    )
                if stage.shuffle_records_saved:
                    extras.append(
                        "saved=%d" % stage.shuffle_records_saved
                    )
                if stage.spilled_records:
                    extras.append("spill=%d" % stage.spilled_records)
                if stage.task_seconds:
                    extras.append(
                        "measured=%.3fs" % stage.measured_seconds
                    )
                if stage.task_retries:
                    extras.append("retries=%d" % stage.task_retries)
                if stage.straggler_tasks:
                    extras.append(
                        "stragglers=%d" % stage.straggler_tasks
                    )
                lines.append(
                    "  stage %d (%s%s): tasks=%d records=%d %s%s"
                    % (
                        stage.stage_id, stage.kind, scale,
                        stage.num_tasks, stage.total_records,
                        " ".join(extras), origin,
                    )
                )
        return "\n".join(lines)
