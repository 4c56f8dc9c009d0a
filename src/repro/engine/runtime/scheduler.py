"""The task scheduler: stage dispatch, retries, and straggler tracking.

The executor hands the scheduler one *task set* per stage evaluation --
the same task callable applied to each partition's arguments -- and the
scheduler owns everything a Spark ``TaskSchedulerImpl`` would: running
the set on the configured backend, retrying failed attempts within the
retry budget, re-raising permanent failures, and recording per-task
measured wall-clock (plus retry and straggler counts) into the stage's
metrics, next to the simulated counters.

The task set, not the task, is the unit of driver-side cost: a
flattened program at laptop scale runs tens of thousands of one-record
tasks per job, most of them over an *empty* partition.  ``run_stage``
therefore splits a set once -- partitions whose inputs are all empty
share the one value their task class declares for them (asked once per
set; partitions are read-only, so one object serves them all) and are
never dispatched, on either backend -- and credits measured seconds to the
stage as one dense list per set (per retry wave), one lock acquisition
each.  Nothing runs per empty partition above C level.

The batch, not the task, is the unit of execution: the live tasks run
as batches -- runs of consecutive live partitions, each closed once its
inputs hold the task class's ``budget`` of records,
:data:`~repro.engine.runtime.task.VECTOR` by default -- and a
batch is one call of the task's body, one invocation on the process
backend, one clock pair and one ``task`` span.  Everything else stays
per task.  A pending fault plan and a task class whose records do not
measure its cost (``budget`` 0: ``map_partitions``, a plain callable)
make every task a batch of its own, and the process backend lowers the
budget until a set has batches enough for every worker (see
:meth:`~repro.engine.runtime.backends.ProcessPoolBackend.batch_budget`).
A retryable failure of a batch sends its tasks out again one by one,
so a retry, a failure count and a
:class:`~repro.errors.TaskFailedError` always name a task.

Measured-time accounting: a batch's clock pair is spread over its tasks
by the records each held (plus one, so each reads more than nothing); a
task that holds a batch's budget alone is timed alone.  A slow record
in a batch of small partitions therefore raises its batch's shares, not
its own partition's; a ``straggler`` instant names the batch it was
judged in.  Only the
*successful* attempt of a task is credited to ``stage.task_seconds`` --
a retried task is never counted twice -- and a task that was not
dispatched reads ``0.0``.  Time burned in failed attempts accrues
separately to ``stage.failed_attempt_seconds``.

Retry policy: only *transient* failures are retried -- injected faults
(:class:`~repro.engine.runtime.faults.FaultInjector`) and any error
whose ``retryable`` attribute is true, such as the
:class:`~repro.errors.WorkerLostError` of an invocation a dead worker
process took with it.  Deterministic failures
(:class:`~repro.errors.UdfError`, simulated OOM, plan errors) fail the
job on first occurrence: rerunning a UDF bug ``max_task_attempts``
times would only repeat its side effects.

Effect gating (:mod:`repro.analysis.effects`): a retry silently
re-executes the task's UDFs, which is only sound when they are
deterministic.  When the effect analysis *refutes* determinism for a
task about to be retried, the scheduler refuses to do so silently: it
warns once per operator and surfaces a ``nondeterministic_retry``
trace instant before proceeding (retries stay on -- a loud retry beats
a lost job, but the discrepancy is now observable).  Stragglers are
detected and counted, never re-dispatched: by the time a task set's
median is known every task of it has succeeded, so a copy could only
add time.

Tracing (:mod:`repro.observe`): when the context traces, every
dispatch emits a ``stage`` span wrapping one ``task_set`` span per
retry wave, ``task`` spans -- one per batch -- re-anchored from worker
outcomes onto the driver timeline, and ``fault`` / ``task_retry`` /
``straggler`` instants.  All hooks are guarded by ``tracer.enabled``;
with tracing off the only cost is one attribute read per dispatch.

Concurrency: jobs gathered over one context (``ctx.gather``, the serve
daemon's slots) drive ``run_stage`` from one thread each, so the
attempt counters are lock-guarded and each job's thread names the
trace lane its stages belong on
(:meth:`TaskScheduler.set_dispatch_lane`, set by the executor when it
opens the job), keeping concurrent jobs' spans nested per lane.
Straggler detection needs no cross-stage coordination by construction:
each dispatch compares a task only against the other tasks of its *own*
set, so a slow stage of a concurrently running job can never skew
another stage's baseline.
"""

import bisect
import itertools
import os
import statistics
import threading
import time
import warnings

from ...errors import TaskFailedError
from ...observe import NULL_TRACER
from ...observe.events import (
    DRIVER_LANE,
    KIND_FAULT,
    KIND_NONDETERMINISTIC_RETRY,
    KIND_STAGE,
    KIND_STRAGGLER,
    KIND_TASK,
    KIND_TASK_RETRY,
    KIND_TASK_SET,
    worker_lane,
)
from .backends import SerialBackend, make_backend
from .faults import FaultInjector
from .task import CallTask, Invocation


class TaskScheduler:
    """Dispatches per-partition tasks for one engine context."""

    def __init__(self, config, fault_injector=None, backend=None,
                 tracer=None):
        self.config = config
        self.fault_injector = (
            fault_injector if fault_injector is not None else FaultInjector()
        )
        self.backend = backend if backend is not None else make_backend(config)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Backends emit their own serde spans through the context's
        # tracer (plain attribute: backends default to NULL_TRACER).
        self.backend.tracer = self.tracer
        #: Task sets dispatched so far.  When the executor plans a job
        #: it reserves each dispatch's ordinal up front (see
        #: :mod:`repro.engine.dag`) and passes it explicitly; direct
        #: callers that omit it draw from this counter.  Either way the
        #: fault injector's stage addressing stays deterministic.
        self.dispatch_count = 0
        #: Total task attempts ever sent to the backend, split by
        #: outcome.  Tasks over empty partitions that ``run_stage``
        #: filled in without dispatching are not attempts.
        self.tasks_launched = 0
        self.tasks_failed = 0
        self.tasks_retried = 0
        # Guards the counters above: concurrently gathered jobs all
        # credit them.
        self._counter_lock = threading.Lock()
        # Operators already warned about a nondeterministic retry; the
        # warning fires once per operator, the trace instant every time.
        self._effect_warned = set()
        # Per-thread trace lane: the lane of the job the thread is
        # running (unset: DRIVER_LANE).
        self._lanes = threading.local()

    def set_dispatch_lane(self, lane):
        """Set (or with ``None`` clear) this thread's trace lane: where
        the events of the stages it dispatches go."""
        self._lanes.value = lane

    def dispatch_lane(self):
        """This thread's trace lane (:data:`DRIVER_LANE` when unset)."""
        lane = getattr(self._lanes, "value", None)
        return DRIVER_LANE if lane is None else lane

    def reserve_ordinals(self, count):
        """Reserve ``count`` consecutive dispatch ordinals; returns the
        first.  The executor calls this at planning time so a job's
        ordinals are fixed by the plan, not by runtime dispatch order."""
        with self._counter_lock:
            base = self.dispatch_count
            self.dispatch_count += count
            return base

    # ------------------------------------------------------------------

    def run_stage(self, task, parts, stage=None, ordinal=None):
        """Run ``task`` over every partition's input; return the values.

        Args:
            task: A picklable task, shared by the set: an engine task
                class (see :mod:`repro.engine.runtime.task`), whose
                ``run`` takes a batch of inputs, or a plain callable,
                run through :class:`~repro.engine.runtime.task.CallTask`.
            parts: One input per task; task ``i`` is partition ``i`` of
                the stage.  An engine task's input is what its ``run``
                takes per partition; a plain callable's is its argument
                tuple.
            stage: Optional :class:`~repro.engine.metrics.StageMetrics`
                to credit measured seconds / retries / stragglers to.
            ordinal: Pre-reserved dispatch ordinal (see
                :meth:`reserve_ordinals`); drawn from the counter when
                omitted.

        Returns:
            The task values, in task order.  Tasks that were not
            dispatched (see :meth:`_split_empties`) all hold the set's
            one ``empty_result()`` object: read it, never mutate it.

        Raises:
            The reconstructed task error after a non-retryable failure,
            or :class:`~repro.errors.TaskFailedError` when a task
            exhausts ``config.max_task_attempts``.
        """
        if ordinal is None:
            ordinal = self.reserve_ordinals(1)
        if not hasattr(task, "run"):
            task = CallTask(task)
        tracer = self.tracer
        pending = self.fault_injector.pending
        values, sizes, live = self._split_empties(task, parts, pending)
        # A fault plan addresses tasks: it runs them as batches of one.
        batches = self._batches(
            live, sizes,
            0 if pending else self.backend.batch_budget(task.budget, sizes),
        )
        if not tracer.enabled and not pending and isinstance(
            self.backend, SerialBackend
        ):
            # Hot path: a paper-scale stage dispatches hundreds of
            # batches and the serial backend runs them right here, so
            # skip the invocation/outcome machinery -- real failures are
            # non-retryable under the retry policy anyway, and raising
            # in place preserves the original traceback exactly.
            return self._run_serial_fast(
                task, parts, stage, values, sizes, live, batches
            )
        operator = getattr(task, "operator", type(task).__name__)
        if not tracer.enabled:
            return self._run_outcomes(
                task, parts, stage, ordinal, operator, values, sizes, live,
                batches,
            )
        stage_id = stage.stage_id if stage is not None else ordinal
        with tracer.span(
            "stage#%s:%s" % (stage_id, operator),
            KIND_STAGE,
            lane=self.dispatch_lane(),
            dispatch=ordinal,
            operator=operator,
            tasks=len(parts),
            backend=self.backend.name,
        ) as span_args:
            before = stage.measured_seconds if stage is not None else 0.0
            values = self._run_outcomes(
                task, parts, stage, ordinal, operator, values, sizes, live,
                batches,
            )
            if stage is not None:
                # Task spans are capped per stage, so the span carries
                # the *full* measured per-task total itself -- reports
                # and traces agree exactly on stage measured seconds.
                span_args["task_seconds"] = (
                    stage.measured_seconds - before
                )
            return values

    def _split_empties(self, task, parts, pending):
        """Split a task set once: ``(values, sizes, live)``.

        ``sizes`` holds each input's record count (the task's
        ``size``), ``live`` the task indices to dispatch, and
        ``values`` is the set's result list with every other entry
        already filled in.  A task whose input is empty is not
        dispatched when the task class declares what such a call
        returns (``empty_result()``, see
        :mod:`repro.engine.runtime.task`): it gets that value, ``0.0``
        measured seconds, and is never launched on either backend.
        ``empty_result()`` is asked once per task set and its value
        fills every undispatched slot: partitions are read-only values,
        so the set's empties -- and whatever partitions are built from
        them -- may be one object.  The one consumer that may mutate
        its input, a ``map_partitions`` UDF, is handed a list of its
        own by the executor.

        A pending fault injector dispatches everything: a fault
        addressed at an empty partition's task must still fire.
        """
        sizes = list(map(task.size, parts))
        empty_result = getattr(task, "empty_result", None)
        if empty_result is None or pending:
            return [None] * len(parts), sizes, list(range(len(parts)))
        return (
            [empty_result()] * len(parts),
            sizes,
            list(itertools.compress(range(len(parts)), sizes)),
        )

    @staticmethod
    def _batches(live, sizes, budget):
        """The task indices ``live`` as batches: runs of consecutive
        live tasks, each closed once its inputs hold ``budget`` records.
        An input that holds the budget alone is a batch of its own, so
        a budget of ``0`` makes every task one."""
        if not budget:
            return [[index] for index in live]
        held = list(map(sizes.__getitem__, live))
        # before[k]: the records of the live inputs ahead of the k-th.
        before = list(itertools.accumulate(held, initial=0))
        batches = []
        start = 0
        while start < len(live):
            stop = min(
                len(live),
                bisect.bisect_left(before, before[start] + budget, start + 1),
            )
            # Only the input that reached the budget can hold it alone.
            if stop - start > 1 and held[stop - 1] >= budget:
                stop -= 1
            batches.append(live[start:stop])
            start = stop
        return batches

    def _run_outcomes(self, task, parts, stage, ordinal, operator, values,
                      sizes, live, batches):
        """The outcome-mediated dispatch loop (retries, tracing)."""
        tracer = self.tracer
        collect = tracer.enabled
        span_cap = tracer.max_task_spans

        lane = self.dispatch_lane()
        num_tasks = len(parts)
        # The measured seconds of every task's successful attempt.
        seconds = [0.0] * num_tasks
        # The successful outcomes, for the batches stragglers name.
        done = []
        pending = [
            self._invocation(task, parts, batch, ordinal, operator, 1, number)
            for number, batch in enumerate(batches)
        ]
        wave = 0
        while pending:
            window_start = tracer.now()
            outcomes = self.backend.run_invocations(pending)
            window_end = tracer.now()
            launched = sum(len(invocation.indices) for invocation in pending)
            if collect:
                tracer.emit_anchored(
                    "taskset#%d.%d:%s" % (ordinal, wave, operator),
                    KIND_TASK_SET, window_start, 0.0,
                    window_end - window_start, lane,
                    dispatch=ordinal, wave=wave, tasks=launched,
                    batches=len(pending),
                )
            with self._counter_lock:
                self.tasks_launched += launched
            wave += 1
            pending = []
            # This wave's successes, credited as one dense list (also
            # when a permanent failure below ends the dispatch).
            wave_seconds = [0.0] * num_tasks
            try:
                for number, outcome in enumerate(outcomes):
                    # Task spans are capped per stage, counted in
                    # batches (failures and retries always emit); see
                    # Tracer.max_task_spans.
                    if collect and (
                        number < span_cap
                        or not outcome.ok
                        or outcome.attempt > 1
                    ):
                        self._emit_task_events(
                            outcome, operator, ordinal, window_start,
                            window_end,
                        )
                    if outcome.ok:
                        if collect:
                            done.append(outcome)
                        _apportion(
                            wave_seconds, outcome.indices, sizes,
                            outcome.seconds,
                        )
                        for index, value in zip(
                            outcome.indices, outcome.values
                        ):
                            values[index] = value
                            seconds[index] = wave_seconds[index]
                    else:
                        pending.extend(
                            self._retry_invocations(
                                task, parts, stage, ordinal, operator,
                                outcome, lane,
                            )
                        )
            finally:
                if stage is not None:
                    stage.credit_task_seconds(wave_seconds)
        # Straggler baseline: only this dispatch's own per-task
        # attributed seconds.  Concurrent sibling stages never enter
        # the median, so an unbalanced co-scheduled stage cannot mask
        # (or fabricate) a straggler here.
        stragglers = self._straggler_indices(seconds, live)
        if stage is not None:
            stage.add_straggler_tasks(len(stragglers))
        if collect:
            for index in stragglers:
                # Its seconds are a share of this batch's clock pair.
                batch = next(
                    outcome for outcome in done
                    if outcome.indices[0] <= index <= outcome.indices[-1]
                )
                tracer.instant(
                    "straggler:%s#%d" % (operator, index),
                    KIND_STRAGGLER,
                    lane=lane,
                    dispatch=ordinal,
                    partition=index,
                    seconds=seconds[index],
                    task=batch.indices[0],
                    last=batch.indices[-1],
                    batch_seconds=batch.seconds,
                )
        return values

    def _retry_invocations(self, task, parts, stage, ordinal, operator,
                           outcome, lane):
        """Account one failed attempt; return its retries or raise.

        A failed batch counts one failure per task it held, and a
        retryable one is dispatched again as batches of one, so every
        count, retry and error still names a task.  A failed attempt
        never counts toward the stage's ``task_seconds`` (retried work
        must not be double-billed); it is tracked separately.
        """
        tracer = self.tracer
        collect = tracer.enabled
        indices = outcome.indices
        if stage is not None:
            stage.add_failed_attempt_seconds(outcome.seconds)
        with self._counter_lock:
            self.tasks_failed += len(indices)
        if collect:
            tracer.instant(
                "fault:%s#%d" % (operator, indices[0]),
                KIND_FAULT,
                lane=lane,
                dispatch=ordinal,
                task=indices[0],
                tasks=len(indices),
                attempt=outcome.attempt,
                error=type(outcome.error).__name__,
            )
        if not outcome.retryable:
            self._reraise(outcome)
        if outcome.attempt >= self.config.max_task_attempts:
            raise TaskFailedError(
                ordinal,
                indices[0],
                outcome.attempt,
                outcome.error,
            )
        with self._counter_lock:
            self.tasks_retried += len(indices)
        if stage is not None:
            stage.add_task_retries(len(indices))
        # No silent retry of a provably nondeterministic task: the
        # re-run may legitimately produce a different result, so make
        # the hazard observable before it runs.
        report = self._task_effects(task)
        retries = []
        for index in indices:
            if report is not None and report.deterministic is False:
                self._note_nondeterministic_retry(
                    operator, ordinal, index, lane
                )
            if collect:
                tracer.instant(
                    "retry:%s#%d" % (operator, index),
                    KIND_TASK_RETRY,
                    lane=lane,
                    dispatch=ordinal,
                    task=index,
                    next_attempt=outcome.attempt + 1,
                    error=type(outcome.error).__name__,
                )
            retries.append(
                self._invocation(
                    task, parts, [index], ordinal, operator,
                    outcome.attempt + 1, 0,
                )
            )
        return retries

    # ------------------------------------------------------------------
    # Effect gating: nondeterministic retries
    # ------------------------------------------------------------------

    def _task_effects(self, task):
        """Combined effect report over the task's UDFs, or ``None``.

        Tasks that carry no user code (shuffle buckets, broadcast
        probes) expose no ``udfs`` attribute and are trivially safe to
        re-execute, so they skip the analysis entirely.  Imported
        lazily: the scheduler must not pull :mod:`repro.analysis` in
        on the plain execution path.
        """
        udfs = getattr(task, "udfs", ())
        if not udfs:
            return None
        from ...analysis.effects import task_effects
        return task_effects(udfs)

    def _note_nondeterministic_retry(self, operator, ordinal, index, lane):
        """Warn once per operator; trace every occurrence."""
        with self._counter_lock:
            warn = operator not in self._effect_warned
            if warn:
                self._effect_warned.add(operator)
        if warn:
            warnings.warn(
                "retrying task of operator %r: its UDFs are provably "
                "nondeterministic, so the repeated attempt may observe "
                "a different result" % operator,
                RuntimeWarning,
                stacklevel=3,
            )
        if self.tracer.enabled:
            self.tracer.instant(
                "nondeterministic-retry:%s#%d" % (operator, index),
                KIND_NONDETERMINISTIC_RETRY,
                lane=lane,
                dispatch=ordinal,
                task=index,
                reason="retry",
            )

    #: Clock skew tolerated between a worker's ``start_epoch`` read and
    #: the driver's dispatch-window reads before re-anchoring falls
    #: back to clamping (seconds).  Workers share the machine's wall
    #: clock, so anything beyond this means the clock was adjusted.
    CLOCK_DRIFT_TOLERANCE_S = 1.0

    def _emit_task_events(self, outcome, operator, ordinal, window_start,
                          window_end):
        """Re-anchor one attempt (and its worker events) to the driver.

        The anchor is the attempt's **own** ``start_epoch`` -- not the
        task set's dispatch time.  A worker that runs tasks from two
        concurrently dispatched stages back-to-back starts the second
        task long after its stage's dispatch; anchoring to the dispatch
        window used to drag such a task (and its worker events)
        backwards, mis-ordering events on the worker's lane.  The
        dispatch window now serves only as a sanity check: when
        ``start_epoch`` lands outside it by more than the drift
        tolerance, the wall clock was adjusted between reads and the
        anchor falls back to clamping into the window.
        """
        tracer = self.tracer
        anchor = outcome.start_epoch
        drift = self.CLOCK_DRIFT_TOLERANCE_S
        if (
            anchor < window_start - drift
            or anchor + outcome.seconds > window_end + drift
        ):
            anchor = min(
                max(anchor, window_start),
                max(window_start, window_end - outcome.seconds),
            )
        lane = (
            self.dispatch_lane()
            if outcome.worker_pid in (0, os.getpid())
            else worker_lane(outcome.worker_pid)
        )
        tracer.emit_anchored(
            "task:%s#%d" % (operator, outcome.indices[0]),
            KIND_TASK, anchor, 0.0, outcome.seconds, lane,
            dispatch=ordinal,
            task=outcome.indices[0],
            last=outcome.indices[-1],
            tasks=len(outcome.indices),
            attempt=outcome.attempt,
            ok=outcome.ok,
            pid=outcome.worker_pid,
        )
        for name, kind, offset, dur, args in outcome.events or ():
            tracer.emit_anchored(
                name, kind, anchor, offset, dur, lane, **args
            )

    # ------------------------------------------------------------------

    def _run_serial_fast(self, task, parts, stage, values, sizes, live,
                         batches):
        """Inline execution, one clock pair per batch, no retry
        plumbing."""
        perf_counter = time.perf_counter
        seconds = [0.0] * len(parts)
        for batch in batches:
            start = perf_counter()
            results = task.run(list(map(parts.__getitem__, batch)))
            elapsed = perf_counter() - start
            for index, value in zip(batch, results):
                values[index] = value
            _apportion(seconds, batch, sizes, elapsed)
        with self._counter_lock:
            self.tasks_launched += len(live)
        if stage is not None:
            stage.credit_task_seconds(seconds)
            stage.add_straggler_tasks(
                len(self._straggler_indices(seconds, live))
            )
        return values

    def _invocation(self, task, parts, batch, ordinal, operator, attempt,
                    number):
        """Attempt ``attempt`` of ``batch``, the set's ``number``-th."""
        inject = any(
            self.fault_injector.should_fail(ordinal, operator, index)
            for index in batch
        )
        collect = self.tracer.enabled and (
            number < self.tracer.max_task_spans or attempt > 1
        )
        return Invocation(
            task=task,
            parts=[parts[index] for index in batch],
            indices=batch,
            attempt=attempt,
            inject_fault=inject,
            collect_events=collect,
        )

    def _reraise(self, outcome):
        error = outcome.error
        if outcome.error_traceback and outcome.worker_pid != 0:
            # Cross-process errors lose their original traceback; keep
            # the worker-side rendering on the exception for debugging.
            error.worker_traceback = outcome.error_traceback
        raise error

    def _straggler_indices(self, seconds, ran):
        """Indices of tasks that took disproportionately long.

        ``seconds`` is the set's dense per-task list and ``ran`` the
        indices that were dispatched.  A task is a straggler when it
        exceeds both the configured multiple of the median runtime of
        the tasks that *ran* (``config.straggler_factor``; the zeros of
        undispatched tasks would drag the median to nothing) and an
        absolute floor (so microsecond-scale jitter never counts).
        """
        if len(ran) < 2:
            return []
        floor = self.config.straggler_min_task_seconds
        ran_seconds = [seconds[index] for index in ran]
        if max(ran_seconds) <= floor:
            return []  # nothing clears the floor: skip the sort
        threshold = max(
            floor,
            self.config.straggler_factor * statistics.median(ran_seconds),
        )
        return [index for index in ran if seconds[index] > threshold]

    def close(self):
        self.backend.close()


def _apportion(seconds, batch, sizes, elapsed):
    """Spread one batch's clock pair, ``elapsed``, over its tasks in
    ``seconds``: in proportion to the records each input held, plus one,
    so every task reads more than nothing and the shares sum to the
    pair.  A batch of one reads the pair itself."""
    if len(batch) == 1:
        seconds[batch[0]] = elapsed
        return
    share = elapsed / (len(batch) + sum([sizes[index] for index in batch]))
    for index in batch:
        seconds[index] = (sizes[index] + 1) * share
