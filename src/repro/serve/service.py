"""The job service: a long-lived multi-tenant daemon over one engine.

:class:`JobService` keeps a single :class:`~repro.engine.context.
EngineContext` alive across an unbounded stream of jobs from many
tenants.  The pieces:

* **Submission** (:meth:`JobService.submit`): a *program* -- any
  callable taking a :class:`JobContext` -- is queued under a tenant and
  returns a :class:`JobHandle` future immediately; admission control
  (:class:`~repro.serve.queue.JobQueue`) rejects it instead when the
  tenant's quota or the global queue depth is exhausted.
* **Scheduling**: a pool of worker-slot threads pulls jobs off the
  queue under deficit round-robin, so under contention tenants drain
  in proportion to their weights.  With ``num_slots=1`` the execution
  order *is* the DRR order and therefore deterministic for a given
  seed; the recent dequeue order is exposed as :meth:`schedule` so
  tests can assert it.
* **Execution**: each job runs inside ``ctx.begin_job()`` /
  ``ctx.end_job()``, so its engine jobs are extracted from the trace
  as they finish (:class:`~repro.engine.context.JobAccounting`) and
  the shared context's retained state stays bounded no matter how many
  jobs the daemon serves.
* **Artifacts**: programs resolve shared inputs through
  :meth:`JobContext.dataset` / :meth:`JobContext.broadcast`, backed by
  the memory-bounded :class:`~repro.serve.artifacts.ArtifactCache`.
  Artifacts a job resolves stay pinned until the job ends; eviction of
  a bag artifact calls :meth:`~repro.engine.bag.Bag.uncache`, which
  also invalidates the subtree's adoptable shuffle layouts.
* **Reporting**: per-tenant counters (:class:`~repro.serve.tenants.
  TenantStats`), a bounded window of recent engine jobs' report
  entries (:func:`~repro.observe.report.job_entry`: scalars per stage,
  no per-task trace), and -- when
  ``report_dir`` is set -- one JSONL job log plus one ``RunReport``
  JSON per tenant.
"""

import collections
import json
import os
import sys
import threading
import time
import warnings

from ..engine.broadcast import Broadcast
from ..engine.context import EngineContext
from ..observe.report import RunReport, entry_from_job_entries
from ..udf import closure_bindings, fingerprint_function, unwrap
from .artifacts import KIND_BAG, KIND_BROADCAST, ArtifactCache
from .queue import (
    REJECT_SHUTDOWN,
    AdmissionRejected,
    JobQueue,
    PendingJob,
)
from .tenants import TenantConfig, TenantStats

__all__ = ["JobHandle", "JobContext", "JobService"]

#: How many recent dequeues :meth:`JobService.schedule` retains.
SCHEDULE_WINDOW = 1024
#: How many recent engine jobs' report entries each tenant retains.
REPORT_WINDOW = 256


class JobHandle:
    """Future for one submitted job.

    States: ``"pending"`` -> ``"running"`` -> ``"done"`` | ``"failed"``.

    *Completion hand-off.*  The handle counts the threads blocked in
    :meth:`result` (under a lock: ``+=`` on a slot can lose updates),
    and the slot that completed the job lets one of them resume, for
    at most ``sys.getswitchinterval()``, before it dequeues its next
    job, instead of keeping the interpreter lock for that long.
    """

    __slots__ = ("tenant", "label", "state", "accounting",
                 "queue_wait_seconds", "wall_seconds", "_value",
                 "_error", "_event", "_waiters", "_waiters_lock",
                 "_resumed")

    def __init__(self, tenant, label=""):
        self.tenant = tenant
        self.label = label
        self.state = "pending"
        self.accounting = None
        self.queue_wait_seconds = None
        self.wall_seconds = None
        self._value = None
        self._error = None
        self._event = threading.Event()
        self._waiters = 0
        self._waiters_lock = threading.Lock()
        self._resumed = threading.Event()

    def done(self):
        return self._event.is_set()

    def result(self, timeout=None):
        """Block for the program's return value.

        Re-raises the program's exception if it failed; raises
        :class:`TimeoutError` if the job has not finished in time.
        """
        with self._waiters_lock:
            self._waiters += 1
        try:
            finished = self._event.wait(timeout)
        finally:
            with self._waiters_lock:
                self._waiters -= 1
        if not finished:
            raise TimeoutError(
                "job %r (tenant %r) not finished within %rs"
                % (self.label, self.tenant, timeout)
            )
        self._resumed.set()
        if self._error is not None:
            raise self._error
        return self._value

    def _mark_running(self):
        self.state = "running"

    def _complete(self, value, error, accounting, queue_wait, wall):
        self._value = value
        self._error = error
        self.accounting = accounting
        self.queue_wait_seconds = queue_wait
        self.wall_seconds = wall
        self.state = "failed" if error is not None else "done"
        self._event.set()

    def _hand_off(self):
        """After :meth:`_complete`: let a blocked waiter run first."""
        if self._waiters:
            self._resumed.wait(sys.getswitchinterval())

    def __repr__(self):
        return (
            "JobHandle(tenant=%r, label=%r, state=%s)"
            % (self.tenant, self.label, self.state)
        )


class JobContext:
    """What a program sees while it runs: the engine + shared artifacts.

    Attributes:
        ctx: The service's shared
            :class:`~repro.engine.context.EngineContext`.  Programs use
            it exactly as in one-shot scripts (``ctx.bag_of`` etc.).
        tenant: The owning tenant's name.
    """

    __slots__ = ("ctx", "tenant", "_service", "_pinned")

    def __init__(self, service, tenant):
        self._service = service
        self.ctx = service.ctx
        self.tenant = tenant
        self._pinned = []

    def dataset(self, key, build):
        """A shared cached bag, built once and reused across jobs.

        ``build(ctx)`` must return a :class:`~repro.engine.bag.Bag`;
        it is invoked only on a cache miss and the result is marked
        ``cache()``.  The bag stays pinned (safe from eviction) until
        this job ends.  Keys are service-global: tenants naming the
        same key share one artifact.
        """
        return self._service._artifact(self, key, build, KIND_BAG)

    def broadcast(self, key, build):
        """A shared broadcast value, shipped once and reused.

        ``build(ctx)`` returns the payload (or a ready
        :class:`~repro.engine.broadcast.Broadcast`); misses wrap it via
        ``ctx.broadcast``.
        """
        return self._service._artifact(self, key, build, KIND_BROADCAST)

    def gather(self, *thunks):
        """Nested parallelism inside one job (``ctx.gather``)."""
        return self.ctx.gather(*thunks)

    def _release(self):
        """Re-charge and unpin this job's artifacts (job is over)."""
        for key in self._pinned:
            self._service._cache.charge(key)
        for key in self._pinned:
            self._service._cache.unpin(key)
        del self._pinned[:]


class JobService:
    """A long-lived multi-tenant job daemon over one engine context.

    Args:
        config: Cluster config for a service-owned context (ignored if
            ``ctx`` is given).
        ctx: Adopt an existing context instead of owning one -- the
            bench harness passes its own so the regression gate can
            cost the full trace.  Adopted contexts are not closed on
            shutdown.
        num_slots: Worker threads executing jobs.  1 (the default)
            makes the execution order exactly the DRR dequeue order --
            deterministic and assertable; more slots trade that for
            concurrency.
        cache_limit_bytes: Artifact-cache budget
            (:class:`~repro.serve.artifacts.ArtifactCache`); 0 runs
            the service "cold" (nothing retained across jobs).
        max_depth / quantum / seed: Queue admission + DRR knobs
            (:class:`~repro.serve.queue.JobQueue`).
        report_dir: When set, created on ``start()``; each tenant gets
            ``<tenant>.jsonl`` (one record per job) and -- on
            ``write_reports()``/``shutdown()`` -- ``<tenant>-report
            .json`` (a :class:`~repro.observe.report.RunReport`).
        retain_trace: Keep engine jobs in the context trace instead of
            draining them per job.  Only for harnesses that read
            ``ctx.trace`` afterwards; leaves growth unbounded.
    """

    def __init__(self, config=None, ctx=None, num_slots=1,
                 cache_limit_bytes=256 * 1024 * 1024, max_depth=256,
                 quantum=1.0, seed=0, report_dir=None,
                 retain_trace=False):
        if num_slots < 1:
            raise ValueError("num_slots must be >= 1")
        self._owns_ctx = ctx is None
        self.ctx = ctx if ctx is not None else EngineContext(config)
        self.num_slots = num_slots
        self.report_dir = report_dir
        self.retain_trace = retain_trace
        self._queue = JobQueue(
            max_depth=max_depth, quantum=quantum, seed=seed
        )
        self._cache = ArtifactCache(
            cache_limit_bytes, on_evict=self._on_evict
        )
        self._lock = threading.Lock()
        # Monotonic source of never-matching fingerprints for builders
        # whose determinism the effect analysis refuted or whose
        # captured values cannot be compared: each of their
        # jobs gets a fresh fingerprint, so the cache never serves a
        # value one nondeterministic build produced to another.
        self._volatile_fingerprints = 0
        self._stats = {}
        self._recent_jobs = {}
        self._sinks = {}
        self._schedule = collections.deque(maxlen=SCHEDULE_WINDOW)
        self._threads = []
        self._inflight = 0
        self._stopping = False
        self._started = False
        self._started_at = None

    # -- tenants -------------------------------------------------------

    def add_tenant(self, tenant, weight=1.0, max_pending=16):
        """Register a tenant (name or :class:`TenantConfig`)."""
        if not isinstance(tenant, TenantConfig):
            tenant = TenantConfig(
                tenant, weight=weight, max_pending=max_pending
            )
        self._queue.add_tenant(tenant)
        with self._lock:
            self._stats[tenant.name] = TenantStats()
            self._recent_jobs[tenant.name] = collections.deque(
                maxlen=REPORT_WINDOW
            )
        return tenant

    # -- lifecycle -----------------------------------------------------

    def start(self):
        """Spawn the worker slots (idempotent)."""
        with self._lock:
            if self._started:
                return self
            self._started = True
            self._started_at = time.monotonic()
        if self.report_dir:
            os.makedirs(self.report_dir, exist_ok=True)
        self._threads = [
            threading.Thread(
                target=self._worker, name="repro-serve-%d" % slot,
                daemon=True,
            )
            for slot in range(self.num_slots)
        ]
        for thread in self._threads:
            thread.start()
        return self

    def submit(self, tenant, program, label="", cost=1.0):
        """Queue ``program`` for ``tenant``; returns a :class:`JobHandle`.

        Raises :class:`~repro.serve.queue.AdmissionRejected` when
        admission control refuses the job (also counted in the
        tenant's ``rejected`` stat).
        """
        if not self._started:
            raise RuntimeError("service not started (call start())")
        handle = JobHandle(tenant, label)
        job = PendingJob(
            ticket=None, tenant=tenant, program=program,
            future=handle, label=label, cost=cost,
        )
        try:
            self._queue.submit(job)
        except AdmissionRejected:
            with self._lock:
                stats = self._stats.get(tenant)
                if stats is not None:
                    stats.record_rejection()
            raise
        with self._lock:
            self._stats[tenant].record_submit()
        return handle

    def drain(self, timeout=None):
        """Refuse new jobs; wait for queued + running jobs to finish.

        Returns ``True`` once idle, ``False`` on timeout.  The queue's
        ``join`` counts jobs from admission until the worker slot
        acknowledges completion, so there is no window in which a
        dequeued-but-starting job looks idle.
        """
        self._queue.drain()
        return self._queue.join(timeout)

    def shutdown(self, drain=True, timeout=None):
        """Stop the service.

        ``drain=True`` (default) finishes queued jobs first;
        ``drain=False`` abandons them (their handles fail with
        :class:`~repro.serve.queue.AdmissionRejected`).  Flushes
        per-tenant reports, joins the workers, and closes the context
        if the service owns it.
        """
        if drain:
            self.drain(timeout)
        with self._lock:
            self._stopping = True
        self._queue.close()
        # Abandon whatever is still queued (no-op after a drain) before
        # the workers can race us to it, so drain=False means what it
        # says for all but the jobs already mid-flight.
        self._fail_abandoned()
        for thread in self._threads:
            thread.join(timeout)
        if self.report_dir:
            self.write_reports()
        for sink in self._sinks.values():
            sink.close()
        self._sinks.clear()
        if self._owns_ctx:
            self.ctx.close()
        return self

    def _fail_abandoned(self):
        """Fail handles of jobs still queued after a no-drain shutdown."""
        while True:
            job = self._queue.take(timeout=0)
            if job is None:
                return
            try:
                job.future._complete(
                    None,
                    AdmissionRejected(
                        job.tenant, REJECT_SHUTDOWN,
                        "abandoned by shutdown(drain=False)",
                    ),
                    None, 0.0, 0.0,
                )
            finally:
                self._queue.task_done()

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.shutdown()
        return False

    # -- worker slots --------------------------------------------------

    def _worker(self):
        while True:
            job = self._queue.take(timeout=0.05)
            if job is None:
                if self._stopped() and self._queue.is_idle:
                    return
                continue
            with self._lock:
                self._inflight += 1
                self._schedule.append((job.tenant, job.label))
            try:
                self._execute(job)
            finally:
                with self._lock:
                    self._inflight -= 1
                self._queue.task_done()
            job.future._hand_off()

    def _stopped(self):
        with self._lock:
            return self._stopping

    def _execute(self, job):
        handle = job.future
        handle._mark_running()
        queue_wait = time.monotonic() - job.submitted_at
        started = time.monotonic()
        jc = JobContext(self, job.tenant)
        window = self.ctx.begin_job()
        value, error, accounting = None, None, None
        try:
            value = job.program(jc)
        except Exception as exc:  # noqa: BLE001 -- delivered via handle
            error = exc
        # Failed bookkeeping must not keep the outcome from the handle.
        try:
            try:
                accounting = self.ctx.end_job(
                    window, drain=not self.retain_trace
                )
            finally:
                jc._release()
            wall = time.monotonic() - started
            self._record(job, accounting, queue_wait, wall, error)
        except Exception as exc:  # noqa: BLE001 -- reported, not fatal
            wall = time.monotonic() - started
            warnings.warn(
                "job %r of tenant %r: recording its outcome failed: %r"
                % (job.label, job.tenant, exc), RuntimeWarning,
            )
        handle._complete(value, error, accounting, queue_wait, wall)

    def _record(self, job, accounting, queue_wait, wall, error):
        with self._lock:
            stats = self._stats[job.tenant]
            stats.record_finished(
                queue_wait, wall, accounting, failed=error is not None
            )
            self._recent_jobs[job.tenant].extend(accounting.entries)
            sink = self._job_sink(job.tenant)
        if sink is not None:
            record = {
                "tenant": job.tenant,
                "label": job.label,
                "status": "failed" if error is not None else "ok",
                "queue_wait_seconds": queue_wait,
                "wall_seconds": wall,
            }
            record.update(accounting.to_dict())
            if error is not None:
                record["error"] = repr(error)
            sink.write(record)

    def _job_sink(self, tenant):
        """Per-tenant JSONL job log (lazily opened; caller holds lock)."""
        if not self.report_dir:
            return None
        sink = self._sinks.get(tenant)
        if sink is None:
            sink = _JsonlJobLog(
                os.path.join(self.report_dir, "%s.jsonl" % tenant)
            )
            self._sinks[tenant] = sink
        return sink

    # -- artifacts -----------------------------------------------------

    def _artifact(self, jc, key, build, kind):
        def factory():
            value = build(self.ctx)
            if kind == KIND_BAG:
                return value.cache()
            if not isinstance(value, Broadcast):
                value = self.ctx.broadcast(value)
            return value

        value, hit = self._cache.get_or_build(
            key, factory, kind=kind, pin=True,
            fingerprint=self._artifact_fingerprint(build),
        )
        jc._pinned.append(key)
        with self._lock:
            stats = self._stats.get(jc.tenant)
            if stats is not None:
                stats.record_cache(hit)
        return value

    def _artifact_fingerprint(self, build):
        """Canonical identity of an artifact's builder program.

        Two jobs may share a cached artifact only when they would have
        built the same value, which requires (a) the same builder code
        -- captured by the canonical AST fingerprint
        (:func:`repro.udf.fingerprint_function`), which
        also covers the module-level helpers the builder calls -- (b)
        equal captured values: the builder's closure cells and its
        ``partial`` / bound-method bindings (:func:`repro.udf.unwrap`),
        compared with ``==``, so ``make_builder(3)`` and
        ``make_builder(5)`` never share -- and (c) a builder that
        produces the same value every run.  When the effect analysis
        *refutes* determinism, (c) provably fails, and when a captured
        value's comparison raises, (b) cannot be checked: either way
        the builder gets a fresh, never-matching fingerprint per job,
        so cross-job reuse is never offered for it.  A builder whose
        source is unavailable keeps a stable opaque code fingerprint
        (matching the pre-fingerprint behavior for artifacts the
        analysis cannot see into).
        """
        # Lazy import: the effect scanner lives above the engine.
        from ..analysis.effects import analyze_effects

        volatile = analyze_effects(build).deterministic is False
        inner, bindings = unwrap(build)
        captured = tuple(bindings) + tuple(closure_bindings(inner).items())
        try:
            for _name, value in captured:
                bool(value == value)
        except Exception:  # noqa: BLE001 -- no usable ==, no provable reuse
            volatile = True
        if volatile:
            with self._lock:
                self._volatile_fingerprints += 1
                return "volatile:%d" % self._volatile_fingerprints
        digest = fingerprint_function(build)
        return (digest if digest is not None else "opaque"), captured

    def _on_evict(self, entry):
        """Cache eviction hook: release the evicted bag's partitions.

        ``Bag.uncache`` drops the materialized partitions together with
        the shuffle layout they were built with, so a later plan
        rebuilds both from lineage.
        """
        if entry.kind == KIND_BAG:
            entry.value.uncache()

    @property
    def cache(self):
        return self._cache

    @property
    def queue(self):
        return self._queue

    # -- reporting -----------------------------------------------------

    def schedule(self):
        """Recent ``(tenant, label)`` dequeues, oldest first.

        With ``num_slots=1`` this is exactly the execution order the
        DRR policy chose (bounded to the last ``SCHEDULE_WINDOW``).
        """
        with self._lock:
            return list(self._schedule)

    def tenant_stats(self, tenant):
        with self._lock:
            return self._stats[tenant]

    def stats(self):
        """JSON-ready service snapshot: tenants, cache, queue, uptime."""
        elapsed = (
            time.monotonic() - self._started_at
            if self._started_at is not None else 0.0
        )
        with self._lock:
            tenants = {}
            for name, stats in self._stats.items():
                entry = stats.to_dict()
                entry["throughput_jobs_per_s"] = stats.throughput(
                    elapsed
                )
                entry["pending"] = self._queue.pending(name)
                tenants[name] = entry
            return {
                "uptime_seconds": elapsed,
                "inflight": self._inflight,
                "queue_depth": self._queue.depth,
                "tenants": tenants,
                "cache": self._cache.stats(),
                "schedule_seed": self._queue.seed,
                "cycle": self._queue.cycle_order(),
            }

    def tenant_report(self, tenant, label=None):
        """A :class:`~repro.observe.report.RunReport` for one tenant.

        Folds the report entries kept of the tenant's last
        ``REPORT_WINDOW`` engine jobs, each built (its stages costed)
        once, when its job ended: a long-lived service retains a few
        scalars per stage, and a report runs no cost model.  Per-task
        traces live only in ``JobHandle.accounting.jobs``, for as long
        as a client keeps the handle.  The report shares the service's
        job entries: read, don't write.
        """
        with self._lock:
            jobs = list(self._recent_jobs[tenant])
            stats = self._stats[tenant].to_dict()
        report = RunReport(
            "serve:%s" % tenant,
            meta={"tenant": tenant, "stats": stats},
        )
        report.add(
            entry_from_job_entries(
                jobs, self.ctx.config.backend, system="serve",
                x=label if label is not None else tenant,
            )
        )
        return report

    def write_reports(self):
        """Write one RunReport JSON per tenant under ``report_dir``."""
        if not self.report_dir:
            raise ValueError("service has no report_dir")
        os.makedirs(self.report_dir, exist_ok=True)
        paths = []
        for tenant in sorted(self._stats):
            path = os.path.join(
                self.report_dir, "%s-report.json" % tenant
            )
            self.tenant_report(tenant).save(path)
            paths.append(path)
        return paths


class _JsonlJobLog:
    """Append-only JSONL job log (one file per tenant)."""

    __slots__ = ("path", "_file", "_lock")

    def __init__(self, path):
        self.path = path
        self._file = open(path, "a")
        self._lock = threading.Lock()

    def write(self, record):
        with self._lock:
            json.dump(record, self._file, separators=(",", ":"))
            self._file.write("\n")
            self._file.flush()

    def close(self):
        with self._lock:
            if not self._file.closed:
                self._file.close()
