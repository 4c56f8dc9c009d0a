"""Execution backends: where a dispatched task set actually runs.

Two backends implement the same contract
(``run_invocations(invocations) -> outcomes``, ``close()``):

* :class:`SerialBackend` runs tasks inline on the calling thread --
  today's behavior, zero overhead, and the default.
* :class:`ProcessPoolBackend` serializes the invocations (closure +
  input partitions) with :mod:`repro.engine.runtime.serde`, a few
  chunks per worker, runs them on a pool of worker processes, and
  deserializes the outcomes.  Worker pools are shared per worker-count
  across all contexts in the process (tasks are self-contained, so a
  warm pool can serve any context) and torn down at interpreter exit.

Both backends are safe to drive from several threads at once (the
pool's executor queues concurrent submissions), which is how the jobs
of a ``ctx.gather`` interleave their stages over one pool.

Both backends report failures as :class:`TaskOutcome` data rather than
raising, so the scheduler's retry policy is backend-independent.  That
includes a worker process that dies (a UDF calling ``os._exit``, a
segfault, the kernel's OOM killer): it breaks the shared pool, every
invocation in flight on it comes back failed with the retryable
:class:`~repro.errors.WorkerLostError`, and the next dispatch starts a
fresh pool -- so the scheduler's attempt budget decides, never a hang.
"""

import atexit
import multiprocessing
import os
import threading
import time

from ...errors import SerializationError, WorkerLostError
from ...observe import NULL_TRACER
from ...observe.events import KIND_SERDE
from . import serde
from .task import TaskOutcome, execute_invocation

#: Payloads a task set is shipped in, per pool worker.  One payload
#: carries a run of consecutive invocations -- batches of tasks, see
#: :mod:`repro.engine.runtime.task` -- so the task closure they share is
#: pickled once per payload and one round-trip serves many tiny
#: batches; several payloads per worker keep the workers evenly loaded
#: when batch times are skewed.  A set of at most this many batches per
#: worker still ships one batch per payload.
CHUNKS_PER_WORKER = 4


class SerialBackend:
    """Run every task inline on the calling thread."""

    name = "serial"
    #: Set by the scheduler when its context traces; serial execution
    #: emits nothing itself (the scheduler anchors task spans from the
    #: outcomes), so this exists for interface symmetry.
    tracer = NULL_TRACER

    def batch_budget(self, budget, sizes):
        """The records at which a set's batches close: the task's own
        budget."""
        return budget

    def run_invocations(self, invocations):
        return [execute_invocation(invocation) for invocation in invocations]

    def close(self):
        pass


class ProcessPoolBackend:
    """Run tasks on a pool of worker processes.

    Args:
        num_workers: Pool size; ``0`` means one worker per CPU.
    """

    name = "process"
    #: Set by the scheduler when its context traces; serde spans around
    #: the dispatch are emitted through it.
    tracer = NULL_TRACER

    def __init__(self, num_workers=0):
        if num_workers < 0:
            raise ValueError("num_workers must be >= 0")
        self.num_workers = num_workers or (os.cpu_count() or 1)

    def batch_budget(self, budget, sizes):
        """The task's ``budget``, lowered so that a set whose inputs hold
        ``sizes`` records makes about :data:`CHUNKS_PER_WORKER` batches
        per worker.  A batch is one invocation, so it runs on one
        worker: a set of a few heavy records -- one K-means group each,
        say -- must still spread over the pool as it did when each
        partition was an invocation of its own."""
        return min(
            budget, sum(sizes) // (CHUNKS_PER_WORKER * self.num_workers)
        )

    def run_invocations(self, invocations):
        """Serialize the set, run it on the shared pool, and
        deserialize the outcomes; both serde passes are driver-side
        work and emit a ``serde`` instant each when tracing."""
        tracer = self.tracer
        serde_start = time.perf_counter()
        size = max(
            1, -(-len(invocations) // (CHUNKS_PER_WORKER * self.num_workers))
        )
        chunks = [
            invocations[start:start + size]
            for start in range(0, len(invocations), size)
        ]
        payloads = [_dump_chunk(chunk) for chunk in chunks]
        if tracer.enabled:
            tracer.instant(
                "serde:dump-tasks", KIND_SERDE,
                tasks=len(invocations),
                payloads=len(payloads),
                seconds=time.perf_counter() - serde_start,
                bytes=sum(len(p) for p in payloads),
            )
        outcome_payloads = _run_payloads(self.num_workers, payloads)
        serde_start = time.perf_counter()
        outcomes = []
        for chunk, payload in zip(chunks, outcome_payloads):
            if payload is None:
                outcomes.extend(map(_lost, chunk))
            else:
                outcomes.extend(serde.loads(payload))
        if tracer.enabled:
            tracer.instant(
                "serde:load-outcomes", KIND_SERDE,
                tasks=len(outcomes),
                seconds=time.perf_counter() - serde_start,
                bytes=sum(len(p) for p in outcome_payloads if p),
            )
        return outcomes

    def close(self):
        # Pools are shared across contexts; they are reclaimed at
        # interpreter exit (see shutdown_pools), not per backend.
        pass


def make_backend(config):
    """Build the backend named by ``config.backend``."""
    if config.backend == "serial":
        return SerialBackend()
    if config.backend == "process":
        return ProcessPoolBackend(config.num_workers)
    raise ValueError(
        "unknown backend %r (expected 'serial' or 'process')"
        % (config.backend,)
    )


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def _dump_chunk(chunk):
    """Serialize a run of invocations as one payload.

    One dump memoizes what the invocations share, so the task closure
    is pickled once.  When the dump fails, each invocation is dumped on
    its own, so that the error names the operator of the one that
    cannot be shipped.
    """
    try:
        return serde.dumps(chunk)
    except Exception:
        for invocation in chunk:
            serde.ensure_serializable(
                invocation,
                invocation.operator,
                what="task (closure + input partition)",
            )
        raise


def _worker_run(payload):
    """Pool entry point: bytes in, bytes out.

    A chunk of invocations arrives pre-serialized (so closures survive
    the trip on spawn-based platforms too) and each is run in turn,
    failures included: outcomes stay per invocation.  The outcomes go
    back as one payload, with a structured fallback for a task that
    *returns* something unserializable.
    """
    load_start = time.perf_counter()
    invocations = serde.loads(payload)
    load_seconds = time.perf_counter() - load_start
    outcomes = [execute_invocation(inv) for inv in invocations]
    traced = next((o for o in outcomes if o.events is not None), None)
    if traced is not None:
        # The chunk was deserialized before its first task body
        # started: carry that back as a worker-side serde span anchored
        # just before the first traced attempt (negative offset on the
        # task timeline).
        traced.events.insert(
            0,
            (
                "serde:load-task", KIND_SERDE,
                -load_seconds, load_seconds,
                {"task": traced.indices[0], "tasks": len(invocations)},
            ),
        )
    try:
        return serde.dumps(outcomes)
    except Exception:
        return serde.dumps([
            _shippable(invocation, outcome)
            for invocation, outcome in zip(invocations, outcomes)
        ])


def _lost(invocation):
    """The failed outcome of an invocation a dead worker took with it."""
    return TaskOutcome(
        indices=invocation.indices,
        ok=False,
        error=WorkerLostError(
            "a worker process died while tasks %d-%d (attempt %d) of "
            "operator %r were in flight on its pool"
            % (invocation.indices[0], invocation.indices[-1],
               invocation.attempt, invocation.operator)
        ),
        attempt=invocation.attempt,
    )


def _shippable(invocation, outcome):
    """``outcome``, or a failed one in its place if it cannot be sent."""
    try:
        serde.dumps(outcome)
        return outcome
    except Exception as exc:
        return TaskOutcome(
            indices=outcome.indices,
            ok=False,
            error=SerializationError(
                "result of operator %r cannot be serialized back to "
                "the driver: %s: %s"
                % (invocation.operator, type(exc).__name__, exc)
            ),
            seconds=outcome.seconds,
            worker_pid=outcome.worker_pid,
            attempt=outcome.attempt,
            start_epoch=outcome.start_epoch,
            events=outcome.events,
        )


# ----------------------------------------------------------------------
# Shared pool management
# ----------------------------------------------------------------------

_POOLS = {}
# Guards _POOLS: concurrently gathered jobs create and replace pools.
_POOLS_LOCK = threading.Lock()


def _shared_pool(num_workers):
    with _POOLS_LOCK:
        pool = _POOLS.get(num_workers)
        if pool is None:
            # Imported here: only the process backend pays for it.
            from concurrent.futures import ProcessPoolExecutor

            # Prefer fork: workers inherit imported modules, so the
            # first dispatch does not pay an interpreter start per
            # worker.
            methods = multiprocessing.get_all_start_methods()
            method = "fork" if "fork" in methods else methods[0]
            pool = ProcessPoolExecutor(
                num_workers, mp_context=multiprocessing.get_context(method)
            )
            _POOLS[num_workers] = pool
        return pool


def _run_payloads(num_workers, payloads):
    """Run every payload on the shared pool: its outcome payload, or
    ``None`` where the pool broke before returning it.

    A worker that dies breaks the whole pool and fails every payload
    still in flight on it, whichever worker held it; the broken pool is
    dropped here so the next dispatch starts a fresh one.
    """
    from concurrent.futures.process import BrokenProcessPool

    pool = _shared_pool(num_workers)
    results = []
    try:
        futures = [pool.submit(_worker_run, payload) for payload in payloads]
    except BrokenProcessPool:  # broken by a concurrent job's dispatch
        futures = []
    for future in futures:
        try:
            results.append(future.result())
        except BrokenProcessPool:
            results.append(None)
    results += [None] * (len(payloads) - len(futures))
    if None in results:
        _drop_pool(num_workers, pool)
    return results


def _drop_pool(num_workers, pool):
    """Forget a broken pool and release it, unless a concurrent job
    already has: ``shutdown`` closes the pool's pipes, and closing them
    twice can close a descriptor a fresh pool has since been given."""
    with _POOLS_LOCK:
        if _POOLS.get(num_workers) is not pool:
            return
        del _POOLS[num_workers]
    pool.shutdown(wait=True)


def shutdown_pools():
    """Shut down every shared worker pool (idempotent)."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True, cancel_futures=True)


atexit.register(shutdown_pools)
