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

Both backends are safe to drive from several threads at once
(``multiprocessing.Pool`` queues concurrent submissions), which is how
the jobs of a ``ctx.gather`` interleave their stages over one pool.

Both backends report failures as :class:`TaskOutcome` data rather than
raising, so the scheduler's retry policy is backend-independent.
"""

import atexit
import multiprocessing
import os
import time

from ...errors import SerializationError
from ...observe import NULL_TRACER
from ...observe.events import KIND_SERDE
from . import serde
from .task import TaskOutcome, execute_invocation

#: Payloads a task set is shipped in, per pool worker.  One payload
#: carries a run of consecutive invocations, so the task closure they
#: share is pickled once per payload and one round-trip serves many
#: tiny tasks; several payloads per worker keep the workers evenly
#: loaded when task times are skewed.  A set of at most this many tasks
#: per worker still ships one task per payload.
CHUNKS_PER_WORKER = 4


class SerialBackend:
    """Run every task inline on the calling thread."""

    name = "serial"
    #: Set by the scheduler when its context traces; serial execution
    #: emits nothing itself (the scheduler anchors task spans from the
    #: outcomes), so this exists for interface symmetry.
    tracer = NULL_TRACER

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

    def run_invocations(self, invocations):
        """Serialize the set, run it on the shared pool, and
        deserialize the outcomes; both serde passes are driver-side
        work and emit a ``serde`` instant each when tracing."""
        tracer = self.tracer
        serde_start = time.perf_counter()
        size = max(
            1, -(-len(invocations) // (CHUNKS_PER_WORKER * self.num_workers))
        )
        payloads = [
            _dump_chunk(invocations[start:start + size])
            for start in range(0, len(invocations), size)
        ]
        if tracer.enabled:
            tracer.instant(
                "serde:dump-tasks", KIND_SERDE,
                tasks=len(invocations),
                payloads=len(payloads),
                seconds=time.perf_counter() - serde_start,
                bytes=sum(len(p) for p in payloads),
            )
        pool = _shared_pool(self.num_workers)
        outcome_payloads = pool.map(_worker_run, payloads, chunksize=1)
        serde_start = time.perf_counter()
        outcomes = [
            outcome
            for payload in outcome_payloads
            for outcome in serde.loads(payload)
        ]
        if tracer.enabled:
            tracer.instant(
                "serde:load-outcomes", KIND_SERDE,
                tasks=len(outcomes),
                seconds=time.perf_counter() - serde_start,
                bytes=sum(len(p) for p in outcome_payloads),
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
                {"task": traced.task_index, "tasks": len(invocations)},
            ),
        )
    try:
        return serde.dumps(outcomes)
    except Exception:
        return serde.dumps([
            _shippable(invocation, outcome)
            for invocation, outcome in zip(invocations, outcomes)
        ])


def _shippable(invocation, outcome):
    """``outcome``, or a failed one in its place if it cannot be sent."""
    try:
        serde.dumps(outcome)
        return outcome
    except Exception as exc:
        return TaskOutcome(
            task_index=outcome.task_index,
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


def _shared_pool(num_workers):
    pool = _POOLS.get(num_workers)
    if pool is None:
        # Prefer fork: workers inherit imported modules, so the first
        # dispatch does not pay an interpreter start per worker.
        methods = multiprocessing.get_all_start_methods()
        method = "fork" if "fork" in methods else methods[0]
        context = multiprocessing.get_context(method)
        pool = context.Pool(processes=num_workers)
        _POOLS[num_workers] = pool
    return pool


def shutdown_pools():
    """Terminate every shared worker pool (idempotent)."""
    while _POOLS:
        _, pool = _POOLS.popitem()
        pool.terminate()
        pool.join()


atexit.register(shutdown_pools)
