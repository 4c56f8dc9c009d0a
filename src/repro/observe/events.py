"""The trace event schema: what one observed fact looks like.

A :class:`TraceEvent` is either a *span* (it has a duration: a job, a
stage dispatch, a task attempt, a serde pass) or an *instant* (duration
``None``: a shuffle completing, a retry, a straggler flag, a fault).
Events carry no references into the engine -- only strings, numbers and
a flat ``args`` dict -- so every sink can persist them and every
exporter can render them without importing engine internals.

Granularity contract: events are emitted **per task, per stage, per
job** -- never per record.  The hot per-record loops of the engine are
invisible to this module by design; tracing overhead is bounded by the
task count, not the data size.

Timestamps are wall-clock epoch seconds (``time.time()``): the one
clock the driver and its worker processes share on a machine, which is
what lets worker-side events be re-anchored onto the driver timeline
(see :mod:`repro.engine.runtime.task`).
"""

#: Every event kind the engine emits, driver side and worker side.
#: Exporters key colors/lanes off these; the JSON-lines sink round-trips
#: them verbatim.
KIND_DRIVER = "driver"          # one action call on the driver
KIND_JOB = "job"                # one scheduled job (collect/count/...)
KIND_STAGE = "stage"            # one dispatched stage (task set + retries)
KIND_TASK_SET = "task_set"      # one wave of attempts sent to the backend
KIND_TASK = "task"              # one task attempt (worker- or driver-run)
KIND_SHUFFLE = "shuffle"        # a completed hash shuffle (instant)
KIND_BROADCAST = "broadcast"    # a broadcast payload shipped (instant)
KIND_SERDE = "serde"            # closure/outcome (de)serialization span
KIND_TASK_RETRY = "task_retry"  # scheduler re-launched a failed attempt
KIND_FAULT = "fault"            # a task attempt failed (instant)
KIND_STRAGGLER = "straggler"    # a task ran far beyond its set's median
#: A retry touched a task whose UDFs the effect analysis refuted as
#: deterministic -- the repeated run may legitimately observe a
#: different result.
KIND_NONDETERMINISTIC_RETRY = "nondeterministic_retry"
#: One fused chain compiled to a specialized loop function (span
#: covering source generation + ``compile``; emitted once per distinct
#: chain fingerprint per process, never per task or per record).
KIND_CODEGEN = "codegen"

ALL_KINDS = (
    KIND_DRIVER,
    KIND_JOB,
    KIND_STAGE,
    KIND_TASK_SET,
    KIND_TASK,
    KIND_SHUFFLE,
    KIND_BROADCAST,
    KIND_SERDE,
    KIND_TASK_RETRY,
    KIND_FAULT,
    KIND_STRAGGLER,
    KIND_NONDETERMINISTIC_RETRY,
    KIND_CODEGEN,
)

#: Kinds that form the span hierarchy (everything else is an instant or
#: an auxiliary span).  Parity tests compare the shape of this subset.
SPAN_KINDS = (KIND_DRIVER, KIND_JOB, KIND_STAGE, KIND_TASK_SET, KIND_TASK)

#: The lane driver-side events live on.
DRIVER_LANE = "driver"


def worker_lane(pid):
    """Lane name for events that ran in worker process ``pid``."""
    return "worker-%d" % pid


def gather_lane(slot):
    """Lane for the driver-side events of jobs submitted from
    ``ctx.gather`` slot ``slot``.

    Concurrently submitted jobs each get their own driver-side lane so
    their driver > job > stage > task-set span nesting stays
    well-formed per lane instead of interleaving on
    :data:`DRIVER_LANE`.
    """
    return "driver-%s" % slot


class TraceEvent:
    """One observed fact: a span (``dur`` set) or an instant (``dur=None``).

    Attributes:
        name: Human-readable identity, e.g. ``"stage#2:ReduceByKey"``.
        kind: One of :data:`ALL_KINDS`.
        ts: Start time, epoch seconds.
        dur: Duration in seconds, or ``None`` for instants.
        lane: Where it happened: :data:`DRIVER_LANE` or ``worker-<pid>``.
        args: Flat JSON-serializable payload (record counts, partition
            indices, error types, ...).
    """

    __slots__ = ("name", "kind", "ts", "dur", "lane", "args")

    def __init__(self, name, kind, ts, dur=None, lane=DRIVER_LANE,
                 args=None):
        self.name = name
        self.kind = kind
        self.ts = ts
        self.dur = dur
        self.lane = lane
        self.args = args if args is not None else {}

    @property
    def is_span(self):
        return self.dur is not None

    @property
    def end(self):
        return self.ts if self.dur is None else self.ts + self.dur

    def to_dict(self):
        """The event as a flat JSON-serializable dict."""
        record = {
            "name": self.name,
            "kind": self.kind,
            "ts": self.ts,
            "lane": self.lane,
        }
        if self.dur is not None:
            record["dur"] = self.dur
        if self.args:
            record["args"] = self.args
        return record

    @classmethod
    def from_dict(cls, record):
        return cls(
            name=record["name"],
            kind=record["kind"],
            ts=record["ts"],
            dur=record.get("dur"),
            lane=record.get("lane", DRIVER_LANE),
            args=record.get("args") or {},
        )

    def __eq__(self, other):
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return (
            self.name == other.name
            and self.kind == other.kind
            and self.ts == other.ts
            and self.dur == other.dur
            and self.lane == other.lane
            and self.args == other.args
        )

    def __repr__(self):
        shape = (
            "dur=%.6f" % self.dur if self.dur is not None else "instant"
        )
        return "TraceEvent(%r, %s, ts=%.6f, %s, lane=%s)" % (
            self.name, self.kind, self.ts, shape, self.lane,
        )
