"""Task payloads: the self-contained unit of work a backend executes.

A *task* is a stage's work on one partition, packaged so it can run
anywhere: in the driver process (:class:`SerialBackend`) or in a forked
worker (:class:`ProcessPoolBackend`).  Tasks therefore hold only
picklable state -- UDFs, operator names, scalar config values -- never
plan nodes, contexts, or metrics objects.  All metrics accounting stays
on the driver: a task returns its outputs (plus the per-operator record
counts the cost model needs), and the executor credits the trace.

Logical partitions, physical batches: the partition stays the unit the
trace, the cost model, the fault injector and the retry policy see, but
it is not the unit of execution.  Every task class's body is
``run(parts)``: it takes a *batch* -- the inputs of a run of
consecutive live partitions, which the scheduler closes once they hold
the class's ``budget`` of records, :data:`VECTOR` unless records do
not measure its cost -- and returns one value per partition, in order,
each what that partition alone would have produced.  Calling a task,
``task(*args)``, is a batch of one.  A flattened program at
laptop scale holds one or two records per partition, so a call per
partition, not per-record work, is what the body used to cost.

:mod:`repro.engine.executor` decides *what* runs where, these classes
decide *how* a batch is processed.  The bodies work a vector at a time
wherever the operator allows it: a fused chain maps each UDF over up to
:data:`VECTOR` records in C before the next operator sees them, and a
vector spans the batch's partitions (see :class:`FusedPipelineTask` for
what a UDF can notice), and the keyed bodies run no Python frame of the
engine's per record -- checks are inline, UDF errors are caught where
the UDF is called.  :func:`call_udf` is for the bodies that call their
UDF once per partition.  What one input is -- the partition, or a tuple
of a cogroup's two buckets or of a ``map_partitions`` partition and its
index -- is the class's; ``size(input)`` says how many records it holds,
``0`` for an empty one.

Empty inputs: a flattened program at laptop scale leaves most of its
paper-default 1200 partitions empty, so every task class whose result
on all-empty inputs is fixed states it once, as ``empty_result()``, and
the scheduler fills those partitions in without dispatching anything
(see :meth:`~repro.engine.runtime.scheduler.TaskScheduler.run_stage`).
``empty_result()`` must equal what a call returns when every argument
is empty.  It is asked once per task set; the value is shared
by all of the set's undispatched tasks and by whatever partitions are
built from it, and is never mutated -- a partition, once produced, is a
read-only value: the executor and every task body here only ever build
*new* lists from the partitions they are given.
:class:`MapPartitionsTask` declares none: its UDF receives the
partition *index* and may emit from an empty partition, so it has to
run everywhere.  That UDF is also the one consumer that may mutate its
input, which is why the executor hands it a list of its own for an
empty partition instead of the shared one.
"""

import os
import threading
import time
import traceback
from bisect import bisect_right
from itertools import chain, compress, islice, product, repeat, tee
from operator import itemgetter

from ...errors import (
    InjectedFault,
    PlanError,
    SimulatedOutOfMemory,
    UdfError,
)
from ...udf import resolve
from ..work import Weighted, unwrap, unwrap_all

#: Pipeline step tags for fused elementwise chains.
STEP_MAP = 0
STEP_FILTER = 1
STEP_FLATMAP = 2

#: Records a fused chain pushes through one operator at a time, and the
#: records at which the scheduler closes a batch.  Sized so that a
#: step's input and output vectors of boxed records (about 110 bytes
#: each) stay in a 48 KB L1d and a vector's intermediates die before the
#: collector's 700-allocation threshold ever sees them.  Swept on
#: ``benchmarks/wall``'s ``chain_default`` (4096-record partitions): 64
#: to 1024 run within 2 % of each other and a whole partition per vector
#: a fifth slower, but from 512 up the op's time follows the host's
#: cache state and runs spread twice as widely.  As a batch budget it
#: was swept on ``nested_serial`` (tables in ``docs/architecture.md``,
#: "Flag decisions").
VECTOR = 128

_FIRST = itemgetter(0)
_SECOND = itemgetter(1)


def call_udf(operator, fn, *args):
    """Invoke a UDF, wrapping user errors with the operator's name."""
    try:
        return fn(*args)
    except (SimulatedOutOfMemory, UdfError):
        raise
    except Exception as exc:
        raise UdfError(operator, exc) from exc


def fold_pairs(acc, records, fn, operator, unchecked=True):
    """Fold ``(key, value)`` records into ``acc``, one entry per key,
    with the reducer ``fn`` of the ``reduce_by_key`` named ``operator``;
    returns the :class:`~repro.engine.work.Weighted` work the
    reductions declared.

    The one keyed fold: both sides of a ``reduce_by_key``'s shuffle run
    it, and so does a chain's task whose tail is the map-side combine.
    ``unchecked`` records are checked to be pairs here (tuple
    subclasses pass); a reducer's error is a :class:`UdfError` naming
    ``operator``, an unhashable key a :class:`PlanError`.
    """
    work = 0
    key = None
    try:
        for record in records:
            if unchecked and (
                record.__class__ is not tuple or len(record) != 2
            ):
                require_keyed(record)  # tuple subclasses still pass
            key, value = record
            if key in acc:
                try:
                    result = fn(acc[key], value)
                except (SimulatedOutOfMemory, UdfError):
                    raise
                except Exception as exc:
                    raise UdfError(operator, exc) from exc
                if result.__class__ is Weighted:
                    work += result.work
                    result = result.value
                acc[key] = result
            else:
                acc[key] = value
    except TypeError:
        # The reducer's own are UdfErrors by now: this one is the dict's.
        require_hashable(key)
        raise
    return work


class BatchTask:
    """Base of the engine's task classes: a call is a batch of one.

    A subclass implements ``run(parts)`` -- one value per input, in
    order (see the module docstring) -- and, where one input is not one
    partition, ``size``.
    """

    __slots__ = ()

    #: The records one input holds; ``0`` marks an empty input.
    size = len
    #: The records at which the scheduler closes a batch of this class's
    #: inputs; ``0`` makes each input a batch of its own.
    budget = VECTOR

    def __call__(self, *args):
        return self.run([args if len(args) > 1 else args[0]])[0]


class FusedPipelineTask(BatchTask):
    """Push a batch of partitions through a fused map/filter/flat_map
    chain.

    ``steps`` is the chain bottom-up: ``(kind, fn, operator)`` triples.
    Per partition the value is ``(records, counts, works)`` where
    ``counts[i]`` is the number of records operator ``i`` processed and
    ``works[i]`` the extra :class:`~repro.engine.work.Weighted` work it
    reported.

    With a ``fold=(fn, operator)`` tail -- the chain feeds a
    ``reduce_by_key`` -- the task is the map-side combine too: each
    output vector is folded into its partition's dict
    (:func:`fold_pairs`) instead of being appended, and the value is
    ``(list(acc.items()), counts, works, fold_work)``: the records, in
    the order, that a :class:`CombineTask` over the chain's output would
    return.  The fold is the chain's last step under the rule below:
    within a vector an earlier step's error wins over the fold's.

    The unit is a vector of up to :data:`VECTOR` records, not a record
    and not a partition: the batch's records are laid end to end, each
    tagged with its partition's position in the batch, and each step
    maps its UDF over a whole vector in C (one ``try`` per vector and
    step, no Python frame of the engine's per record) before the next
    step sees any of it.  A filter compresses the tags with the records
    and a flat_map repeats each record's tag over its expansion; the
    per-step counts, ``Weighted`` work and folds are credited to the
    partition that owns the records.  Records, their order and the
    per-step counts and works are those of record-at-a-time evaluation
    of each partition alone.  What a UDF can observe is the call order:
    within a vector every record passes step *i*, in order, before any
    passes step *i + 1*, so when two records of one vector fail at
    different steps the earlier step's error is the one raised -- also
    when the earlier step's record belongs to a later partition of the
    batch.  A flat_map's expansions are consumed in vectors of their own
    before its next input vector is pulled, which keeps the output in
    depth-first order and holds one vector per in-flight level.
    """

    __slots__ = ("steps", "fold")

    def __init__(self, steps, fold=None):
        self.steps = list(steps)
        self.fold = fold

    @property
    def operator(self):
        names = [step[2] for step in self.steps]
        if self.fold is not None:
            names.append(self.fold[1])
        return "+".join(names)

    @property
    def udfs(self):
        return _chain_udfs(self.steps, self.fold)

    def empty_result(self):
        zeros = [0] * len(self.steps)
        if self.fold is None:
            return [], zeros, zeros
        return [], zeros, zeros, 0

    def run(self, parts):
        steps = self.steps
        fold = self.fold
        num = len(steps)
        counts = [[0] * num for _ in parts]
        works = None  # one list per partition once a Weighted shows
        if fold is None:
            outs = [[] for _ in parts]
        else:
            accs = [{} for _ in parts]
            fold_works = [0] * len(parts)
        # An explicit iterator stack (one level per in-flight flat_map
        # expansion) keeps evaluation depth independent of chain length
        # and memory bounded by one vector per level.  A level's
        # ``owner`` is the batch position of the partition all of its
        # records belong to or, where the level spans partitions, an
        # iterator of positions in step with its records.  A vector's
        # ``owner`` is likewise one position, or one per record, never
        # descending, whose runs are ``runs``.
        if len(parts) == 1:
            stack = [(0, iter(parts[0]), 0)]
        else:
            stack = [(0, chain.from_iterable(parts), chain.from_iterable(
                map(repeat, range(len(parts)), map(len, parts))
            ))]
        while stack:
            i, iterator, owner = stack[-1]
            items = list(islice(iterator, VECTOR))
            if len(items) < VECTOR:
                # A short vector is the level's last.
                stack.pop()
                if not items:
                    continue
            runs = None
            if owner.__class__ is not int:
                owner = list(islice(owner, len(items)))
                if owner[0] == owner[-1]:
                    owner = owner[0]
                else:
                    runs = _runs(owner)
            while i < num:
                kind, fn, operator = steps[i]
                if runs is None:
                    counts[owner][i] += len(items)
                else:
                    for position, start, stop in runs:
                        counts[position][i] += stop - start
                try:
                    produced = list(map(fn, items))
                except (SimulatedOutOfMemory, UdfError):
                    raise
                except Exception as exc:
                    raise UdfError(operator, exc) from exc
                if Weighted in map(type, produced):
                    if works is None:
                        works = [[0] * num for _ in parts]
                    if runs is not None:
                        for position, start, stop in runs:
                            works[position][i] += unwrap_all(
                                produced[start:stop]
                            )[1]
                    produced, work = unwrap_all(produced)
                    if runs is None:
                        works[owner][i] += work
                i += 1
                if kind == STEP_MAP:
                    items = produced
                elif kind == STEP_FILTER:
                    items = list(compress(items, produced))
                    if not items:
                        break
                    if runs is not None:
                        owner = list(compress(owner, produced))
                        if owner[0] == owner[-1]:
                            owner = owner[0]
                            runs = None
                        else:
                            runs = _runs(owner)
                elif runs is None:
                    stack.append((i, chain.from_iterable(produced), owner))
                    break
                else:
                    # Each expanded record keeps its source's tag.
                    tagged, tags = tee(chain.from_iterable(
                        map(zip, map(repeat, owner), produced)
                    ))
                    stack.append(
                        (i, map(_SECOND, tagged), map(_FIRST, tags))
                    )
                    break
            else:
                for position, start, stop in runs or (
                    (owner, 0, len(items)),
                ):
                    if fold is None:
                        outs[position] += items[start:stop]
                    else:
                        fold_works[position] += fold_pairs(
                            accs[position], items[start:stop], *fold
                        )
        if works is None:
            works = repeat([0] * num)  # values are read-only: one serves
        if fold is None:
            return list(zip(outs, counts, works))
        return list(zip(
            [list(acc.items()) for acc in accs], counts, works, fold_works
        ))


def _runs(owners):
    """``(position, start, stop)`` per run of one tag in ``owners``."""
    runs = []
    start = 0
    while start < len(owners):
        position = owners[start]
        stop = bisect_right(owners, position, start)
        runs.append((position, start, stop))
        start = stop
    return runs


def _chain_udfs(steps, fold):
    udfs = tuple(step[1] for step in steps)
    return udfs if fold is None else udfs + (fold[0],)


class CompiledPipelineTask(BatchTask):
    """A fused chain specialized into one generated loop function.

    Built by :mod:`repro.engine.codegen` for chains whose UDFs are
    proven pure and Weighted-free; observationally identical to
    :class:`FusedPipelineTask` (same records, same per-operator
    counts, ``works`` all zero -- which the compile gate guarantees the
    interpreter would also report).  The generated function loops over
    the batch's partitions itself, so a batch is one Python call.

    Carries only picklable state: the steps (for operator names, UDFs,
    and the interpreter a failing batch is re-run through, so both
    bodies raise the same :class:`~repro.errors.UdfError`), the
    generated source text, and the chain's cache key.  The code object
    itself is compiled lazily -- at most once per key per process -- so
    the task ships across the process-pool boundary as cheaply as the
    interpreted one.  What the loop's lowered UDF bodies read by name is
    bound then too, in whichever process runs the task, from each
    step's own function (:func:`repro.udf.resolve`): values are never
    part of the text, so one compiled function serves every chain of
    its key, and a name that no longer resolves fails like any other
    UDF error -- through the interpreter.  A generated text that does
    not compile is a bug of the generator's and is raised as one.

    With a ``fold=(fn, operator)`` tail the task returns what
    :class:`FusedPipelineTask` returns with one.  Where the reducer
    passed the compile gate the loop itself ends in the dict fold (the
    text says so, ``_FOLD``) and hands back the combined records;
    otherwise the loop's output is folded here by :func:`fold_pairs`,
    in the same task, after the loop -- so a re-run never repeats a
    reduction.
    """

    __slots__ = ("steps", "source", "key", "fold", "udfs", "_fn", "_env",
                 "_folds")

    def __init__(self, steps, source, key, fold=None):
        self.steps = list(steps)
        self.source = source
        self.key = key
        self.fold = fold
        # Derived per process, never pickled (see ``__reduce__``).
        self.udfs = _chain_udfs(self.steps, fold)
        self._fn = None
        self._env = None
        self._folds = False

    operator = FusedPipelineTask.operator

    def __reduce__(self):
        return (
            CompiledPipelineTask,
            (self.steps, self.source, self.key, self.fold),
        )

    empty_result = FusedPipelineTask.empty_result

    def _bind(self):
        from ...engine.codegen import compiled_pipeline

        compiled = compiled_pipeline(self.key, self.source)
        self._env = tuple(
            resolve(self.udfs[index], name) for index, name in compiled.env
        )
        self._folds = compiled.fold is not None
        self._fn = compiled.fn
        return compiled.fn

    def _interpret(self, parts):
        return FusedPipelineTask(self.steps, self.fold).run(parts)

    def run(self, parts):
        fn = self._fn
        if fn is None:
            try:
                fn = self._bind()
            except NameError:
                # A lowered body's name no longer resolves: the call
                # would raise it per record, so let the interpreter.
                return self._interpret(parts)
        try:
            results = fn(parts, self.udfs, self._env)
        except (SimulatedOutOfMemory, UdfError):
            raise
        except Exception:
            # The specialized loop cannot say which step failed, and it
            # takes a record through the whole chain where the
            # interpreter takes a vector through a step.  The gate
            # proved the UDFs pure (a reducer folded inside the loop
            # included), so running the batch again is unobservable:
            # the interpreter raises, with its step and its
            # first-failing-step rule.
            return self._interpret(parts)
        # Values are read-only: one list of zero works serves the batch.
        works = [0] * len(self.steps)
        if self.fold is None:
            return [(out, counts, works) for out, counts in results]
        if self._folds:
            return [(out, counts, works, 0) for out, counts in results]
        values = []
        for out, counts in results:
            acc = {}
            work = fold_pairs(acc, out, *self.fold)
            values.append((list(acc.items()), counts, works, work))
        return values


class MapPartitionsTask(BatchTask):
    """Apply ``fn(items, partition_index)`` to whole partitions.

    An input is ``(partition, index)``.  The value is ``(records,
    work)``: a UDF that processes the partition record-at-a-time
    internally may wrap its result in
    :class:`~repro.engine.work.Weighted`, and the declared work is
    credited to the stage exactly as the fused elementwise steps
    credit theirs.
    """

    __slots__ = ("fn", "operator")

    def __init__(self, fn, operator):
        self.fn = fn
        self.operator = operator

    @property
    def udfs(self):
        return (self.fn,)

    @staticmethod
    def size(args):
        return len(args[0])

    #: The UDF is one opaque call per partition: its records say nothing
    #: of its cost and there is no per-record call to save, so each
    #: partition is a batch of its own -- timed alone, and spread over
    #: the process backend's workers one partition at a time.
    budget = 0

    def run(self, parts):
        values = []
        for part, index in parts:
            work = [0]
            result = unwrap(
                call_udf(self.operator, self.fn, part, index), work
            )
            values.append((list(result), work[0]))
        return values


class CombineTask(BatchTask):
    """Per-partition combine for ``reduce_by_key`` (map or reduce side).

    Folds ``(key, value)`` records into one record per key with the
    user's reduce function; used on both sides of the shuffle.  The
    value is ``(records, work)``: each reduction's result is unwrapped
    like every other UDF result, so a ``Weighted``-returning reducer
    credits its declared work instead of leaking wrapper objects into
    the shuffle.

    ``keyed`` says the input already went through a shuffle, whose
    assignment pass checked every record (the reduce side); without it
    the task checks its records itself (the map side, an elided
    shuffle).
    """

    __slots__ = ("fn", "operator", "keyed")

    def __init__(self, fn, operator, keyed=False):
        self.fn = fn
        self.operator = operator
        self.keyed = keyed

    @property
    def udfs(self):
        return (self.fn,)

    def empty_result(self):
        return [], 0

    def run(self, parts):
        values = []
        for records in parts:
            acc = {}
            work = fold_pairs(
                acc, records, self.fn, self.operator, not self.keyed
            )
            values.append((list(acc.items()), work))
        return values


class GroupBucketTask(BatchTask):
    """Materialize reduce buckets' groups for ``group_by_key``.

    Carries the scalar memory-model constants it needs (per-record
    rate, overhead factor, per-task limit) so the memory check runs
    wherever the task runs.  ``keyed`` as for :class:`CombineTask`.
    """

    __slots__ = ("record_bytes", "overhead_factor", "limit", "operator",
                 "keyed")

    def __init__(self, record_bytes, overhead_factor, limit, operator,
                 keyed=False):
        self.record_bytes = record_bytes
        self.overhead_factor = overhead_factor
        self.limit = limit
        self.operator = operator
        self.keyed = keyed

    def _check_group(self, what, key, num_values):
        needed = int(num_values * self.record_bytes * self.overhead_factor)
        if needed > self.limit:
            raise SimulatedOutOfMemory(what % (key,), needed, self.limit)

    def empty_result(self):
        return []

    def run(self, parts):
        keyed = self.keyed
        values = []
        for bucket in parts:
            groups = {}
            for record in bucket:
                if not keyed:
                    require_keyed(record)
                key, value = record
                groups.setdefault(key, []).append(value)
            for key, grouped in groups.items():
                self._check_group("materializing group %r", key, len(grouped))
            values.append(list(groups.items()))
        return values


class CoGroupBucketTask(GroupBucketTask):
    """Materialize reduce buckets of a cogroup (two input sides); an
    input is ``(left_bucket, right_bucket)``."""

    __slots__ = ()

    @staticmethod
    def size(buckets):
        return len(buckets[0]) + len(buckets[1])

    def run(self, parts):
        values = []
        for left_bucket, right_bucket in parts:
            groups = {}
            for key, value in left_bucket:
                groups.setdefault(key, ([], []))[0].append(value)
            for key, value in right_bucket:
                groups.setdefault(key, ([], []))[1].append(value)
            for key, (lvals, rvals) in groups.items():
                self._check_group(
                    "cogrouping key %r", key, len(lvals) + len(rvals)
                )
            values.append(list(groups.items()))
        return values


class BroadcastJoinProbeTask(BatchTask):
    """Probe stream partitions against a broadcast hash table."""

    __slots__ = ("table", "operator")

    def __init__(self, table, operator):
        self.table = table
        self.operator = operator

    def empty_result(self):
        return []

    def run(self, parts):
        table = self.table
        values = []
        for part in parts:
            produced = []
            for record in part:
                if record.__class__ is not tuple or len(record) != 2:
                    require_keyed(record)  # tuple subclasses still pass
                key, value = record
                for other in table.get(key, ()):
                    produced.append((key, (value, other)))
            values.append(produced)
        return values


class CrossBroadcastTask(BatchTask):
    """Pair stream partitions with a broadcast payload."""

    __slots__ = ("payload", "broadcast_side", "operator")

    def __init__(self, payload, broadcast_side, operator):
        self.payload = payload
        self.broadcast_side = broadcast_side
        self.operator = operator

    def empty_result(self):
        return []

    def run(self, parts):
        payload = self.payload
        if self.broadcast_side == "right":
            return [list(product(part, payload)) for part in parts]
        return [
            [(other, item) for item, other in product(part, payload)]
            for part in parts
        ]


def require_keyed(record):
    if not isinstance(record, tuple) or len(record) != 2:
        raise PlanError(
            "keyed operator expects (key, value) records, got %r"
            % (record,)
        )


def require_hashable(key):
    try:
        hash(key)
    except TypeError:
        raise PlanError(
            "keyed operator expects hashable keys, got %r" % (key,)
        ) from None


class CallTask(BatchTask):
    """A plain callable as a task, for ad-hoc tasks without ``run``: an
    input is the callable's argument tuple, non-empty if any argument
    is, and each input is a batch of its own.  ``operator``, ``udfs``
    and ``empty_result`` are the callable's, where it has them."""

    __slots__ = ("fn", "operator", "udfs", "empty_result")

    size = any
    budget = 0

    def __init__(self, fn):
        self.fn = fn
        self.operator = getattr(fn, "operator", type(fn).__name__)
        self.udfs = getattr(fn, "udfs", ())
        self.empty_result = getattr(fn, "empty_result", None)

    def run(self, parts):
        return [self.fn(*args) for args in parts]


# ----------------------------------------------------------------------
# Invocation and outcome: what actually crosses the backend boundary
# ----------------------------------------------------------------------


class Invocation:
    """One attempt of one batch: the unit a backend runs.

    ``parts`` are the batch's inputs and ``indices`` their partitions'
    task indices, in order; a batch of one is a single task.

    ``inject_fault`` is set by the scheduler when the fault injector
    planned a failure for this (stage, task, attempt); the batch then
    dies with :class:`~repro.errors.InjectedFault` exactly where a
    killed worker would.

    ``collect_events`` is set when the dispatching context has tracing
    enabled: the attempt then records worker-side trace events (see
    :func:`record_worker_event`) into its outcome, to be re-anchored
    onto the driver timeline by the scheduler.

    Plain ``__slots__`` classes, not dataclasses: a paper-scale stage
    dispatches hundreds of these, so construction is hot.
    """

    __slots__ = ("task", "parts", "indices", "attempt", "inject_fault",
                 "collect_events")

    def __init__(self, task, parts, indices, attempt=1,
                 inject_fault=False, collect_events=False):
        self.task = task
        self.parts = parts
        self.indices = indices
        self.attempt = attempt
        self.inject_fault = inject_fault
        self.collect_events = collect_events

    @property
    def operator(self):
        return getattr(self.task, "operator", type(self.task).__name__)

    def __reduce__(self):
        return (
            Invocation,
            (self.task, self.parts, self.indices, self.attempt,
             self.inject_fault, self.collect_events),
        )


class TaskOutcome:
    """What came back from running one invocation.

    ``values`` holds one value per index of ``indices`` when ``ok``;
    ``seconds`` is the whole batch's clock pair.

    ``start_epoch`` is the attempt's start on the machine's shared
    wall clock (``time.time()``); ``events`` are worker-side trace
    events as ``(name, kind, offset_s, dur_s, args)`` tuples with
    offsets relative to ``start_epoch`` (negative offsets are allowed:
    deserializing the task's closure happens before its body runs).
    Both exist so the driver can re-anchor what happened inside a
    worker process onto its own timeline; ``events`` is ``None``
    unless the invocation asked for collection.
    """

    __slots__ = ("indices", "ok", "values", "error", "error_traceback",
                 "seconds", "worker_pid", "attempt", "start_epoch",
                 "events")

    def __init__(self, indices, ok, values=None, error=None,
                 error_traceback="", seconds=0.0, worker_pid=0, attempt=1,
                 start_epoch=0.0, events=None):
        self.indices = indices
        self.ok = ok
        self.values = values
        self.error = error
        self.error_traceback = error_traceback
        self.seconds = seconds
        self.worker_pid = worker_pid
        self.attempt = attempt
        self.start_epoch = start_epoch
        self.events = events

    @property
    def retryable(self):
        """Transient failures are retried; deterministic bugs are not."""
        return isinstance(self.error, InjectedFault) or bool(
            getattr(self.error, "retryable", False)
        )

    def __reduce__(self):
        return (
            TaskOutcome,
            (self.indices, self.ok, self.values, self.error,
             self.error_traceback, self.seconds, self.worker_pid,
             self.attempt, self.start_epoch, self.events),
        )


#: Worker-side event buffer, active only while an event-collecting
#: attempt runs on this *thread*.  Each entry is
#: ``(name, kind, offset_s, dur_s, args)`` with the offset relative to
#: the running attempt's start (set by :func:`execute_invocation`).
#: Thread-local, not module-global: under ``ctx.gather`` the serial
#: backend runs concurrent attempts on separate driver threads, and a
#: shared buffer would interleave (or drop) their events.
_worker_state = threading.local()


def record_worker_event(name, kind, dur=None, **args):
    """Record a trace event from inside a running task.

    A no-op unless the current attempt was dispatched with tracing
    enabled, so task code may call it unconditionally.  The event is
    carried back to the driver in the attempt's
    :class:`TaskOutcome.events` and re-anchored onto the driver
    timeline there, relative to the attempt's own start (never the
    stage's dispatch time, which may precede the attempt by arbitrary
    queueing delay).
    """
    events = getattr(_worker_state, "events", None)
    if events is None:
        return
    offset = time.perf_counter() - _worker_state.anchor
    if dur is not None:
        offset -= dur
    events.append((name, kind, offset, dur, args))


def execute_invocation(invocation):
    """Run one invocation, capturing outcome, error, and wall-clock.

    Never raises (short of a ``BaseException`` like a keyboard
    interrupt): failures come back as data so the scheduler on the
    driver owns the retry policy regardless of backend.
    """
    events = None
    start = time.perf_counter()
    start_epoch = time.time()
    if invocation.collect_events:
        events = []
        _worker_state.events = events
        _worker_state.anchor = start
    try:
        if invocation.inject_fault:
            raise InjectedFault(
                "injected fault: task %d attempt %d"
                % (invocation.indices[0], invocation.attempt)
            )
        values = invocation.task.run(invocation.parts)
    except Exception as exc:
        return TaskOutcome(
            indices=invocation.indices,
            ok=False,
            error=exc,
            error_traceback=traceback.format_exc(),
            seconds=time.perf_counter() - start,
            worker_pid=os.getpid(),
            attempt=invocation.attempt,
            start_epoch=start_epoch,
            events=events,
        )
    finally:
        if events is not None:
            _worker_state.events = None
    return TaskOutcome(
        indices=invocation.indices,
        ok=True,
        values=values,
        seconds=time.perf_counter() - start,
        worker_pid=os.getpid(),
        attempt=invocation.attempt,
        start_epoch=start_epoch,
        events=events,
    )
