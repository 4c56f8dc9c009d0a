"""Plan evaluation: turns a lineage DAG into data, recording metrics.

The executor evaluates plans **iteratively**: the lineage DAG is
linearized over an explicit work stack (children before parents), so
arbitrarily deep lineages -- e.g. the loop-unrolled control flow that
``repro.core.control_flow`` compiles -- evaluate without recursion and
without touching the interpreter's recursion limit.

Narrow elementwise chains (``map``/``filter``/``flat_map``) are *fused*
into one per-partition pipeline: a partition goes through the whole
chain a vector of records at a time, each operator applied to the
vector in bulk, so no operator's output is ever materialized for the
whole partition (the pipelined evaluation the chain's stage accounting
already assumed).  Narrow operators fuse into the stage of
their input (their per-task record counts are credited to that stage);
wide operators perform a hash shuffle and open a new stage.  The
recorded :class:`~repro.engine.metrics.JobMetrics` mirror what the
Spark UI would show for the same program, which is what the cost model
needs.  A cogroup schedules exactly **one** reduce stage that reads
both sides' shuffle files -- the stage layout a Spark scheduler
produces -- and every completed job is checked against the trace
invariants in :mod:`repro.engine.validate`.

Everything actually executes -- results are real, only the clock is
simulated.  *Where* a partition's work runs is the task runtime's
business (:mod:`repro.engine.runtime`): each stage's per-partition work
is packaged as a picklable task and dispatched through the
:class:`~repro.engine.runtime.TaskScheduler`, which runs it inline
(serial backend) or across worker processes (process backend), retries
transient failures, and records measured per-task wall-clock into the
trace next to the simulated counters.  Driver-side data movement
(parallelize slicing, shuffle bucketing, unions, coalesce) stays
inline: it is the simulated cluster's fabric, not task work.

*When* each step runs is fixed by the plan
(:mod:`repro.engine.dag`): the executor linearizes it into evaluation
units up front -- reserving every unit's dispatch ordinals -- and runs
them one at a time, in plan order, on the calling thread.  Jobs, not
stages, are what overlaps (``ctx.gather``, the serve daemon's slots):
anything the ``_eval_*`` methods below mutate outside their own job
(the decision log, a shared cached subtree) is lock-guarded or
commutative.

*Which* key assignment a shuffle built travels with its output: every
:class:`_Result` carries the ``layout`` its partitions are laid out by,
a narrow step passes it on only when it keeps every record's key
(:func:`~repro.engine.optimize.keeps_layout`), and a cached node keeps
it next to its ``materialized`` partitions.  Each wide node decides its
shuffle elision from the layouts its inputs carry
(:func:`~repro.engine.optimize.choose_elision`), so a layout is adopted
only from the partitions that were built with it, and no pass over the
whole plan runs per job.
"""

import collections
import contextlib
import functools
import itertools
import operator
import threading

from ..errors import PlanError, SimulatedOutOfMemory
from ..observe import NULL_TRACER
from ..observe.events import (
    DRIVER_LANE,
    KIND_BROADCAST,
    KIND_DRIVER,
    KIND_JOB,
    KIND_SHUFFLE,
    gather_lane,
)
from . import codegen
from . import dag
from . import plan as p
from .broadcast import check_broadcast_fits
from .optimize import Decision, choose_elision, keeps_layout
from .metrics import nonzero, truthy_indices
from .partitioner import build_balanced_assignment, stable_hash
from .runtime.scheduler import TaskScheduler
from .runtime.task import (
    BroadcastJoinProbeTask,
    CoGroupBucketTask,
    CombineTask,
    CrossBroadcastTask,
    FusedPipelineTask,
    GroupBucketTask,
    MapPartitionsTask,
    require_hashable,
    require_keyed,
)
from .validate import validate_job


_KEY = operator.itemgetter(0)
_VALUE = operator.itemgetter(1)
_WORKS = operator.itemgetter(2)
_FOLD_WORK = operator.itemgetter(3)


_origin = p.origin


def _chain_layout(chain, child):
    """The layout a fused chain's output carries: its input's, when
    every step keeps the key."""
    if child.layout is not None and all(map(keeps_layout, chain)):
        return child.layout
    return None


def _credit_records(stage, partitions, live):
    """Credit the record count of each of the candidate ``partitions``
    to its task of ``stage``; returns the total."""
    live, lengths = nonzero(
        live, list(map(len, map(partitions.__getitem__, live)))
    )
    stage.credit_task_records(lengths, live)
    return sum(lengths)


def _scatter(n, live, parts):
    """``n`` partitions: ``parts`` at the indices ``live``, the shared
    empty partition everywhere else."""
    out = [p.EMPTY_PARTITION] * n
    for index, part in zip(live, parts):
        out[index] = part
    return out


class _Result:
    """Partitions of an evaluated node, the stage that produced them,
    and ``live``: the ascending indices of the partitions that may hold
    records.  Every other partition is empty, so a consumer reads,
    measures and credits the ``live`` ones alone.

    ``layout`` is ``(origin, assignment)`` when the partitions are laid
    out by the key -> bucket ``assignment`` the shuffle node ``origin``
    built, ``None`` when no shuffle's layout is known to hold."""

    __slots__ = ("partitions", "stage", "live", "layout")

    def __init__(self, partitions, stage, live, layout=None):
        self.partitions = partitions
        self.stage = stage
        self.live = live
        self.layout = layout

    def live_partitions(self):
        return list(map(self.partitions.__getitem__, self.live))


class Executor:
    """Evaluates plan nodes for one :class:`EngineContext`."""

    def __init__(self, config, trace, scheduler=None, tracer=None):
        self.config = config
        self.trace = trace
        self.scheduler = (
            scheduler if scheduler is not None else TaskScheduler(config)
        )
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Optimizer decisions taken so far (shuffle elisions), as
        #: :class:`repro.engine.optimize.Decision` records.
        self.decisions = []
        # Guards executor-level shared state (the decision log, a
        # cached node's partitions and layout) against concurrent jobs
        # (``ctx.gather``, the serve daemon's slots).
        self._state_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Cross-job state management (long-lived contexts)
    # ------------------------------------------------------------------

    def drain_decisions(self):
        """Return and clear the optimizer-decision log.

        Long-lived contexts call this per accounting window
        (``ctx.end_job``) so the log cannot grow without bound.
        """
        with self._state_lock:
            drained = self.decisions[:]
            del self.decisions[:]
            return drained

    # ------------------------------------------------------------------
    # Job entry points (actions)
    # ------------------------------------------------------------------

    @contextlib.contextmanager
    def _job_scope(self, action, label):
        """Open a job (and, when tracing, its driver + job spans).

        The ``driver`` span covers the whole action call -- plan
        evaluation plus driver-side result assembly -- and the ``job``
        span nests just inside it, so traces show the four-level
        hierarchy driver > job > stage > task.  Jobs submitted from a
        ``ctx.gather`` thunk get their own driver-side lane (see
        :func:`~repro.observe.events.gather_lane`), and everything the
        job emits -- its stages, task sets, driver-run tasks, shuffle
        and broadcast instants -- follows it there, so concurrent jobs'
        span nesting stays well-formed per lane.
        """
        tracer = self.tracer
        if not tracer.enabled:
            yield self.trace.new_job(action, label)
            return
        slot = self.trace.current_slot()
        lane = DRIVER_LANE if slot < 0 else gather_lane(slot)
        suffix = "[%s]" % label if label else ""
        self.scheduler.set_dispatch_lane(lane)
        try:
            with tracer.span(
                "driver:%s%s" % (action, suffix), KIND_DRIVER, lane=lane,
                action=action,
            ):
                job = self.trace.new_job(action, label)
                with tracer.span(
                    "job#%d:%s%s" % (job.job_id, action, suffix),
                    KIND_JOB,
                    lane=lane,
                    job=job.job_id,
                    action=action,
                ) as args:
                    yield job
                    args["stages"] = len(job.stages)
                    args["records"] = job.total_records
        finally:
            self.scheduler.set_dispatch_lane(None)

    def collect(self, node, label=""):
        """Run a job and return all elements as a list."""
        with self._job_scope("collect", label) as job:
            partitions = self._run(node, job)
            result = list(itertools.chain.from_iterable(partitions))
            self._check_driver_memory(len(result))
            job.collected_records += len(result)
            validate_job(job)
        return result

    def count(self, node, label=""):
        with self._job_scope("count", label) as job:
            partitions = self._run(node, job)
            job.collected_records += len(partitions)
            validate_job(job)
        return sum(map(len, partitions))

    def save(self, node, label=""):
        """Write a bag to distributed storage (the paper's output op).

        The data never passes through the driver; the job is charged a
        parallel disk write.  Returns the number of records written.
        """
        with self._job_scope("save", label) as job:
            partitions = self._run(node, job)
            written = sum(map(len, partitions))
            if node.meta:
                job.saved_meta_records += written
            else:
                job.saved_records += written
            validate_job(job)
        return written

    def reduce(self, node, fn, label=""):
        with self._job_scope("reduce", label) as job:
            partitions = self._run(node, job)
            partials = []
            for part in partitions:
                iterator = iter(part)
                try:
                    acc = next(iterator)
                except StopIteration:
                    continue
                for item in iterator:
                    acc = fn(acc, item)
                partials.append(acc)
            job.collected_records += len(partials)
            if not partials:
                raise PlanError("reduce of an empty bag")
            acc = partials[0]
            for item in partials[1:]:
                acc = fn(acc, item)
            validate_job(job)
        return acc

    def fold(self, node, zero, fn, label=""):
        with self._job_scope("fold", label) as job:
            partitions = self._run(node, job)
            # The left fold over every partition in order, in C.
            acc = functools.reduce(
                fn, itertools.chain.from_iterable(partitions), zero
            )
            job.collected_records += len(partitions)
            validate_job(job)
        return acc

    # ------------------------------------------------------------------
    # Iterative evaluation
    # ------------------------------------------------------------------

    def _run(self, node, job):
        return self._eval(node, job).partitions

    def _eval(self, root, job):
        """Evaluate ``root`` unit by unit (:mod:`repro.engine.dag`).

        The plan is linearized into evaluation units first (stack-safe:
        call depth stays constant in the lineage depth, so 20k-operator
        chains evaluate without recursion-limit games), each unit's
        dispatch ordinals are reserved while planning, and the units
        then run one at a time in plan order.  ``results`` maps a plan
        node's id to its completed :class:`_Result` until its last
        reader (``EvalUnit.reads``) has run; plan order puts every unit
        after the units it consumes.  A unit that raises leaves the
        stages opened so far in ``job``, so a failed job's trace stays
        inspectable.
        """
        units = dag.plan_units(root)
        ordinal_base = self.scheduler.reserve_ordinals(
            dag.total_ordinal_budget(units)
        )
        readers = collections.Counter(
            key for unit in units for key in unit.reads
        )
        results = {}
        result = None
        for unit in units:
            ordinals = dag.OrdinalCursor(ordinal_base + unit.ordinal_offset)
            result = self._run_unit(unit, job, results, ordinals)
            results[id(unit.node)] = result
            for key in unit.reads:
                readers[key] -= 1
                if not readers[key]:
                    del results[key]
        return result

    def _run_unit(self, unit, job, results, ordinals):
        """Evaluate one unit; new stages open on ``job``."""
        node = unit.node
        if unit.cached:
            return self._cached_result(node, job)
        if unit.chain is not None:
            child = results[id(unit.chain[0].child)]
            if unit.fold is None:
                result = self._eval_fused(unit.chain, child, ordinals)
            else:
                result = self._eval_reduce_by_key(
                    node, job, child, ordinals, unit.chain
                )
        else:
            result = self._eval_node(node, job, results, ordinals)
        if node.cached:
            # The partitions and the layout they were built with are
            # one value: concurrent jobs materializing the same node
            # must not leave one job's partitions with another's layout.
            with self._state_lock:
                node.materialized = result.partitions
                node.layout = result.layout
        return result

    def _cached_result(self, node, job):
        with self._state_lock:
            parts, layout = node.materialized, node.layout
        stage = job.new_stage(
            "cached", len(parts), meta=node.meta, origin=_origin(node)
        )
        return _Result(parts, stage, truthy_indices(parts), layout)

    def _eval_node(self, node, job, results, ordinals):
        if isinstance(node, p.Parallelize):
            return self._eval_parallelize(node, job)
        if isinstance(node, p.MapPartitions):
            return self._eval_map_partitions(
                node, results[id(node.child)], ordinals
            )
        if isinstance(node, p.ZipWithUniqueId):
            return self._eval_zip_with_unique_id(
                node, results[id(node.child)]
            )
        if isinstance(node, p.Union):
            return self._eval_union(
                node, job, [results[id(child)] for child in node.children]
            )
        if isinstance(node, p.Coalesce):
            return self._eval_coalesce(node, job, results[id(node.child)])
        if isinstance(node, p.ReduceByKey):
            return self._eval_reduce_by_key(
                node, job, results[id(node.child)], ordinals
            )
        if isinstance(node, p.GroupByKey):
            return self._eval_group_by_key(
                node, job, results[id(node.child)], ordinals
            )
        if isinstance(node, p.CoGroup):
            return self._eval_cogroup(
                node, job, results[id(node.left)],
                results[id(node.right)], ordinals,
            )
        if isinstance(node, p.BroadcastJoin):
            return self._eval_broadcast_join(
                node, job, results[id(node.left)],
                results[id(node.right)], ordinals,
            )
        if isinstance(node, p.CrossBroadcast):
            return self._eval_cross_broadcast(
                node, job, results[id(node.left)],
                results[id(node.right)], ordinals,
            )
        raise PlanError("unknown plan node type: %s" % node.name)

    def _eval_parallelize(self, node, job):
        partitions = node.build_partitions()
        stage = job.new_stage(
            "input", len(partitions), meta=node.meta, origin=_origin(node)
        )
        # The slices ahead of the data's length are the ones it fills.
        live = list(range(min(len(partitions), len(node.data))))
        _credit_records(stage, partitions, live)
        return _Result(partitions, stage, live)

    # -- fused narrow elementwise chains -------------------------------

    def _eval_fused(self, chain, child, ordinals, fold=None):
        """Push each partition through the whole elementwise chain.

        One output list per partition is materialized at the fusion
        boundary; between operators only a vector of records exists.
        The vector-at-a-time loop lives in
        :class:`~repro.engine.runtime.task.FusedPipelineTask` and runs
        wherever the backend puts it; each operator is then credited
        its input record count (plus reported UDF work) on the input's
        stage, exactly as unfused evaluation would.

        A chain whose task set is large enough -- steps x input
        records reaches :data:`codegen.COMPILE_MIN_RECORD_STEPS` -- is
        handed to the codegen planner, and runs as one generated,
        specialized loop
        (:class:`~repro.engine.runtime.task.CompiledPipelineTask`) when
        its UDFs pass the compile gate; the compile-or-fallback choice
        is recorded as a ``compiled-pipeline`` optimizer decision.  A
        smaller chain is interpreted with no analysis, planning or
        decision at all: planning has a fixed price per chain that only
        enough record-steps pay back.  Either way the credited counts
        -- and with them the simulated seconds -- are identical, and
        the output partitions are plain lists.

        With ``fold=(reducer, operator)`` the same tasks are also the
        map-side combine of the ``reduce_by_key`` above the chain: the
        partitions returned are the combined ones, and the reductions'
        declared work is credited next to the steps'.  Only the
        elementwise steps count toward the threshold.
        """
        steps = codegen.chain_steps(chain)
        factor = self.config.sequential_work_factor
        stage = child.stage
        task = FusedPipelineTask(steps, fold)
        if (
            len(steps) * sum(map(len, child.live_partitions()))
            >= codegen.COMPILE_MIN_RECORD_STEPS
        ):
            compiled, reason = codegen.plan_compiled_task(
                steps, tracer=self.tracer, fold=fold
            )
            task = compiled or task
            self._record_compile_decision(task, reason)
        values, live = self.scheduler.run_stage(
            task, child.partitions, stage=stage, ordinal=ordinals.take(),
            live=child.live,
        )
        # Fold each live task's credit first -- its per-step record
        # counts plus any UDF-internal sequential work, which runs
        # record-at-a-time and is charged at the configured slowdown
        # over the bulk rate, truncated per step (and per partition's
        # reductions) -- then credit the whole set at once.  A task
        # that was not dispatched processed nothing.
        ran = list(map(values.__getitem__, live))
        sums = list(map(sum, map(_VALUE, ran)))
        if any(map(any, map(_WORKS, ran))) or (
            fold is not None and any(map(_FOLD_WORK, ran))
        ):
            for position, (_records, _counts, works, *fold_work) in enumerate(
                ran
            ):
                sums[position] += sum(
                    int(work * factor) for work in works + fold_work
                )
        stage.credit_task_records(sums, live)
        return _Result(
            _scatter(len(values), live, map(_KEY, ran)), stage, live,
            _chain_layout(chain, child),
        )

    def _record_compile_decision(self, task, reason):
        """Log one ``compiled-pipeline`` decision for a planned chain:
        ``task`` is the body it runs as, compiled iff ``reason`` is
        ``None``."""
        steps = task.steps
        operator = task.operator
        if reason is None:
            decision = Decision(
                kind="compiled-pipeline",
                choice="compile",
                num_tags=len(steps),
                detail="%s compiled as %s; %s" % (
                    operator, task.key, codegen.lowering_note(task)
                ),
            )
        else:
            decision = Decision(
                kind="compiled-pipeline",
                choice="interpret",
                num_tags=len(steps),
                detail="%s: %s" % (operator, reason),
            )
        with self._state_lock:
            self.decisions.append(decision)

    # -- other narrow operators ----------------------------------------

    def _eval_map_partitions(self, node, child, ordinals):
        task = MapPartitionsTask(node.fn, _origin(node))
        results, _live = self.scheduler.run_stage(
            task,
            # Partitions are read-only and a task set's empties are one
            # shared list; the UDF may mutate its input, so an empty
            # partition reaches it as a list of its own.
            [(part or [], index)
             for index, part in enumerate(child.partitions)],
            stage=child.stage,
            ordinal=ordinals.take(),
        )
        factor = self.config.sequential_work_factor
        # Every task ran (no empty result to fill in): this set's
        # credits and its output are read in full.
        counts = [
            len(part) + int(work * factor)
            for part, (_records, work) in zip(child.partitions, results)
        ]
        live, counts = nonzero(range(len(counts)), counts)
        child.stage.credit_task_records(counts, list(live))
        out = [records for records, _work in results]
        layout = child.layout if keeps_layout(node) else None
        return _Result(out, child.stage, truthy_indices(out), layout)

    def _eval_zip_with_unique_id(self, node, child):
        parts = child.partitions
        n = max(1, len(parts))
        _credit_records(child.stage, parts, child.live)
        out = _scatter(len(parts), child.live, [
            [(item, index + i * n) for i, item in enumerate(parts[index])]
            for index in child.live
        ])
        return _Result(out, child.stage, child.live)

    def _eval_union(self, node, job, children):
        partitions = p.chain_partitions(
            [child.partitions for child in children]
        )
        live = []
        offset = 0
        for child in children:
            live.extend(map(offset.__add__, child.live))
            offset += len(child.partitions)
        stage = job.new_stage(
            "union", len(partitions), meta=node.meta, origin=_origin(node)
        )
        return _Result(partitions, stage, live)

    def _eval_coalesce(self, node, job, child):
        n = min(node.num_partitions, max(1, len(child.partitions)))
        out = [[] for _ in range(n)]
        for index in child.live:
            out[index % n].extend(child.partitions[index])
        stage = job.new_stage(
            "coalesce", n, meta=node.meta, origin=_origin(node)
        )
        return _Result(out, stage, truthy_indices(out))

    # -- wide (shuffling) operators ------------------------------------

    def _bucketize(self, result, num_partitions, assignment):
        """Hash-partition keyed records into reduce buckets.

        Charges the map-side shuffle write to the producing stage and
        returns ``(buckets, live, moved)``: ``live`` the buckets that
        received records, ascending, and ``moved`` the number of
        records written to (and later read from) the shuffle.  The
        records were checked when ``assignment`` was built
        (:meth:`_key_assignment`), once per shuffle.
        """
        # Only the buckets the assignment names get a list of their own.
        buckets = [p.EMPTY_PARTITION] * num_partitions
        live = sorted(set(assignment.values()))
        for index in live:
            buckets[index] = []
        for part in result.live_partitions():
            for record in part:
                buckets[assignment[record[0]]].append(record)
        moved = _credit_records(result.stage, result.partitions, result.live)
        return buckets, live, moved

    def _shuffle(self, result, node, job, combined=False):
        """Shuffle keyed partitions into a new reduce stage; returns
        the buckets as a :class:`_Result` of that stage, whose record
        ledger holds each live bucket's records and whose ``live`` is
        that ledger's.

        Keys are spread over reduce buckets with a balanced assignment
        (see :func:`build_balanced_assignment`).  The result's
        ``layout`` is ``(node, assignment)``, so later wide operators
        can *adopt* the layout instead of re-shuffling (see
        :mod:`repro.engine.optimize`).  ``combined`` as for
        :meth:`_key_assignment`.
        """
        origin = _origin(node)
        assignment = self._key_assignment(
            result.live_partitions(), node.num_partitions, combined
        )
        buckets, live, moved = self._bucketize(
            result, node.num_partitions, assignment
        )
        stage = job.new_stage(
            "shuffle", len(buckets), meta=node.meta, origin=origin
        )
        stage.shuffle_read_records = moved
        stage.shuffle_write_records = moved
        _credit_records(stage, buckets, live)
        self._trace_shuffle(stage, origin)
        return _Result(
            buckets, stage, stage.task_records.live, (node, assignment)
        )

    def _record_elision(self, node, elision):
        decision = Decision(
            kind="shuffle-elision",
            choice=elision[0],
            num_tags=node.num_partitions,
            detail="%s reuses the partitioning of %s"
            % (_origin(node), _origin(elision[1])),
        )
        with self._state_lock:
            self.decisions.append(decision)

    def _key_assignment(self, parts, num_partitions, combined=False):
        """Balanced key -> bucket assignment over the given partitions.

        This pass is also where a shuffle checks its records, once:
        bucketing and the reduce-side tasks (``keyed=True``) rely on it.
        Not when the partitions are ``combined`` -- each a map-side
        combine's ``list(acc.items())``, pairs of hashable keys by
        construction.
        """
        flat = itertools.chain.from_iterable
        # Plain pairs pass two C-level scans; anything else is checked
        # record by record, so the first offender is the one reported.
        if not combined and (
            set(map(type, flat(parts))) - {tuple}
            or set(map(len, flat(parts))) - {2}
        ):
            for record in flat(parts):
                require_keyed(record)
        try:
            counts = collections.Counter(map(_KEY, flat(parts)))
        except TypeError:
            for record in flat(parts):
                require_hashable(record[0])
            raise
        return build_balanced_assignment(counts, num_partitions)

    def _combine_pass(self, task, source, stage, ordinal, sizes=None):
        """Run one combine task set over the partitions of ``source``
        (a :class:`_Result`; ``sizes`` are their record counts, aligned
        with ``source.live``, when the caller has them); credit
        reported UDF work.

        Returns the combined partitions as a :class:`_Result` of
        ``stage``.  ``CombineTask`` reports the ``Weighted`` work its
        reductions declared; it is charged to the same stage (and task
        index) the reductions ran on, at the sequential-work slowdown,
        like every other UDF's work.
        """
        values, live = self.scheduler.run_stage(
            task, source.partitions, stage=stage, ordinal=ordinal,
            sizes=sizes, live=source.live,
        )
        ran = list(map(values.__getitem__, live))
        works = list(map(_VALUE, ran))
        if any(works):
            factor = self.config.sequential_work_factor
            stage.credit_task_records(
                [int(work * factor) for work in works], live
            )
        return _Result(
            _scatter(len(values), live, map(_KEY, ran)), stage, live,
            source.layout,
        )

    def _eval_reduce_by_key(self, node, job, child, ordinals, chain=None):
        """``chain`` is the fused chain between ``child`` and ``node``
        when the plan made them one unit (:func:`dag.plan_units`): the
        elision is decided on the chain's output, which then runs on
        its own ahead of the one combine pass, on the chain's ordinal
        and the combine's (the reduce's is the gap)."""
        task = CombineTask(node.fn, _origin(node))
        output = child if chain is None else _Result(
            child.partitions, child.stage, child.live,
            _chain_layout(chain, child),
        )
        elision = choose_elision(node, output)
        if elision is not None:
            if chain is not None:
                child = self._eval_fused(chain, child, ordinals)
            # The input is provably laid out exactly as this shuffle
            # would lay it out: every key is confined to the partition
            # it would be sent to, so a single combine pass per
            # partition produces the final result and nothing crosses
            # the network.  The stage stays a (zero-volume) shuffle
            # stage so trace shapes match the unoptimized plan.
            stage = job.new_stage(
                "shuffle", len(child.partitions), meta=node.meta,
                origin=_origin(node),
            )
            out = self._combine_pass(task, child, stage, ordinals.take())
            stage.shuffle_records_saved = _credit_records(
                stage, out.partitions, out.live
            )
            self._account_spill(stage)
            self._record_elision(node, elision)
            return out
        # Map-side combine: reduce within each map partition first, so the
        # shuffle only moves one record per (partition, key) pair.  The
        # same fold runs on both sides of the shuffle -- map-side in the
        # chain's own tasks when the plan fused the two, which leaves
        # the combine's ordinal a gap -- and what it builds needs no
        # checking again, by the shuffle or the reduce side.
        if chain is not None:
            combined = self._eval_fused(
                chain, child, ordinals, fold=(task.fn, task.operator)
            )
            ordinals.take()
        else:
            combined = self._combine_pass(
                task, child, child.stage, ordinals.take()
            )
        buckets = self._shuffle(combined, node, job, combined=True)
        stage = buckets.stage
        out = self._combine_pass(
            CombineTask(node.fn, _origin(node), keyed=True), buckets,
            stage, ordinals.take(), sizes=stage.task_records.amounts,
        )
        self._account_spill(stage)
        return out

    def _eval_group_by_key(self, node, job, child, ordinals):
        elision = choose_elision(node, child)
        if elision is not None:
            # Keys are already confined to their target partitions:
            # group each partition in place, no shuffle traffic.
            stage = job.new_stage(
                "shuffle", len(child.partitions), meta=node.meta,
                origin=_origin(node),
            )
            stage.shuffle_records_saved = _credit_records(
                stage, child.partitions, child.live
            )
            source = child
            keyed = False
        else:
            source = self._shuffle(child, node, job)
            stage = source.stage
            keyed = True
        # The stage's record ledger holds each input's records.
        records = stage.task_records
        task = GroupBucketTask(
            self._stage_rate(stage),
            self.config.memory_overhead_factor,
            self._task_limit(records),
            _origin(node),
            keyed=keyed,
        )
        out, live = self.scheduler.run_stage(
            task, source.partitions, stage=stage, ordinal=ordinals.take(),
            sizes=records.amounts, live=records.live,
        )
        self._account_spill(stage)
        if elision is not None:
            self._record_elision(node, elision)
        return _Result(out, stage, live, source.layout)

    def _task_limit(self, task_records):
        """Per-task memory budget given how many tasks run concurrently:
        those with records in the ledger ``task_records``."""
        amounts = task_records.amounts
        nonempty = len(amounts) - amounts.count(0)
        per_machine = -(-max(1, nonempty) // self.config.machines)
        return self.config.task_memory_limit_bytes(per_machine)

    def _eval_cogroup(self, node, job, left, right, ordinals):
        elided = self._eval_cogroup_elided(node, job, left, right, ordinals)
        if elided is not None:
            return elided
        # Both sides co-partition: one key assignment over both inputs.
        assignment = self._key_assignment(
            left.live_partitions() + right.live_partitions(),
            node.num_partitions,
        )
        left_buckets, left_live, left_moved = self._bucketize(
            left, node.num_partitions, assignment
        )
        right_buckets, right_live, right_moved = self._bucketize(
            right, node.num_partitions, assignment
        )
        # One reduce stage reads both sides' shuffle files (Spark
        # schedules a single reduce task set for a cogroup); each input
        # record is credited exactly once.
        stage = job.new_stage("shuffle", node.num_partitions,
                              meta=node.meta, origin=_origin(node))
        stage.shuffle_read_records = left_moved + right_moved
        stage.shuffle_write_records = left_moved + right_moved
        self._trace_shuffle(stage, _origin(node))
        return self._run_cogroup_buckets(
            node, stage, (left_buckets, left_live),
            (right_buckets, right_live), ordinals, (node, assignment),
        )

    def _eval_cogroup_elided(self, node, job, left, right, ordinals):
        """A cogroup whose shuffle is (partially) elided, or ``None``.

        ``elide-both``: both sides already share the origin's layout --
        zip their partitions directly, nothing moves.  ``adopt-left`` /
        ``adopt-right``: one side stays in place and only the other
        side is bucketized into the adopted layout (its map-side write
        is still charged); keys the origin never saw are placed by
        hash.  ``None`` when :func:`choose_elision` elides nothing.
        """
        elision = choose_elision(node, left, right)
        if elision is None:
            return None
        choice = elision[0]
        n = node.num_partitions
        if choice == "elide-both":
            layout = left.layout
            left_buckets = (left.partitions, left.live)
            right_buckets = (right.partitions, right.live)
            moved = 0
            saved = sum(map(len, left.live_partitions())) + sum(
                map(len, right.live_partitions())
            )
        else:
            if choice == "adopt-left":
                adopted, other = left, right
            else:
                adopted, other = right, left
            # The output is laid out by the adopted assignment extended
            # with the other side's new keys: stacked joins adopt it in
            # turn.
            layout = (node, dict(adopted.layout[1]))
            buckets, live, moved = self._adopt_bucketize(
                other, n, layout[1]
            )
            if choice == "adopt-left":
                left_buckets = (adopted.partitions, adopted.live)
                right_buckets = (buckets, live)
            else:
                left_buckets = (buckets, live)
                right_buckets = (adopted.partitions, adopted.live)
            saved = sum(map(len, adopted.live_partitions()))
        stage = job.new_stage("shuffle", n, meta=node.meta,
                              origin=_origin(node))
        stage.shuffle_read_records = moved
        stage.shuffle_write_records = moved
        stage.shuffle_records_saved = saved
        if moved:
            self._trace_shuffle(stage, _origin(node))
        self._record_elision(node, elision)
        return self._run_cogroup_buckets(
            node, stage, left_buckets, right_buckets, ordinals, layout
        )

    def _adopt_bucketize(self, result, num_partitions, layout):
        """Bucketize one cogroup side into an adopted shuffle layout.

        Extends ``layout`` in place with hash-placed buckets for keys
        the origin shuffle never saw; charges the map-side write to the
        producing stage like :meth:`_bucketize`.  Only a bucket that
        receives a record gets a list of its own.  Returns
        ``(buckets, live, moved)`` like :meth:`_bucketize`.
        """
        empty = p.EMPTY_PARTITION
        buckets = [empty] * num_partitions
        live = []
        for part in result.live_partitions():
            for record in part:
                require_keyed(record)
                key = record[0]
                index = layout.get(key)
                if index is None:
                    index = stable_hash(key) % num_partitions
                    layout[key] = index
                bucket = buckets[index]
                if bucket is empty:
                    bucket = buckets[index] = []
                    live.append(index)
                bucket.append(record)
        live.sort()
        moved = _credit_records(result.stage, result.partitions, result.live)
        return buckets, live, moved

    def _run_cogroup_buckets(self, node, stage, left, right, ordinals,
                             layout):
        """Run the reduce set of a cogroup whose two sides are ``left``
        and ``right``, each a ``(buckets, live)`` pair laid out by
        ``layout``; credits each bucket pair's records to ``stage``
        first."""
        left_buckets, left_live = left
        right_buckets, right_live = right
        candidates = sorted(set(left_live).union(right_live))
        live, sizes = nonzero(candidates, [
            len(left_buckets[index]) + len(right_buckets[index])
            for index in candidates
        ])
        stage.credit_task_records(sizes, live)
        # Only a pair that holds records is a tuple of its own.
        empty = p.EMPTY_PARTITION
        pairs = [(empty, empty)] * stage.num_tasks
        for index in live:
            pairs[index] = (left_buckets[index], right_buckets[index])
        task = CoGroupBucketTask(
            self._stage_rate(stage),
            self.config.memory_overhead_factor,
            self._task_limit(stage.task_records),
            _origin(node),
        )
        out, live = self.scheduler.run_stage(
            task, pairs, stage=stage, ordinal=ordinals.take(),
            sizes=sizes, live=live,
        )
        self._account_spill(stage)
        return _Result(out, stage, live, layout)

    # -- broadcast operators (narrow) ----------------------------------

    def _eval_broadcast_join(self, node, job, left, right, ordinals):
        table = {}
        count = 0
        _credit_records(right.stage, right.partitions, right.live)
        for part in right.live_partitions():
            for record in part:
                require_keyed(record)
                key, value = record
                table.setdefault(key, []).append(value)
                count += 1
        check_broadcast_fits(
            count, self.config, "broadcast join build side",
            meta=node.right.meta,
        )
        if node.right.meta:
            job.broadcast_meta_records += count
        else:
            job.broadcast_records += count
        self._trace_broadcast(
            "join build side", _origin(node), count, node.right.meta
        )
        stage = self._scale_corrected(left.stage, node, job)
        task = BroadcastJoinProbeTask(table, _origin(node))
        out, live = self.scheduler.run_stage(
            task, left.partitions, stage=stage, ordinal=ordinals.take(),
            live=left.live,
        )
        _credit_records(stage, left.partitions, live)
        _credit_records(stage, out, live)
        return _Result(out, stage, live, left.layout)

    def _eval_cross_broadcast(self, node, job, left, right, ordinals):
        if node.broadcast_side == "right":
            stream_node, stream = node.left, left
            small_node, small = node.right, right
        else:
            stream_node, stream = node.right, right
            small_node, small = node.left, left
        payload = list(itertools.chain.from_iterable(
            small.live_partitions()
        ))
        _credit_records(small.stage, small.partitions, small.live)
        check_broadcast_fits(
            len(payload), self.config, "cross-product broadcast side",
            meta=small_node.meta,
        )
        if small_node.meta:
            job.broadcast_meta_records += len(payload)
        else:
            job.broadcast_records += len(payload)
        self._trace_broadcast(
            "cross-product side", _origin(node), len(payload),
            small_node.meta,
        )
        stage = self._scale_corrected(stream.stage, node, job)
        task = CrossBroadcastTask(
            payload, node.broadcast_side, _origin(node)
        )
        out, live = self.scheduler.run_stage(
            task, stream.partitions, stage=stage, ordinal=ordinals.take(),
            live=stream.live,
        )
        _credit_records(stage, out, live)
        return _Result(out, stage, live)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _trace_shuffle(self, stage, origin):
        """Emit a ``shuffle`` instant for a freshly bucketized stage."""
        if not self.tracer.enabled:
            return
        self.tracer.instant(
            "shuffle:%s" % origin,
            KIND_SHUFFLE,
            lane=self.scheduler.dispatch_lane(),
            records=stage.shuffle_read_records,
            bytes=int(
                stage.shuffle_read_records * self._stage_rate(stage)
            ),
            partitions=stage.num_tasks,
            origin=origin,
        )

    def _trace_broadcast(self, what, origin, num_records, meta):
        """Emit a ``broadcast`` instant for a shipped payload."""
        if not self.tracer.enabled:
            return
        rate = (
            self.config.result_record_bytes
            if meta
            else self.config.bytes_per_record
        )
        self.tracer.instant(
            "broadcast:%s" % origin,
            KIND_BROADCAST,
            lane=self.scheduler.dispatch_lane(),
            what=what,
            records=num_records,
            bytes=int(num_records * rate),
            origin=origin,
        )

    def _account_spill(self, stage):
        cfg = self.config
        rate = self._stage_rate(stage)
        # Per-task spill: a reduce task whose working set exceeds its
        # memory share sorts/aggregates on disk.
        task_limit = self._task_limit(stage.task_records)
        amounts = stage.task_records.amounts
        # The footprint grows with the records, so when the largest
        # task fits, all do.
        largest = max(amounts, default=0)
        if cfg.materialized_bytes(largest, rate) > task_limit:
            for records in amounts:
                if cfg.materialized_bytes(records, rate) > task_limit:
                    stage.spilled_records += records
        # Cluster-level spill: processing the entire input at once can
        # exceed aggregate memory, in which case the excess goes through
        # disk (this is the memory pressure the paper observes for
        # Matryoshka's Bounce Rate at full input size, Sec. 9.4).
        cluster_limit = cfg.executor_memory_limit_bytes * cfg.machines
        total = cfg.materialized_bytes(stage.total_records, rate)
        excess = total - cluster_limit
        if excess > 0:
            per_record = rate * cfg.memory_overhead_factor
            stage.spilled_records += int(excess / per_record)

    def _scale_corrected(self, stage, node, job):
        """Stage to credit a join/cross output to.

        A cross product whose stream side is meta-scale but whose output
        pairs carry data-scale payloads (or vice versa) must not inherit
        the stream stage's record scale; open a narrow continuation stage
        at the node's own scale.
        """
        if stage.meta == node.meta:
            return stage
        return job.new_stage(
            "union", stage.num_tasks, meta=node.meta, origin=_origin(node)
        )

    def _stage_rate(self, stage):
        if stage.meta:
            return self.config.result_record_bytes
        return self.config.bytes_per_record

    def _check_driver_memory(self, num_records):
        needed = int(num_records * self.config.result_record_bytes)
        if needed > self.config.driver_memory_bytes:
            raise SimulatedOutOfMemory(
                "collecting result to the driver",
                needed,
                self.config.driver_memory_bytes,
            )
