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


_origin = p.origin

#: The input sides a wide node's shuffle elision keeps in place, by its
#: choice (:func:`~repro.engine.optimize.choose_elision`): ``None``, no
#: elision, keeps none and the exchange moves every side.
_KEPT = {
    None: (),
    "elide": (0,),
    "elide-both": (0, 1),
    "adopt-left": (0,),
    "adopt-right": (1,),
}


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
        wherever the backend puts it and reports one record count per
        partition -- each operator's input records, summed -- plus the
        UDF work its steps reported, which the input's stage is then
        credited exactly as unfused evaluation would credit it.

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
        # Fold each live task's credit first -- its record count plus
        # any UDF-internal sequential work, which runs record-at-a-time
        # and is charged at the configured slowdown over the bulk rate,
        # truncated per step (and per partition's reductions) -- then
        # credit the whole set at once.  A task that was not dispatched
        # processed nothing.
        ran = list(map(values.__getitem__, live))
        counts = list(map(_VALUE, ran))
        if any(map(_WORKS, ran)):
            for position, (_records, _count, works) in enumerate(ran):
                if works is not None:
                    counts[position] += sum(
                        int(work * factor) for work in works
                    )
        stage.credit_task_records(counts, live)
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

    def _exchange(self, node, job, sides, elision, combined=False):
        """Open the shuffle stage of the wide ``node`` and place its
        input ``sides`` (:class:`_Result`\\ s) in it.

        The ``elision`` (:func:`choose_elision`) only picks the sides
        that stay in place (:data:`_KEPT`).  Every other side is
        bucketized (:meth:`_bucketize`) by one key assignment: a fresh
        balanced one over the moving sides, or the kept side's, extended
        by hash with the keys its origin never saw -- the output carries
        it, so a later wide operator may adopt it in turn.

        Returns ``(stage, placed, layout)``: ``placed`` each side's
        partitions in ``stage``'s layout, ``layout`` the one they carry.
        The stage's record ledger holds each partition's records over
        every side; what moved is its shuffle volume, what stayed its
        ``shuffle_records_saved``.  ``combined`` as for
        :meth:`_key_counts`.
        """
        n = node.num_partitions
        kept = _KEPT[elision and elision[0]]
        counts = {
            index: self._key_counts(side, combined)
            for index, side in enumerate(sides) if index not in kept
        }
        if not kept:
            assignment = build_balanced_assignment(
                functools.reduce(operator.add, counts.values()), n
            )
        elif counts:
            assignment = dict(sides[kept[0]].layout[1])
            for keys in counts.values():
                for key in keys:
                    if key not in assignment:
                        assignment[key] = stable_hash(key) % n
        placed = []
        moved = 0
        for index, side in enumerate(sides):
            if index in kept:
                placed.append((side.partitions, side.live))
            else:
                buckets, live, count = self._bucketize(
                    side, n, assignment, counts[index]
                )
                placed.append((buckets, live))
                moved += count
        origin = _origin(node)
        stage = job.new_stage("shuffle", n, meta=node.meta, origin=origin)
        stage.shuffle_read_records = moved
        stage.shuffle_write_records = moved
        stage.shuffle_records_saved = sum(
            _credit_records(stage, parts, live) for parts, live in placed
        ) - moved
        if elision is None or moved:
            self._trace_shuffle(stage, origin)
        if elision is not None:
            self._record_elision(node, elision)
        layout = (node, assignment) if counts else sides[0].layout
        return stage, [parts for parts, _live in placed], layout

    def _key_counts(self, result, combined=False):
        """Records per key over the live partitions of ``result``.

        This pass is also where a shuffle checks the records it moves,
        once: bucketing and the reduce-side tasks (``keyed=True``) rely
        on it.  Not when the partitions are ``combined`` -- each a
        map-side combine's ``list(acc.items())``, pairs of hashable
        keys by construction.
        """
        parts = result.live_partitions()
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
            return collections.Counter(map(_KEY, flat(parts)))
        except TypeError:
            for record in flat(parts):
                require_hashable(record[0])
            raise

    def _bucketize(self, result, num_partitions, assignment, keys):
        """Hash-partition the keyed records of ``result`` into reduce
        buckets by ``assignment``; ``keys`` are the keys they hold.

        Charges the map-side shuffle write to the producing stage and
        returns ``(buckets, live, moved)``: ``live`` the buckets that
        received records, ascending -- only those get a list of their
        own -- and ``moved`` the number of records written to (and
        later read from) the shuffle.
        """
        buckets = [p.EMPTY_PARTITION] * num_partitions
        live = sorted(set(map(assignment.__getitem__, keys)))
        for index in live:
            buckets[index] = []
        for part in result.live_partitions():
            for record in part:
                buckets[assignment[record[0]]].append(record)
        moved = _credit_records(result.stage, result.partitions, result.live)
        return buckets, live, moved

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
            # stage so trace shapes match the unoptimized plan; unlike
            # the exchange's, its ledger holds the combined output.
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
        stage, (buckets,), layout = self._exchange(
            node, job, [combined], None, combined=True
        )
        records = stage.task_records
        out = self._combine_pass(
            CombineTask(node.fn, _origin(node), keyed=True),
            _Result(buckets, stage, records.live, layout),
            stage, ordinals.take(), sizes=records.amounts,
        )
        self._account_spill(stage)
        return out

    def _eval_group_by_key(self, node, job, child, ordinals):
        elision = choose_elision(node, child)
        stage, (parts,), layout = self._exchange(node, job, [child], elision)
        # Records left in place were never checked by a shuffle.
        return self._run_groups(
            GroupBucketTask, node, stage, parts, ordinals, layout,
            keyed=elision is None,
        )

    def _eval_cogroup(self, node, job, left, right, ordinals):
        # One reduce stage reads both sides (Spark schedules a single
        # reduce task set for a cogroup); each input record is credited
        # exactly once.
        stage, (lefts, rights), layout = self._exchange(
            node, job, [left, right], choose_elision(node, left, right)
        )
        # Only a pair that holds records is a tuple of its own.
        empty = p.EMPTY_PARTITION
        pairs = [(empty, empty)] * stage.num_tasks
        for index in stage.task_records.live:
            pairs[index] = (lefts[index], rights[index])
        return self._run_groups(
            CoGroupBucketTask, node, stage, pairs, ordinals, layout
        )

    def _run_groups(self, task_class, node, stage, inputs, ordinals,
                    layout, keyed=False):
        """Run the reduce set of a group (``task_class`` a
        :class:`GroupBucketTask`) over the exchange's ``stage``, whose
        record ledger says which ``inputs`` hold records; the output
        carries ``layout``."""
        records = stage.task_records
        task = task_class(
            self._stage_rate(stage),
            self.config.memory_overhead_factor,
            self._task_limit(records),
            _origin(node),
            keyed=keyed,
        )
        out, live = self.scheduler.run_stage(
            task, inputs, stage=stage, ordinal=ordinals.take(),
            sizes=records.amounts, live=records.live,
        )
        self._account_spill(stage)
        return _Result(out, stage, live, layout)

    def _task_limit(self, task_records):
        """Per-task memory budget given how many tasks run concurrently:
        those with records in the ledger ``task_records``."""
        amounts = task_records.amounts
        nonempty = len(amounts) - amounts.count(0)
        per_machine = -(-max(1, nonempty) // self.config.machines)
        return self.config.task_memory_limit_bytes(per_machine)

    # -- broadcast operators (narrow) ----------------------------------

    def _eval_broadcast_join(self, node, job, left, right, ordinals):
        self._ship_broadcast(
            node, job, node.right, right, "broadcast join build side",
            "join build side",
        )
        table = {}
        build = right.live_partitions()
        try:
            for part in build:
                for record in part:
                    require_keyed(record)
                    key, value = record
                    table.setdefault(key, []).append(value)
        except TypeError:
            for record in itertools.chain.from_iterable(build):
                require_hashable(record[0])
            raise
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
            stream, small_node, small = left, node.right, right
        else:
            stream, small_node, small = right, node.left, left
        self._ship_broadcast(
            node, job, small_node, small, "cross-product broadcast side",
            "cross-product side",
        )
        payload = list(itertools.chain.from_iterable(
            small.live_partitions()
        ))
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

    def _ship_broadcast(self, node, job, small_node, small, side, what):
        """Ship ``small``, the result of ``node``'s broadcast input
        ``small_node``: credit its records to its stage, check they fit
        (``side`` names them in the error), count them on ``job`` and
        emit a ``broadcast`` instant (``what`` names them in it)."""
        count = _credit_records(small.stage, small.partitions, small.live)
        meta = small_node.meta
        check_broadcast_fits(count, self.config, side, meta=meta)
        if meta:
            job.broadcast_meta_records += count
        else:
            job.broadcast_records += count
        if not self.tracer.enabled:
            return
        rate = (
            self.config.result_record_bytes
            if meta
            else self.config.bytes_per_record
        )
        origin = _origin(node)
        self.tracer.instant(
            "broadcast:%s" % origin,
            KIND_BROADCAST,
            lane=self.scheduler.dispatch_lane(),
            what=what,
            records=count,
            bytes=int(count * rate),
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
