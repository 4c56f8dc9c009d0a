"""The Bag: the engine's flat, distributed collection abstraction.

A ``Bag`` is the analog of a Spark RDD / Flink DataSet / Emma ``Bag``: an
immutable, partitioned, *unordered* collection with lazy, lineage-based
evaluation.  Transformations build plan nodes; actions (``collect``,
``count``, ``reduce`` ...) submit a job to the engine.

Keyed operators (``reduce_by_key``, ``join``, ``group_by_key`` ...) expect
elements to be ``(key, value)`` tuples, as in Spark's pair RDDs.
"""

import operator
from dataclasses import dataclass

from ..errors import PlanError
from . import plan as p


@dataclass(frozen=True)
class JoinHint:
    """Optimizer hints for ``Bag.join(strategy="auto")``.

    The paper suggests (Sec. 8.2) that instead of choosing join
    algorithms itself, Matryoshka could hand its extra knowledge --
    InnerScalar sizes known *before* they are computed, and the
    uniqueness of the tag key -- to the engine's optimizer as hints.
    This is that interface.

    Attributes:
        left_records / right_records: Known record counts of the inputs
            (at the records' own scale).
        unique_key: The join key is unique on the hinted side(s), so
            output cardinality is bounded by the larger input.
    """

    left_records: int = None
    right_records: int = None
    unique_key: bool = False


class Bag:
    """A lazy, partitioned collection bound to an
    :class:`~repro.engine.context.EngineContext`."""

    __slots__ = ("context", "node", "num_partitions")

    def __init__(self, context, node, num_partitions):
        self.context = context
        self.node = node
        self.num_partitions = num_partitions

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def _derive(self, node, num_partitions=None):
        if num_partitions is None:
            num_partitions = self.num_partitions
        if node.children:
            node.meta = all(child.meta for child in node.children)
        return Bag(self.context, node, num_partitions)

    def _default_partitions(self, num_partitions):
        if num_partitions is not None:
            if num_partitions < 1:
                raise PlanError("num_partitions must be >= 1")
            return num_partitions
        return self.context.config.default_parallelism

    def _same_context(self, other):
        if other.context is not self.context:
            raise PlanError("cannot combine bags from different contexts")

    # ------------------------------------------------------------------
    # Narrow transformations
    # ------------------------------------------------------------------

    def map(self, fn, preserves_partitioning=False):
        """Apply ``fn`` to every element.

        ``preserves_partitioning=True`` asserts that ``fn`` never
        rewrites the key slot of keyed records, letting the optimizer
        keep the input's partitioning property when the automatic AST
        proof is inconclusive (see :mod:`repro.analysis.properties`).
        """
        return self._derive(p.Map(self.node, fn, preserves_partitioning))

    def filter(self, fn):
        """Keep the elements for which ``fn`` is truthy."""
        return self._derive(p.Filter(self.node, fn))

    def flat_map(self, fn, preserves_partitioning=False):
        """Apply ``fn`` (returning an iterable) and flatten the results.

        See :meth:`map` for ``preserves_partitioning``.
        """
        return self._derive(
            p.FlatMap(self.node, fn, preserves_partitioning)
        )

    def map_partitions(self, fn, preserves_partitioning=False):
        """Apply ``fn(items, partition_index)`` to each whole partition.

        See :meth:`map` for ``preserves_partitioning``.
        """
        return self._derive(
            p.MapPartitions(self.node, fn, preserves_partitioning)
        )

    def map_values(self, fn):
        """Apply ``fn`` to the value of each ``(key, value)`` pair."""
        return self.map(lambda kv: (kv[0], fn(kv[1])))

    def key_by(self, fn):
        """Turn each element ``x`` into ``(fn(x), x)``."""
        return self.map(lambda x: (fn(x), x))

    def keys(self):
        return self.map(lambda kv: kv[0])

    def values(self):
        return self.map(lambda kv: kv[1])

    def swap(self):
        """Swap keys and values."""
        return self.map(lambda kv: (kv[1], kv[0]))

    def zip_with_unique_id(self):
        """Pair every element with a unique integer: ``(element, id)``."""
        return self._derive(p.ZipWithUniqueId(self.node))

    def sample(self, fraction, seed=0):
        """A reproducible Bernoulli sample of the bag.

        Each element is kept independently with probability
        ``fraction``; the decision depends only on the element's
        identity and the seed, so repeated evaluations (lineage
        recomputation) sample consistently.
        """
        if not 0.0 <= fraction <= 1.0:
            raise PlanError("sample fraction must be in [0, 1]")
        if fraction == 1.0:
            return self
        from .partitioner import stable_hash

        threshold = int(fraction * (2 ** 32))

        def keep(item):
            return stable_hash((seed, item)) % (2 ** 32) < threshold

        return self.filter(keep)

    def coalesce(self, num_partitions):
        """Reduce the partition count without a shuffle (narrow)."""
        if num_partitions >= self.num_partitions:
            return self
        node = p.Coalesce(self.node, num_partitions)
        node.meta = self.node.meta
        return Bag(self.context, node, num_partitions)

    def union(self, *others):
        """Bag union (duplicates preserved)."""
        for other in others:
            self._same_context(other)
        inputs = p.flatten_union_inputs(
            [self.node] + [other.node for other in others]
        )
        total = self.num_partitions + sum(o.num_partitions for o in others)
        return self._derive(p.Union(inputs), num_partitions=total)

    # ------------------------------------------------------------------
    # Wide (shuffling) transformations
    # ------------------------------------------------------------------

    def reduce_by_key(self, fn, num_partitions=None):
        """Combine values sharing a key with the associative ``fn``."""
        n = self._default_partitions(num_partitions)
        return self._derive(p.ReduceByKey(self.node, fn, n), n)

    def group_by_key(self, num_partitions=None):
        """Shuffle into ``(key, [values])`` groups.

        Each group is materialized as one in-memory list, so a group larger
        than executor memory raises a simulated OOM -- by design: this is
        the nested collection the outer-parallel workaround has to build.
        """
        n = self._default_partitions(num_partitions)
        return self._derive(p.GroupByKey(self.node, n), n)

    def group_by(self, key_fn, num_partitions=None):
        """``group_by_key`` with a key extractor (paper Sec. 4.6 split)."""
        return self.key_by(key_fn).group_by_key(num_partitions)

    def aggregate_by_key(self, zero, seq_fn, comb_fn,
                         num_partitions=None):
        """Spark's ``aggregateByKey``: fold values into per-key
        accumulators of a different type.

        Args:
            zero: Initial accumulator (must be immutable or cheap to
                rebuild; it is used by value).
            seq_fn: ``(accumulator, value) -> accumulator``.
            comb_fn: ``(accumulator, accumulator) -> accumulator``.
        """
        marked = self.map_values(lambda v: ("v", v))

        def merge(a, b):
            a_acc = a[1] if a[0] == "a" else seq_fn(zero, a[1])
            if b[0] == "a":
                return ("a", comb_fn(a_acc, b[1]))
            return ("a", seq_fn(a_acc, b[1]))

        reduced = marked.reduce_by_key(merge, num_partitions)
        return reduced.map_values(
            lambda tagged: tagged[1] if tagged[0] == "a" else seq_fn(
                zero, tagged[1]
            )
        )

    def count_by_key(self, num_partitions=None):
        """Per-key record counts: ``Bag[(key, int)]``."""
        ones = self.map(lambda kv: (kv[0], 1))
        return ones.reduce_by_key(lambda a, b: a + b, num_partitions)

    def cogroup(self, other, num_partitions=None):
        """Shuffle both bags by key into ``(k, ([lvals], [rvals]))``."""
        self._same_context(other)
        n = self._default_partitions(num_partitions)
        return self._derive(p.CoGroup(self.node, other.node, n), n)

    def join(self, other, strategy="repartition", num_partitions=None,
             hints=None):
        """Equi-join two keyed bags into ``(k, (v, w))`` pairs.

        Args:
            strategy: ``"repartition"`` shuffles both sides;
                ``"broadcast"`` ships the *other* bag to every executor
                (fails with simulated OOM when it does not fit);
                ``"broadcast_left"`` ships *this* bag instead (the build
                side is the left input); ``"auto"`` lets the engine's
                optimizer decide from known sizes (driver-provided data)
                and :class:`JoinHint`s -- the smaller side below the
                config's broadcast threshold is broadcast, with
                unknown-size sides treated as large.
            hints: Optional :class:`JoinHint` for ``"auto"``.
        """
        self._same_context(other)
        if strategy == "auto":
            strategy = self._choose_join_strategy(other, hints)
        if strategy == "broadcast":
            return self._derive(p.BroadcastJoin(self.node, other.node))
        if strategy == "broadcast_left":
            # BroadcastJoin always builds its hash table from the right
            # child, so stream `other` against a broadcast of this bag
            # and swap the value pairs back into (left, right) order.
            flipped = other._derive(
                p.BroadcastJoin(other.node, self.node)
            )
            return flipped.map_values(_swap_pair)
        if strategy != "repartition":
            raise PlanError("unknown join strategy: %r" % (strategy,))
        cogrouped = self.cogroup(other, num_partitions)
        return cogrouped.flat_map(_join_pairs)

    def _choose_join_strategy(self, other, hints):
        """The engine optimizer's broadcast decision (Catalyst-style).

        Either side may be the build side: a hinted or statically known
        left input below the threshold is broadcast just like a right
        one, and when both fit the smaller wins (ties go right, the
        cheaper plan -- no pair swap).
        """
        left_bytes = self._estimated_build_bytes(
            hints.left_records if hints else None, self
        )
        right_bytes = self._estimated_build_bytes(
            hints.right_records if hints else None, other
        )
        threshold = self.context.config.auto_broadcast_threshold_bytes
        left_fits = left_bytes is not None and left_bytes <= threshold
        right_fits = right_bytes is not None and right_bytes <= threshold
        if right_fits and (not left_fits or right_bytes <= left_bytes):
            return "broadcast"
        if left_fits:
            return "broadcast_left"
        return "repartition"

    def _estimated_build_bytes(self, hinted_records, side):
        """Estimated size of one join side, or None when unknown."""
        records = hinted_records
        if records is None:
            records = p.static_record_count(side.node)
        if records is None:
            return None
        rate = (
            self.context.config.result_record_bytes
            if side.is_meta
            else self.context.config.bytes_per_record
        )
        return records * rate

    def left_outer_join(self, other, num_partitions=None):
        """Join keeping left records without a match: ``(k, (v, None))``."""
        self._same_context(other)
        cogrouped = self.cogroup(other, num_partitions)
        return cogrouped.flat_map(_left_outer_pairs)

    def subtract_by_key(self, other, num_partitions=None):
        """Keep left pairs whose key does not occur in ``other``."""
        self._same_context(other)
        cogrouped = self.cogroup(other, num_partitions)
        return cogrouped.flat_map(_subtract_pairs)

    def distinct(self, num_partitions=None):
        """Remove duplicate elements."""
        marked = self.map(lambda x: (x, None))
        reduced = marked.reduce_by_key(lambda a, _b: a, num_partitions)
        return reduced.keys()

    def cross(self, other, broadcast_side="right"):
        """Cross product, broadcasting one side (paper Sec. 8.3)."""
        self._same_context(other)
        node = p.CrossBroadcast(self.node, other.node, broadcast_side)
        if broadcast_side == "right":
            n = self.num_partitions
        else:
            n = other.num_partitions
        return self._derive(node, n)

    # ------------------------------------------------------------------
    # Persistence / labeling
    # ------------------------------------------------------------------

    def cache(self):
        """Materialize this bag on first use and reuse it afterwards."""
        self.node.cached = True
        return self

    def uncache(self):
        """Release this bag's cached partitions and their layout.

        Beyond un-flagging the node, this drops the materialized
        partitions and the shuffle layout they were built with, so a
        long-lived context retains neither.  Subsequent jobs recompute
        from lineage as usual.
        """
        self.node.cached = False
        self.node.materialized = None
        self.node.layout = None
        return self

    def as_meta(self):
        """Mark this bag's records as meta-scale for cost accounting.

        Meta records (per-group scalars, tags, trained models) are
        summary-sized in the real system regardless of the input record
        scale; marking them prevents the simulation from charging them as
        if each stood for gigabytes of data.
        """
        self.node.meta = True
        return self

    @property
    def is_meta(self):
        return self.node.meta

    def with_label(self, label):
        """Attach a label shown by ``explain()`` and in job traces."""
        self.node.label = label
        return self

    def explain(self, compact=False, properties=False, effects=False,
                compile=False, schema=False):
        """Textual rendering of this bag's plan tree.

        Every node carries a stable ``#id`` and an inferred partition
        count; ``compact=True`` renders one line per node with child
        references instead of the indented tree.  The same ids appear
        in ``repro.analysis`` plan diagnostics.

        ``properties=True`` additionally annotates nodes with their
        inferred partitioning property (:mod:`repro.analysis
        .properties`): ``[hash(k0)]`` for a fresh shuffle layout,
        ``[hash(k0) via #N]`` for a layout inherited from the shuffle
        with id ``N`` (an elided or adoptable shuffle), and
        ``[drops hash(k0)]`` on the node that destroyed a provable
        layout.

        ``effects=True`` annotates every UDF-carrying node with its
        effect verdicts (:mod:`repro.analysis.effects`): three
        tokens for purity, determinism, and I/O -- e.g.
        ``[pure det io-free]`` when all proven, ``[pure? nondet io?]``
        with ``?`` marking unknown and the bare negative a refutation.

        ``compile=True`` annotates the top of every fused elementwise
        chain with ``compiled=yes(<key>; lowered k/n[, fields m][;
        <operator>: <reason>]...)`` or ``compiled=no(<reason>)`` --
        whether the chain *may* run as a generated specialized loop,
        how many of its UDFs the loop would substitute for their call
        (and why each other one keeps it), and if not, why it stays on
        the interpreter.  Under a ``reduce_by_key`` the chain's task is
        the map-side combine too, and the note ends in ``fold lowered``
        or ``fold called: <reason>``.  ``yes`` is the compile gate's verdict, not a
        promise: the executor only compiles a chain whose task set is
        large enough (steps x input records reaches
        :data:`repro.engine.codegen.COMPILE_MIN_RECORD_STEPS`), and a
        smaller one is interpreted whatever the gate says.

        ``schema=True`` annotates every node with its inferred record
        schema (:mod:`repro.analysis.schema`): ``schema=(int, float)``
        for a proven fixed-arity tuple, ``schema=int`` for a proven
        scalar, ``schema=?`` where inference gave up.  Flags compose;
        a node's annotations always render in the fixed order
        properties, effects, compile, schema.
        """
        notes = None
        if properties:
            from ..analysis.properties import partitioning_notes

            notes = partitioning_notes(self.node)

        def _merge(extra):
            nonlocal notes
            if notes is None:
                notes = extra
                return
            for key, text in extra.items():
                notes[key] = (
                    "%s; %s" % (notes[key], text)
                    if notes.get(key) else text
                )

        if effects:
            from ..analysis.effects import effects_notes

            _merge(effects_notes(self.node))
        if compile:
            from .codegen import compile_notes

            _merge(compile_notes(self.node))
        if schema:
            from ..analysis.schema import schema_notes

            _merge(schema_notes(self.node))
        if compact:
            return p.explain_compact(self.node, notes=notes)
        ids = p.assign_node_ids(self.node)
        parts = p.partition_counts(self.node)
        return self.node.explain(ids=ids, parts=parts, notes=notes)

    # ------------------------------------------------------------------
    # Actions (each runs one job)
    # ------------------------------------------------------------------

    def collect(self, label="", lint=None):
        """Materialize all elements to the driver as a list.

        Args:
            label: Optional job label for traces.
            lint: Run the ``repro.analysis`` plan lint before
                submitting.  ``"warn"`` emits findings as warnings;
                ``"error"`` (or ``True``) additionally raises
                :class:`~repro.errors.AnalysisError` on error-severity
                findings; ``"strict"`` raises on any finding.  Default
                ``None`` skips the lint.
        """
        if lint:
            self._lint_plan(lint)
        return self.context.executor.collect(self.node, label)

    def _lint_plan(self, mode):
        import warnings

        from ..analysis import analyze_bag
        from ..analysis.diagnostics import ERROR
        from ..errors import AnalysisError

        if mode is True:
            mode = "error"
        if mode not in ("warn", "error", "strict"):
            raise PlanError(
                "lint must be 'warn', 'error', 'strict', or True; "
                "got %r" % (mode,)
            )
        diags = analyze_bag(self)
        if not diags:
            return
        fatal = (
            diags if mode == "strict"
            else [d for d in diags if d.severity == ERROR]
        )
        if mode != "strict":
            for diag in diags:
                if diag.severity != ERROR:
                    warnings.warn(str(diag), stacklevel=3)
        if fatal and mode != "warn":
            raise AnalysisError(fatal)
        if mode == "warn":
            for diag in fatal:
                warnings.warn(str(diag), stacklevel=3)

    def collect_as_map(self, label=""):
        """Collect a keyed bag into a ``dict`` (last write wins)."""
        return dict(self.collect(label))

    def count(self, label=""):
        """Number of elements."""
        return self.context.executor.count(self.node, label)

    def save(self, label=""):
        """Write to distributed storage (no driver round-trip).

        This is the paper's *output operation*; returns the record count
        written.
        """
        return self.context.executor.save(self.node, label)

    def is_empty(self, label=""):
        return self.count(label) == 0

    def reduce(self, fn, label=""):
        """Reduce all elements with ``fn`` (errors on an empty bag)."""
        return self.context.executor.reduce(self.node, fn, label)

    def fold(self, zero, fn, label=""):
        """Fold all elements starting from ``zero``."""
        return self.context.executor.fold(self.node, zero, fn, label)

    def sum(self, label=""):
        return self.fold(0, operator.add, label)

    def take(self, n, label=""):
        """Up to ``n`` elements.

        Truncates each partition to its first ``n`` records before
        collecting (as Spark's ``take`` scans a bounded prefix), so only
        ``n x partitions`` records ever reach the driver -- taking a few
        elements of a bag far larger than driver memory must not OOM.
        """
        if n <= 0:
            return []

        def head(items, _index):
            return items[:n]

        return self.map_partitions(head).collect(label)[:n]

    def top(self, n, key=None, label=""):
        """The ``n`` largest elements, descending.

        Computed with per-partition heaps followed by a driver merge
        (Spark's ``top``), so only ``n`` records per partition move.
        """
        import heapq

        def partials(items, _index):
            return heapq.nlargest(n, items, key=key)

        candidates = self.map_partitions(partials).collect(label)
        return heapq.nlargest(n, candidates, key=key)

    def min(self, key=None, label=""):
        return self.reduce(
            lambda a, b: a if (key or _identity)(a) <= (
                key or _identity
            )(b) else b,
            label,
        )

    def max(self, key=None, label=""):
        return self.reduce(
            lambda a, b: a if (key or _identity)(a) >= (
                key or _identity
            )(b) else b,
            label,
        )


def _identity(x):
    return x


def _swap_pair(vw):
    return (vw[1], vw[0])


def _join_pairs(record):
    _key, (left_values, right_values) = record
    return [
        (_key, (v, w)) for v in left_values for w in right_values
    ]


def _left_outer_pairs(record):
    key, (left_values, right_values) = record
    if not right_values:
        return [(key, (v, None)) for v in left_values]
    return [(key, (v, w)) for v in left_values for w in right_values]


def _subtract_pairs(record):
    key, (left_values, right_values) = record
    if right_values:
        return []
    return [(key, v) for v in left_values]
