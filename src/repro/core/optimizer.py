"""The lowering-phase runtime optimizer (paper Sec. 8).

The two-phase flattening exists so that these decisions can be made *at
runtime*, when the sizes of the bags representing InnerScalars are known.
The optimizer exploits the paper's key observation (Sec. 8.1): every
InnerScalar inside a lifted UDF has exactly one element per tag, and the
number of tags is known when the lifted UDF starts.  Three decisions hang
off that:

* partition counts for InnerScalar-sized bags (Sec. 8.1);
* broadcast vs. repartition for InnerBag-InnerScalar joins (Sec. 8.2);
* which side of a half-lifted ``mapWithClosure`` cross product to
  broadcast (Sec. 8.3).
"""

import weakref
from dataclasses import dataclass

from ..engine import plan as engine_plan
from ..engine.optimize import Decision


@dataclass(frozen=True)
class LoweringConfig:
    """Strategy overrides for the lowering phase.

    The defaults (``"auto"``) enable the paper's runtime optimizer.  Fixing
    a strategy emulates a system that must commit at compile time (as DIQL
    and MRQL do) -- the ablation benchmarks for Fig. 8 use this.

    Attributes:
        join_strategy: ``"auto"``, ``"broadcast"``, or ``"repartition"``
            for joins between InnerBags/InnerScalars and InnerScalars.
            ``"hints"`` implements the paper's suggested alternative
            (Sec. 8.2): instead of deciding itself, Matryoshka passes
            the known InnerScalar size and key uniqueness to the
            *engine's* optimizer as a :class:`~repro.engine.JoinHint`.
        cross_side: ``"auto"``, ``"scalar"`` (always broadcast the
            InnerScalar side), or ``"primary"`` (always broadcast the
            primary input) for half-lifted ``mapWithClosure``.
        partition_policy: ``"auto"`` sizes partition counts to InnerScalar
            cardinalities; ``"default"`` always uses the engine default.
    """

    join_strategy: str = "auto"
    cross_side: str = "auto"
    partition_policy: str = "auto"

    def __post_init__(self):
        if self.join_strategy not in (
            "auto", "broadcast", "repartition", "hints"
        ):
            raise ValueError(
                "bad join_strategy: %r" % (self.join_strategy,)
            )
        if self.cross_side not in ("auto", "scalar", "primary"):
            raise ValueError("bad cross_side: %r" % (self.cross_side,))
        if self.partition_policy not in ("auto", "default"):
            raise ValueError(
                "bad partition_policy: %r" % (self.partition_policy,)
            )


class Optimizer:
    """Makes the Sec. 8 physical-operator choices for one engine context."""

    def __init__(self, engine, lowering=None):
        self.engine = engine
        self.lowering = lowering if lowering is not None else LoweringConfig()
        self.decisions = []
        # Keyed by the node itself, held weakly: a freed node's entry
        # goes with it, so no later node can read its count.
        self._count_cache = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------------
    # Sec. 8.1: partition counts from InnerScalar sizes
    # ------------------------------------------------------------------

    def scalar_partitions(self, num_tags):
        """Partition count for a bag holding one record per tag.

        Small bags get few partitions (avoiding the per-partition overhead
        the paper cites from [37]); large bags get the engine default.
        """
        default = self.engine.config.default_parallelism
        if self.lowering.partition_policy == "default":
            return default
        return max(1, min(default, num_tags))

    # ------------------------------------------------------------------
    # Sec. 8.2: InnerBag-InnerScalar join strategy
    # ------------------------------------------------------------------

    def scalar_join_strategy(self, num_tags):
        """Broadcast vs. repartition for joining against an InnerScalar.

        The paper's rule: repartition only when the InnerScalar has enough
        elements to give work to all CPU cores; otherwise broadcast.
        """
        if self.lowering.join_strategy != "auto":
            choice = self.lowering.join_strategy
        elif num_tags >= self.engine.config.total_cores:
            choice = "repartition"
        else:
            choice = "broadcast"
        self.decisions.append(Decision("scalar-join", choice, num_tags))
        return choice

    def join_with_scalar(self, left_bag, scalar):
        """Equi-join a tagged bag with an InnerScalar's representation.

        Returns a bag of ``(tag, (left_value, scalar_value))``.
        """
        if self.lowering.join_strategy == "hints":
            return self._join_via_engine_hints(left_bag, scalar)
        strategy = self.scalar_join_strategy(scalar.lctx.num_tags)
        if strategy == "broadcast":
            return left_bag.join(scalar.repr, strategy="broadcast")
        return left_bag.join(
            scalar.repr,
            strategy="repartition",
            num_partitions=self.join_partitions(left_bag, scalar),
        )

    def _join_via_engine_hints(self, left_bag, scalar):
        """Sec. 8.2's suggested integration: hand the InnerScalar's size
        (known before it is computed) and its key uniqueness to the
        engine optimizer and let *it* pick the join algorithm."""
        from ..engine import JoinHint

        hint = JoinHint(
            right_records=scalar.lctx.num_tags, unique_key=True
        )
        self.decisions.append(
            Decision("scalar-join", "hints", scalar.lctx.num_tags)
        )
        return left_bag.join(
            scalar.repr,
            strategy="auto",
            num_partitions=self.join_partitions(left_bag, scalar),
            hints=hint,
        )

    def join_partitions(self, left_bag, scalar):
        """Partitions for a repartition join against an InnerScalar."""
        if self.lowering.partition_policy == "default":
            return self.engine.config.default_parallelism
        return max(
            self.scalar_partitions(scalar.lctx.num_tags),
            min(
                left_bag.num_partitions,
                self.engine.config.default_parallelism,
            ),
        )

    # ------------------------------------------------------------------
    # Sec. 8.3: half-lifted mapWithClosure broadcast side
    # ------------------------------------------------------------------

    def cross_broadcast_side(self, primary_bag, scalar):
        """Which side of the half-lifted cross product to broadcast.

        Follows the paper exactly: if the InnerScalar occupies a single
        partition, broadcast it (the quick check that is also the common
        case thanks to Sec. 8.1); otherwise compare estimated sizes and
        broadcast the smaller side.
        """
        if self.lowering.cross_side == "scalar":
            choice = "scalar"
        elif self.lowering.cross_side == "primary":
            choice = "primary"
        elif self.scalar_partitions(scalar.lctx.num_tags) == 1:
            choice = "scalar"
        else:
            # Spark-SizeEstimator equivalent: compare estimated *bytes*
            # of the two inputs and broadcast the smaller one.
            config = self.engine.config
            scalar_bytes = (
                scalar.lctx.num_tags * config.result_record_bytes
            )
            primary_rate = (
                config.result_record_bytes
                if primary_bag.is_meta
                else config.bytes_per_record
            )
            primary_bytes = (
                self.estimate_count(primary_bag) * primary_rate
            )
            choice = (
                "scalar" if scalar_bytes <= primary_bytes else "primary"
            )
        self.decisions.append(
            Decision("cross-side", choice, scalar.lctx.num_tags)
        )
        return choice

    def estimate_count(self, bag):
        """Record count of a bag, as Spark's SizeEstimator would obtain it.

        Free when the bag is driver-provided data; otherwise counted once
        and memoized (the count job is charged to the trace -- estimating
        a distributed dataset's size is not free in reality either).
        """
        node = bag.node
        if node in self._count_cache:
            return self._count_cache[node]
        if isinstance(node, engine_plan.Parallelize):
            count = len(node.data)
        else:
            count = bag.count(label="optimizer size estimate")
        self._count_cache[node] = count
        return count

    def decisions_of_kind(self, kind):
        return [d for d in self.decisions if d.kind == kind]
