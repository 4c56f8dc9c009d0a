"""Layer probes: time each layer's public functions from outside.

A probe replays one layer's public entry point on a fixed input made
from the seed, or on what a workload's op left behind (its plan root
and its executed context), and reports the median of ``CALLS`` calls.
Each probe records one span under the traced pass's ``probes`` span.
"""

import collections
import dataclasses
import statistics

from repro.analysis import infer_properties, infer_schemas, plan_effects
from repro.data import grouped_edges
from repro.engine import (
    ClusterConfig,
    ColumnarPartition,
    EngineContext,
    HashPartitioner,
    validate_trace,
)
from repro.engine.codegen import clear_compiled_cache, plan_compiled_task
from repro.engine.dag import plan_units
from repro.engine.optimize import plan_auto_caches, plan_shuffle_elisions
from repro.engine.partitioner import build_balanced_assignment
from repro.engine.runtime import serde
from repro.engine.runtime.backends import shutdown_pools
from repro.engine.runtime.task import (
    STEP_FILTER,
    STEP_MAP,
    FusedPipelineTask,
)
from repro.lang import parse_udf
from repro.observe import entry_from_context
from repro.serve import JobQueue, PendingJob, TenantConfig
from repro.tasks import bounce_rate, kmeans, pagerank

from spans import now
from workloads import CHAIN_STEPS, build_chain, chain_output, chain_records

CALLS = 20
PARTITION_RECORDS = 16384
DISPATCH_TASKS = 2000
QUEUE_JOBS = 10000


def timed(fn):
    start = now()
    fn()
    return now() - start


def median_s(fn, calls=CALLS):
    return statistics.median(timed(fn) for _ in range(calls))


def ident(x):
    return x


def staged_step(x, limit):
    """A UDF with the control flow the parsing phase rewrites."""
    total = 0
    while total < limit:
        if x > total:
            total = total + x
        else:
            total = total + 1
    return total


def chain_steps():
    """The chain as the ``(kind, fn, operator)`` triples tasks carry."""
    return [
        (STEP_MAP if kind == "map" else STEP_FILTER, fn, kind)
        for kind, fn in CHAIN_STEPS
    ]


def chain_partition(seed):
    """One partition of the chain's keyed output records."""
    return list(chain_output(chain_records(seed, PARTITION_RECORDS)))


def dispatch(ctx):
    return ctx.range_bag(
        DISPATCH_TASKS, num_partitions=DISPATCH_TASKS
    ).map(ident).count()


class Probes:
    def __init__(self, spans, parent, seed):
        self.spans = spans
        self.parent = parent
        self.seed = seed

    def span(self, layer):
        return self.spans.span("probe:" + layer, parent=self.parent)

    def cold(self):
        """Probes of memo caches that fill on first use; they run
        before anything else touches the engine in this process."""
        metrics = {}
        ctx = EngineContext(ClusterConfig())
        # Building PageRank runs jobs, but on the default config, which
        # calls neither analysis: both are still cold for both roots.
        roots = [
            build_chain(ctx, chain_records(self.seed, 4096)).node,
            pagerank.pagerank_nested(
                ctx.bag_of(grouped_edges(4, 512, seed=self.seed)),
                iterations=2,
            ).node,
        ]
        for layer, name, fn in (
            ("analysis.effects", "plan_effects", plan_effects),
            ("analysis.schema", "infer_schemas", infer_schemas),
        ):
            with self.span(layer):
                prefix = "%s.%s" % (layer, name)
                metrics[prefix + "_first_ms"] = 1e3 * timed(
                    lambda: [fn(root) for root in roots]
                )
                metrics[prefix + "_warm_ms"] = 1e3 * median_s(
                    lambda: [fn(root) for root in roots]
                )
        with self.span("analysis.properties"):
            metrics["analysis.properties.infer_properties_ms"] = (
                1e3 * median_s(
                    lambda: [infer_properties(root) for root in roots]
                )
            )
        ctx.close()
        with self.span("engine.codegen"):
            steps = chain_steps()
            clear_compiled_cache()
            metrics["engine.codegen.compile_cold_ms"] = 1e3 * timed(
                lambda: plan_compiled_task(steps)
            )
            metrics["engine.codegen.compile_hit_us"] = 1e6 * median_s(
                lambda: plan_compiled_task(steps)
            )
        return metrics

    def warm(self, ctx, root):
        """Everything else; ``ctx`` ran the workload's op, ``root`` is
        the op's plan root."""
        metrics = {}
        for layer, name, fn in (
            ("engine.costmodel", "trace_cost_ms",
             lambda: ctx.cost_model.trace_cost(ctx.trace)),
            ("engine.validate", "validate_trace_ms",
             lambda: validate_trace(ctx.trace)),
            ("observe.report", "entry_ms",
             lambda: entry_from_context(ctx, "probe", 0)),
            ("engine.dag", "plan_units_ms", lambda: plan_units(root)),
            ("engine.optimize", "plan_elisions_ms",
             lambda: plan_shuffle_elisions(root)),
            ("engine.optimize", "plan_auto_caches_ms",
             lambda: plan_auto_caches(root)),
            ("lang.ast_parser", "parse_udf_ms", lambda: [
                parse_udf(fn) for fn in (
                    bounce_rate.bounce_rate_group_udf,
                    kmeans.centroid_shift, kmeans.squared_distance,
                    staged_step,
                )
            ]),
        ):
            with self.span(layer):
                metrics["%s.%s" % (layer, name)] = 1e3 * median_s(fn)
        part = chain_partition(self.seed)
        metrics.update(self.dispatch())
        metrics.update(self.serde(part))
        metrics.update(self.partitioner(part))
        metrics.update(self.columnar(part))
        metrics.update(self.queue())
        return metrics

    def dispatch(self):
        with self.span("engine.runtime.scheduler"):
            with EngineContext(ClusterConfig()) as ctx:
                serial = median_s(lambda: dispatch(ctx))
        with self.span("engine.runtime.backends"):
            config = dataclasses.replace(
                ClusterConfig(), backend="process", num_workers=2
            )
            try:
                with EngineContext(config) as ctx:
                    first = timed(lambda: dispatch(ctx))
                    pooled = median_s(lambda: dispatch(ctx), calls=3)
            finally:
                shutdown_pools()
        scale = 1e6 / DISPATCH_TASKS
        return {
            "engine.runtime.scheduler.serial_dispatch_us_per_task":
                serial * scale,
            "engine.runtime.backends.process_dispatch_us_per_task":
                pooled * scale,
            "engine.runtime.backends.pool_start_s": max(0.0, first - pooled),
        }

    def serde(self, part):
        with self.span("engine.runtime.serde"):
            task = FusedPipelineTask(chain_steps())
            payload = serde.dumps(task)
            part_bytes = len(serde.dumps(part))
            return {
                "engine.runtime.serde.task_dumps_us":
                    1e6 * median_s(lambda: serde.dumps(task)),
                "engine.runtime.serde.task_loads_us":
                    1e6 * median_s(lambda: serde.loads(payload)),
                "engine.runtime.serde.task_payload_bytes": len(payload),
                "engine.runtime.serde.partition_dumps_mb_s":
                    part_bytes / 1e6 / median_s(lambda: serde.dumps(part)),
            }

    def partitioner(self, part):
        with self.span("engine.partitioner"):
            counts = collections.Counter(key for key, _value in part)
            splitter = HashPartitioner(1200)
            return {
                "engine.partitioner.split_mrec_s":
                    len(part) / 1e6 / median_s(lambda: splitter.split(part)),
                "engine.partitioner.balanced_assignment_ms":
                    1e3 * median_s(
                        lambda: build_balanced_assignment(counts, 1200)
                    ),
            }

    def columnar(self, part):
        with self.span("engine.columnar"):
            encoded = ColumnarPartition.from_records(part)
            return {
                "engine.columnar.encode_mrec_s": len(part) / 1e6 / median_s(
                    lambda: ColumnarPartition.from_records(part)
                ),
                "engine.columnar.decode_mrec_s":
                    len(part) / 1e6 / median_s(encoded.to_records),
                "engine.columnar.bytes_per_record":
                    encoded.nbytes / len(part),
            }

    def queue(self):
        with self.span("serve.queue"):
            queue = JobQueue(max_depth=QUEUE_JOBS)
            queue.add_tenant(TenantConfig("probe"))

            def cycle():
                for ticket in range(QUEUE_JOBS):
                    queue.submit(PendingJob(ticket, "probe", ident))
                    queue.take()
                    queue.task_done()

            return {"serve.queue.submit_take_us":
                    1e6 * median_s(cycle, calls=3) / QUEUE_JOBS}
