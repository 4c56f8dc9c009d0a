"""The four closed-loop workloads of the wall-clock benchmark.

Every workload offers the same surface to ``run.py``:

* ``prepare(seed)`` -- generate inputs from the seed, build reference
  answers, start whatever must be running (the serve daemon);
* ``measure(ops, spans)`` -- run that many ops back to back (serve: in
  whole bursts) and return a :class:`Pass`;
* ``layer_metrics(pass_)`` -- the per-layer numbers read off the ops;
* ``captured()`` -- an executed context and a plan root for the probes;
* ``close()``.

Only public ``repro`` names are used, and the UDFs are this module's
own, so an engine refactor cannot silently change what is measured.
"""

import dataclasses
import gc
import itertools
import math
import os
import random
import resource
import statistics
import threading
import time
import traceback

from repro.data import (
    grouped_edges,
    grouped_points,
    initial_centroids,
    visits_log,
)
from repro.engine import ClusterConfig, EngineContext
from repro.serve import AdmissionRejected, JobService, program
from repro.tasks import bounce_rate, kmeans, pagerank

from spans import OFF, now

#: Ops run (and checked) before the timed pass: fills the codegen and
#: analysis memo caches.  Their time is set-up, not op time.
WARMUP_OPS = 5

#: Tolerance ``tests/tasks`` uses for centroids and ranks.
TOLERANCE = 1e-9

#: Counters that must repeat exactly from op to op on a batch workload.
EXACT = ("tasks", "stages", "jobs", "shuffle")


@dataclasses.dataclass
class Pass:
    """One measured pass: per-op facts of the ops that completed
    correctly, how many were attempted and failed, the pass's wall
    scaled to the reference host, and the host spins the scaling used."""

    ops: list
    attempted: int
    failed: int
    elapsed_s: float
    spins: list

    def __add__(self, other):
        return Pass(
            self.ops + other.ops, self.attempted + other.attempted,
            self.failed + other.failed, self.elapsed_s + other.elapsed_s,
            self.spins + other.spins,
        )


def percentile(values, q):
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb():
    """``ru_maxrss`` of this process plus that of its largest child."""
    return sum(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024


def end_to_end(pass_, setup_s):
    """The end-to-end metrics of one untraced pass."""
    walls = [op["wall"] for op in pass_.ops]
    return {
        "op_wall_s_p50": statistics.median(walls),
        "op_wall_s_p90": percentile(walls, 0.9),
        "ops_per_s": len(walls) / pass_.elapsed_s,
        "failed_share": pass_.failed / pass_.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def describe_config(config):
    """The resolved execution knobs (the cluster's sizes stay default)."""
    knobs = {
        key: value
        for key, value in dataclasses.asdict(config).items()
        if isinstance(value, (bool, str))
    }
    knobs["default_parallelism"] = config.default_parallelism
    return "ClusterConfig %s" % knobs


def ranks_close(got, want):
    return set(got) == set(want) and all(
        abs(got[v] - want[v]) < TOLERANCE for v in want
    )


def group_locally(records):
    groups = {}
    for key, value in records:
        groups.setdefault(key, []).append(value)
    return groups


def layer_metrics(ops, count):
    """Per-layer numbers every workload reads off its ops.

    ``count`` folds the per-op counters: the median on batch workloads
    (every op is identical, so it is the exact count), the mean on
    serve (ops are a mix of programs).
    """
    exec_s = sum(op["exec_s"] for op in ops)
    task_s = sum(op["task_s"] for op in ops)
    tasks = sum(op["tasks"] for op in ops)
    return {
        "engine.runtime.task_seconds_share": task_s / exec_s,
        "engine.runtime.driver_us_per_task":
            (exec_s - task_s) / max(1, tasks) * 1e6,
        "engine.metrics.tasks_per_op": count(op["tasks"] for op in ops),
        "engine.metrics.stages_per_op": count(op["stages"] for op in ops),
        "engine.metrics.jobs_per_op": count(op["jobs"] for op in ops),
        "engine.metrics.shuffle_records_per_op":
            count(op["shuffle"] for op in ops),
        "engine.codegen.compiled_chains":
            count(op["compiled"] for op in ops),
        "engine.codegen.fallback_chains":
            count(op["fallback"] for op in ops),
        "engine.columnar.commit_decisions":
            count(op["commits"] for op in ops),
    }


def engine_facts(jobs, decisions):
    """What the engine's own trace says one op did."""
    stages = [stage for job in jobs for stage in job.stages]
    compiles = [d for d in decisions if d.kind == "compiled-pipeline"]
    return {
        "task_s": sum(job.measured_task_seconds for job in jobs),
        "tasks": sum(stage.num_tasks for stage in stages),
        "stages": len(stages),
        "jobs": len(jobs),
        "shuffle": sum(job.total_shuffle_records for job in jobs),
        "compiled": sum(d.choice == "compile" for d in compiles),
        "fallback": sum(d.choice != "compile" for d in compiles),
        "commits": sum(
            d.kind == "columnar-commit" and d.choice == "commit"
            for d in decisions
        ),
    }


# ----------------------------------------------------------------------
# Batch workloads: one op = fresh context -> program -> close
# ----------------------------------------------------------------------


class Batch:
    """A workload whose op opens a context, runs a program and closes."""

    def __init__(self, name, config):
        self.name = name
        self.config = config
        self.exact = None
        self.last = None

    def describe(self):
        return describe_config(self.config)

    def prepare(self, seed):
        raise NotImplementedError

    def program(self, ctx, child):
        """Build and run on ``ctx``; ``child(name)`` opens a span under
        the op.  Returns ``(result, plan_root)``."""
        raise NotImplementedError

    def check(self, result):
        raise NotImplementedError

    def run_op(self, spans=OFF, op=None, trace=None):
        """One op; returns ``(wall_s, result, plan_root, ctx)``."""
        gc.collect()
        start = now()
        with spans.span("op", op=op) as sid:

            def child(name):
                return spans.span(name, parent=sid, op=op)

            with child("context_open"):
                ctx = EngineContext(self.config, trace=trace)
            try:
                result, root = self.program(ctx, child)
            finally:
                with child("context_close"):
                    ctx.close()
        return now() - start, result, root, ctx

    def checked_op(self, spans, attempt):
        """One op and what the engine's trace says it did, or ``None``
        if it raised, returned a wrong result or broke an exact count."""
        try:
            wall, result, root, ctx = self.run_op(spans, attempt)
        except Exception:  # a failed op is counted, not fatal
            traceback.print_exc()
            return None
        facts = engine_facts(ctx.trace.jobs, ctx.optimizer_decisions)
        exact = {key: facts[key] for key in EXACT}
        if attempt == 1:
            # Costing a trace takes time in proportion to its tasks;
            # once a pass is enough for an invariant.
            exact["sim_s"] = ctx.simulated_seconds()
        if self.exact is None:
            self.exact = exact
        if not (self.check(result) and exact.items() <= self.exact.items()):
            return None
        self.last = (ctx, root)
        return dict(facts, exec_s=wall)

    def measure(self, ops, spans=OFF):
        done, elapsed, spins = [], 0.0, [host_spin()]
        for attempt in range(1, ops + 1):
            begin = now()
            op = self.checked_op(spans, attempt)
            lap = now() - begin
            spins.append(host_spin())
            # Seconds as on the reference host, by the spins before and
            # after.  The pass's wall is its laps: the ops and what the
            # benchmark does between them, but not the spins.
            steady = REFERENCE_SPIN_S / statistics.fmean(spins[-2:])
            elapsed += lap * steady
            if op is not None:
                done.append(dict(op, wall=op["exec_s"] * steady))
        return Pass(done, ops, ops - len(done), elapsed, spins)

    def layer_metrics(self, pass_):
        metrics = layer_metrics(pass_.ops, statistics.median)
        metrics["engine.costmodel.sim_seconds_per_op"] = self.exact["sim_s"]
        return metrics

    def tracer_overhead(self, pairs=10):
        """Cost of the engine's own tracer on this workload's op:
        alternating pairs of one op with ``trace="memory"`` and off."""
        on, off, events = [], [], []
        for pair in range(pairs):
            for traced in ((True, False), (False, True))[pair % 2]:
                wall, _result, _root, ctx = self.run_op(
                    trace="memory" if traced else None
                )
                (on if traced else off).append(wall)
                if traced:
                    events.append(
                        len(ctx.tracer.events())
                        + getattr(ctx.tracer.sink, "dropped", 0)
                    )
        return {
            "observe.tracer.overhead_ratio":
                statistics.median(on) / statistics.median(off),
            "observe.tracer.events_per_op": statistics.median(events),
        }

    def captured(self):
        return self.last

    def close(self):
        pass


class NestedSerial(Batch):
    """Two flattened paper tasks back to back: K-means (a lifted loop)
    and bounce rate (a lifted group UDF).  ``pagerank_nested`` alone is
    55k tasks and 0.37 s, which 110 ops cannot afford; the serve
    workload runs it."""

    TIMED_OPS = 110
    GROUPS = 4
    POINTS = 2048
    K = 4
    VISITS = 2048

    def __init__(self):
        super().__init__("nested_serial", ClusterConfig())

    def describe(self):
        return "%s; %d groups: %d points (K=%d), %d visits" % (
            describe_config(self.config), self.GROUPS, self.POINTS,
            self.K, self.VISITS,
        )

    def prepare(self, seed):
        self.configs = initial_centroids(self.K, self.GROUPS, seed=seed)
        self.points = grouped_points(
            self.GROUPS, self.POINTS, self.K, seed=seed
        )
        self.visits = visits_log(self.GROUPS, self.VISITS, seed=seed)
        # Reference: the inner-parallel forms, one job chain per group.
        with EngineContext(ClusterConfig()) as ctx:
            self.reference = (
                dict(kmeans.kmeans_inner(
                    ctx, group_locally(self.points), self.configs,
                    max_iterations=1, tolerance=None,
                )),
                dict(bounce_rate.bounce_rate_inner(
                    ctx, group_locally(self.visits)
                )),
            )

    def program(self, ctx, child):
        # The lifted loops launch jobs while the program is being
        # built, so building and running cannot be told apart here.
        with child("program"):
            centroids = kmeans.kmeans_nested_grouped(
                ctx.bag_of(self.points), self.configs,
                max_iterations=1, tolerance=None,
            ).collect()
            rates = bounce_rate.bounce_rate_nested(ctx.bag_of(self.visits))
            result = (centroids, rates.collect())
        return result, rates.node

    def check(self, result):
        want_centroids, want_rates = self.reference
        centroids, rates = result
        centroids = dict(centroids)
        return (
            set(centroids) == set(want_centroids)
            and all(
                kmeans.centroid_shift(centroids[c], want_centroids[c])
                < TOLERANCE
                for c in want_centroids
            )
            and dict(rates) == want_rates
        )


# The chain's UDFs: module-level and provably pure, so the compiled
# path takes them.  Values stay multiples of 1/256 small enough that
# every float operation is exact: the sums do not depend on the order
# the engine adds them in, and the reference can demand equality.


def to_pair(x):
    return (x, (x % 61) / 8.0)


def scale(r):
    return (r[0], r[1] * 1.5)


def shift(r):
    return (r[0] + 7, r[1] + 0.25)


def keep_most(r):
    return r[0] % 10 != 3


def square(r):
    return (r[0], r[1] * r[1])


def keep_rest(r):
    return r[0] % 9 != 0


def mix(r):
    return (r[0] * 3 + 1, r[1] - 1.0)


def to_key(r):
    return (r[0] % 1024, r[1])


def add(a, b):
    return a + b


CHAIN_STEPS = (
    ("map", to_pair), ("map", scale), ("map", shift),
    ("filter", keep_most), ("map", square), ("filter", keep_rest),
    ("map", mix), ("map", to_key),
)
CHAIN_RECORDS = 32768
CHAIN_PARTITIONS = 8


def chain_records(seed, n=CHAIN_RECORDS):
    """The chain's input.  Ints, not ``(int, float)`` tuples: schema
    inference proves a driver-side scalar list but gives up on more
    than 4096 tuples, and an unproven input keeps ``chain_fast`` on the
    interpreter.  The first step makes the ``(int, float)`` records."""
    rng = random.Random(seed)
    return [rng.randrange(1 << 20) for _ in range(n)]


def build_chain(ctx, records):
    bag = ctx.bag_of(records, num_partitions=CHAIN_PARTITIONS)
    for kind, fn in CHAIN_STEPS:
        bag = getattr(bag, kind)(fn)
    return bag.reduce_by_key(add)


def chain_output(records):
    """The chain's keyed records in plain Python, never the engine."""
    for item in records:
        for kind, fn in CHAIN_STEPS:
            if kind == "map":
                item = fn(item)
            elif not fn(item):
                break
        else:
            yield item


def chain_reference(records):
    sums = {}
    for key, value in chain_output(records):
        sums[key] = sums[key] + value if key in sums else value
    return sums


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------

#: Seconds :func:`host_spin` takes on the host that times are reported
#: for: this 2-core box in a quiet minute.
REFERENCE_SPIN_S = 0.005

SPIN_RECORDS = chain_records(0, 6000)


def host_spin(clock=now):
    """Seconds a fixed plain-Python computation takes right now: the
    chain's reference over 6000 fixed records.

    The speed of a shared host wanders: the same op on the same input
    reads 0.098 s in one quarter of an hour and 0.147 s in the next, and
    within a pass there are slow episodes of a second or two.  Raw
    seconds cannot hold an 8 % bound on such a host.  The spin slows
    down with the ops (a neighbour copying memory slows both by half),
    so every reported time is multiplied by ``REFERENCE_SPIN_S`` / (the
    spins around it): seconds as they would be on the reference host.
    A change to the engine moves the op and not the spin, so it shows
    in full.
    """
    start = clock()
    chain_reference(SPIN_RECORDS)
    return clock() - start


def host_speed(spins):
    """The host's speed over those spins; 1 is the reference host."""
    return REFERENCE_SPIN_S / statistics.fmean(spins)


def fast_config():
    """Every optimization ``ClusterConfig`` still has, switched on."""
    fields = {field.name for field in dataclasses.fields(ClusterConfig)}
    wanted = ("compile_pipelines", "schema_inference", "optimize_caching")
    return dataclasses.replace(
        ClusterConfig(), backend="serial",
        **{name: True for name in wanted if name in fields},
    )


class Chain(Batch):
    """A long narrow fused chain over few large partitions."""

    def __init__(self, name, config, timed_ops):
        super().__init__(name, config)
        self.TIMED_OPS = timed_ops

    def describe(self):
        return "%s; %d records, %d partitions, %d steps, 1024 keys" % (
            describe_config(self.config), CHAIN_RECORDS, CHAIN_PARTITIONS,
            len(CHAIN_STEPS),
        )

    def prepare(self, seed):
        self.records = chain_records(seed)
        self.reference = chain_reference(self.records)

    def program(self, ctx, child):
        with child("plan_build"):
            bag = build_chain(ctx, self.records)
        with child("action"):
            result = bag.collect()
        return result, bag.node

    def check(self, result):
        return len(result) == len(self.reference) and (
            dict(result) == self.reference
        )


# ----------------------------------------------------------------------
# Serve: two closed-loop clients against one daemon
# ----------------------------------------------------------------------


class Serve:
    """Closed loop at burst level: each of two client threads submits
    ``BURST`` jobs, awaits all of them, and repeats."""

    name = "serve_closed_loop"
    #: No counter repeats exactly: ops are a mix and slots race.
    exact = None
    TIMED_OPS = 384
    SLOTS = 2
    TENANTS = (("a", 1), ("b", 3))
    MAX_PENDING = 16
    BURST = 4
    #: Jobs per dataset in every 32 a client submits: 24 PageRanks (75 %)
    #: shared out by Zipf(1) popularity; the other 8 are range-sums.  The
    #: seed shuffles the order, not the mix, so that every pass does the
    #: same work.
    PAGERANK_DECK = (9, 4, 3, 2, 2, 2, 1, 1)
    RANGE_SUM_DECK = 8
    #: About half of the 8 datasets' artifact bytes (~7.8 MB), so hits,
    #: misses and evictions all occur.
    CACHE_LIMIT_BYTES = 4_000_000
    JOB_TIMEOUT_S = 60

    def __init__(self):
        self.config = ClusterConfig()

    def describe(self):
        return (
            "%s; closed loop, %d clients (tenants %s), bursts of %d, "
            "%d slots, cache_limit_bytes=%d" % (
                describe_config(self.config), len(self.TENANTS),
                dict(self.TENANTS), self.BURST, self.SLOTS,
                self.CACHE_LIMIT_BYTES,
            )
        )

    def prepare(self, seed):
        # The interpreter lock serialises the slots, so one CPU serves as
        # many ops per second as two (14.50 against 14.54 over ten
        # interleaved pairs of runs); sharing it with the sampler makes
        # the spin see what the ops see, and takes thread placement out
        # of the run-to-run spread (p50: 3.7 % against 6.1 %).
        self.cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self.cpus)})
        self.specs = [
            ("pagerank", dict(num_groups=4, total_edges=512, iterations=2,
                              seed=seed * 100 + index))
            for index in range(len(self.PAGERANK_DECK))
        ] + [("range-sum", dict(n=20000, seed=seed))]
        deck = [
            index
            for index, copies in enumerate(
                self.PAGERANK_DECK + (self.RANGE_SUM_DECK,)
            )
            for _ in range(copies)
        ]

        def schedule(rng):
            while True:
                yield from rng.sample(deck, len(deck))

        self.schedules = [
            schedule(random.Random(seed * 1000 + index))
            for index in range(len(self.TENANTS))
        ]
        # Reference: each (program, params) once, alone, on a one-slot
        # service that never evicts.
        with JobService(config=ClusterConfig(), num_slots=1) as quiet:
            quiet.add_tenant("reference")
            self.reference = [
                quiet.submit("reference", program(name, **params)).result(
                    self.JOB_TIMEOUT_S
                )
                for name, params in self.specs
            ]
        self.service = JobService(
            config=self.config, num_slots=self.SLOTS,
            cache_limit_bytes=self.CACHE_LIMIT_BYTES,
        )
        for tenant, weight in self.TENANTS:
            self.service.add_tenant(
                tenant, weight=weight, max_pending=self.MAX_PENDING
            )
        self.service.start()
        self.cache_bytes_peak = 0

    def check(self, index, value):
        want = self.reference[index]
        if isinstance(want, dict):
            return isinstance(value, dict) and ranks_close(value, want)
        return value == want

    def measure(self, ops, spans=OFF):
        """At least ``ops`` ops: every client submits the same number of
        whole bursts."""
        bursts = math.ceil(ops / (len(self.TENANTS) * self.BURST))
        ops, failures, ends = [], [], []
        start = now()

        def await_job(tenant, index, submitted, admitted, handle):
            try:
                ok = self.check(index, handle.result(self.JOB_TIMEOUT_S))
            except Exception:  # a failed job is counted, not fatal
                traceback.print_exc()
                ok = False
            done = now()
            if not ok:
                failures.append(index)
                return
            wait, exec_s = handle.queue_wait_seconds, handle.wall_seconds
            accounting = handle.accounting
            ops.append(dict(
                engine_facts(accounting.jobs, accounting.decisions),
                sim_s=accounting.simulated_seconds,
                wall=done - submitted, exec_s=exec_s, wait=wait,
                overhead=done - submitted - wait - exec_s,
            ))
            op = "%s-%d" % (tenant, len(ops))
            sid = spans.add("op", submitted, done, op=op)
            # The handle's durations laid end to end from admission; the
            # daemon's clock starts a moment before admission returns,
            # hence the clamp.
            marks = [submitted, admitted, admitted + wait,
                     admitted + wait + exec_s, done]
            names = ("submit", "queue_wait", "execute", "deliver")
            for name, begin, end in zip(names, marks, marks[1:]):
                spans.add(name, min(begin, done), min(end, done),
                          parent=sid, op=op)

        def client(tenant, schedule):
            for _ in range(bursts):
                burst = []
                for index in itertools.islice(schedule, self.BURST):
                    name, params = self.specs[index]
                    submitted = now()
                    try:
                        handle = self.service.submit(
                            tenant, program(name, **params), label=name
                        )
                    except AdmissionRejected:
                        failures.append(index)
                        continue
                    burst.append((tenant, index, submitted, now(), handle))
                for job in burst:
                    await_job(*job)
                self.cache_bytes_peak = max(
                    self.cache_bytes_peak, self.service.cache.total_bytes
                )
            ends.append(now())

        threads = [
            threading.Thread(target=client, args=(tenant, schedule))
            for (tenant, _weight), schedule in zip(
                self.TENANTS, self.schedules
            )
        ]
        for thread in threads:
            thread.start()
        # Ops overlap, so there is no quiet moment to spin in: the host
        # is sampled ten times a second in this thread's CPU time, which
        # waiting for the interpreter lock does not inflate, and the
        # whole pass is scaled by the mean.
        spins = []
        while any(thread.is_alive() for thread in threads):
            spins.append(host_spin(time.thread_time))
            time.sleep(0.1)
        scale = host_speed(spins)
        for op in ops:
            op["wall"] *= scale
        return Pass(
            ops, len(ops) + len(failures), len(failures),
            (max(ends) - start) * scale, spins,
        )

    def layer_metrics(self, pass_):
        # Cache counters run from the daemon's start, warm-up included.
        ops, cache = pass_.ops, self.service.stats()["cache"]
        waits = [op["wait"] for op in ops]
        metrics = layer_metrics(ops, statistics.fmean)
        metrics.update({
            "engine.costmodel.sim_seconds_per_op":
                statistics.fmean(op["sim_s"] for op in ops),
            "serve.queue.wait_s_p50": statistics.median(waits),
            "serve.queue.wait_s_p90": percentile(waits, 0.9),
            "serve.queue.rejected": sum(
                self.service.tenant_stats(tenant).rejected
                for tenant, _weight in self.TENANTS
            ),
            "serve.service.exec_s_p50":
                statistics.median(op["exec_s"] for op in ops),
            "serve.service.overhead_s_p50":
                statistics.median(op["overhead"] for op in ops),
            "serve.artifacts.hit_ratio":
                cache["hits"] / max(1, cache["hits"] + cache["misses"]),
            "serve.artifacts.evictions": cache["evictions"],
            "serve.artifacts.bytes_peak": self.cache_bytes_peak,
        })
        return metrics

    def tracer_overhead(self):
        """Not measured: the daemon's one context outlives every op."""
        return {}

    def captured(self):
        """The programs build their plans inside the daemon, out of
        reach; the probes get the task library's PageRank over one of
        the datasets' sizes instead."""
        ctx = EngineContext(ClusterConfig())
        _name, params = self.specs[0]
        ranks = pagerank.pagerank_nested(
            ctx.bag_of(grouped_edges(
                params["num_groups"], params["total_edges"],
                seed=params["seed"],
            )),
            iterations=params["iterations"],
        )
        ranks.collect()
        ctx.close()
        return ctx, ranks.node

    def close(self):
        self.service.shutdown()
        os.sched_setaffinity(0, self.cpus)


def make(name):
    return {
        "nested_serial": NestedSerial,
        "chain_default":
            lambda: Chain("chain_default", ClusterConfig(), 140),
        "chain_fast": lambda: Chain("chain_fast", fast_config(), 220),
        "serve_closed_loop": Serve,
    }[name]()
