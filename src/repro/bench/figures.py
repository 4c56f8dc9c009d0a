"""Per-figure experiment definitions (paper Sec. 9).

Every public ``fig*`` function regenerates one of the paper's evaluation
figures as a :class:`~repro.bench.harness.Sweep` of simulated runtimes.
``scale`` trades sweep width / data size for wall-clock time: ``"quick"``
keeps runs short; ``"full"`` reproduces the paper's sweep ranges.

Dataset scale mapping: the generators produce N records standing for the
paper's G gigabytes, so ``bytes_per_record = G * 2^30 / N``.  The
``memory_overhead_factor`` is set per workload (string-heavy visit logs
materialize at a higher JVM blow-up than primitive points/edges); see
``ClusterConfig`` for the rationale.
"""

from ..baselines.inner_parallel import group_locally
from ..core.optimizer import LoweringConfig
from ..data import (
    clustered_points,
    component_graph,
    grouped_edges,
    grouped_points,
    initial_centroids,
    visits_log,
)
from ..engine import GB, large_cluster_config, paper_cluster_config
from ..tasks import avg_distances, bounce_rate, kmeans, pagerank
from .harness import Sweep, geometric_x_values

MATRYOSHKA = "matryoshka"
INNER = "inner-parallel"
OUTER = "outer-parallel"
DIQL = "diql"
IDEAL = "ideal"

_KMEANS_ITERS = 8
_PAGERANK_ITERS = 6
_K = 4


def _cluster(total_gb, total_records, machines=25, overhead=3.0,
             large=False, result_record_bytes=None):
    factory = large_cluster_config if large else paper_cluster_config
    kwargs = {
        "bytes_per_record": total_gb * GB / total_records,
        "memory_overhead_factor": overhead,
        "machines": machines,
    }
    if result_record_bytes is not None:
        kwargs["result_record_bytes"] = result_record_bytes
    return factory(**kwargs)


def _scaled(scale, quick, full):
    if scale == "quick":
        return quick
    if scale == "full":
        return full
    raise ValueError("scale must be 'quick' or 'full'")


# ---------------------------------------------------------------------------
# Fig. 1: K-means motivation (runtime vs. number of initial configurations)
# ---------------------------------------------------------------------------


def fig1_kmeans_motivation(scale="quick"):
    """Fig. 1: K-means runtimes across configuration counts.

    Total work is constant: the per-configuration sample size varies
    inversely with the configuration count.  ``ideal`` is the runtime of
    a single full-size configuration.
    """
    total_points = _scaled(scale, 512, 2048)
    x_values = _scaled(
        scale, [1, 4, 16, 64], geometric_x_values(1, 256)
    )
    total_gb = 2.0
    sweep = Sweep(
        title="Fig. 1: K-means, constant total work",
        x_label="configs",
        systems=[IDEAL, MATRYOSHKA, INNER, OUTER],
    )
    config = _cluster(total_gb, total_points, overhead=2.0)
    ideal_points = grouped_points(1, total_points, _K, seed=11)
    ideal_configs = initial_centroids(_K, 1, seed=11)
    for x in x_values:
        records = grouped_points(x, total_points, _K, seed=11)
        configs = initial_centroids(_K, x, seed=11)
        groups = group_locally(records)
        _run_kmeans_systems(
            sweep, config, x, records, configs, groups,
            ideal=(ideal_points, ideal_configs),
        )
    return sweep


def _run_kmeans_systems(sweep, config, x, records, configs, groups,
                        ideal=None):
    kwargs = {"max_iterations": _KMEANS_ITERS, "tolerance": None}
    if ideal is not None:
        ideal_records, ideal_configs = ideal
        sweep.run(
            config, IDEAL, x,
            lambda ctx: kmeans.kmeans_inner(
                ctx, group_locally(ideal_records), ideal_configs,
                **kwargs,
            ),
        )
    sweep.run(
        config, MATRYOSHKA, x,
        lambda ctx: kmeans.kmeans_nested_grouped(
            ctx.bag_of(records), configs, **kwargs
        ).save(),
    )
    sweep.run(
        config, INNER, x,
        lambda ctx: kmeans.kmeans_inner(ctx, groups, configs, **kwargs),
    )
    sweep.run(
        config, OUTER, x,
        lambda ctx: kmeans.kmeans_outer(
            ctx.bag_of(records), configs, **kwargs
        ).save(),
    )


# ---------------------------------------------------------------------------
# Fig. 3: weak scaling for the three iterative tasks
# ---------------------------------------------------------------------------


def fig3_weak_scaling_kmeans(scale="quick"):
    """Fig. 3(a): K-means weak scaling over inner-computation counts."""
    sweep = fig1_kmeans_motivation(scale)
    sweep.title = "Fig. 3a: weak scaling, K-means"
    sweep.systems = [MATRYOSHKA, INNER, OUTER]
    return sweep


def fig3_weak_scaling_pagerank(scale="quick", total_gb=20.0,
                               machines=25, large=False, title=None,
                               x_values=None):
    """Fig. 3(b): grouped PageRank weak scaling (20 GB total input)."""
    total_edges = _scaled(scale, 1024, 4096)
    if x_values is None:
        x_values = _scaled(
            scale, [4, 16, 64, 256], geometric_x_values(4, 1024)
        )
    sweep = Sweep(
        title=title or "Fig. 3b: weak scaling, PageRank",
        x_label="groups",
        systems=[MATRYOSHKA, INNER, OUTER],
    )
    config = _cluster(
        total_gb, total_edges, machines=machines, large=large
    )
    for x in x_values:
        records = grouped_edges(x, total_edges, seed=13)
        groups = group_locally(records)
        _run_pagerank_systems(sweep, config, x, records, groups)
    return sweep


def _run_pagerank_systems(sweep, config, x, records, groups,
                          systems=None):
    systems = systems or (MATRYOSHKA, INNER, OUTER)
    if MATRYOSHKA in systems:
        sweep.run(
            config, MATRYOSHKA, x,
            lambda ctx: pagerank.pagerank_nested(
                ctx.bag_of(records), iterations=_PAGERANK_ITERS
            ).save(),
        )
    if INNER in systems:
        sweep.run(
            config, INNER, x,
            lambda ctx: pagerank.pagerank_inner(
                ctx, groups, iterations=_PAGERANK_ITERS
            ),
        )
    if OUTER in systems:
        sweep.run(
            config, OUTER, x,
            lambda ctx: pagerank.pagerank_outer(
                ctx.bag_of(records), iterations=_PAGERANK_ITERS
            ).save(),
        )


def fig3_weak_scaling_avg_distances(scale="quick"):
    """Fig. 3(c): Average Distances weak scaling (three levels)."""
    total_vertices = _scaled(scale, 48, 128)
    x_values = _scaled(scale, [2, 4, 8], [2, 4, 8, 16, 32])
    sweep = Sweep(
        title="Fig. 3c: weak scaling, Average Distances (3 levels)",
        x_label="components",
        systems=[MATRYOSHKA, INNER, OUTER],
    )
    # Average Distances is compute-bound (all-pairs BFS), so its input is
    # far smaller than the scan-bound tasks': 4 GB at this record count.
    config = _cluster(4.0, 2 * total_vertices)
    for x in x_values:
        per_component = max(2, total_vertices // x)
        edges = component_graph(x, per_component, seed=17)
        sweep.run(
            config, MATRYOSHKA, x,
            lambda ctx: avg_distances.avg_distances_nested(
                ctx, edges
            ).save(),
        )
        sweep.run(
            config, INNER, x,
            lambda ctx: avg_distances.avg_distances_inner(ctx, edges),
        )
        sweep.run(
            config, OUTER, x,
            lambda ctx: avg_distances.avg_distances_outer(
                ctx, edges
            ).save(),
        )
    return sweep


# ---------------------------------------------------------------------------
# Fig. 4: scale-out (varying machine count at 64 inner computations)
# ---------------------------------------------------------------------------


def fig4_scale_out(scale="quick", task="pagerank"):
    """Fig. 4: runtime vs. machine count, 64 inner computations."""
    machine_counts = _scaled(scale, [5, 15, 25], [5, 10, 15, 20, 25])
    num_groups = 64
    sweep = Sweep(
        title="Fig. 4: scale-out, %s (64 inner computations)" % task,
        x_label="machines",
        systems=[MATRYOSHKA, INNER, OUTER],
    )
    if task == "pagerank":
        total_edges = _scaled(scale, 1024, 4096)
        records = grouped_edges(num_groups, total_edges, seed=19)
        groups = group_locally(records)
        for machines in machine_counts:
            config = _cluster(20.0, total_edges, machines=machines)
            _run_pagerank_systems(
                sweep, config, machines, records, groups
            )
        return sweep
    if task == "kmeans":
        total_points = _scaled(scale, 512, 2048)
        records = grouped_points(num_groups, total_points, _K, seed=19)
        configs = initial_centroids(_K, num_groups, seed=19)
        groups = group_locally(records)
        for machines in machine_counts:
            config = _cluster(
                2.0, total_points, machines=machines, overhead=2.0
            )
            _run_kmeans_systems(
                sweep, config, machines, records, configs, groups
            )
        return sweep
    if task == "bounce_rate":
        total_visits = _scaled(scale, 2048, 4096)
        records = visits_log(256, total_visits, seed=19)
        groups = group_locally(records)
        for machines in machine_counts:
            config = _cluster(
                48.0, total_visits, machines=machines, overhead=8.0
            )
            _run_bounce_rate_systems(
                sweep, config, machines, records, groups,
                systems=(MATRYOSHKA, INNER, OUTER),
            )
        return sweep
    raise ValueError("unknown task: %r" % (task,))


# ---------------------------------------------------------------------------
# Fig. 5 / Fig. 6: Bounce Rate (no control flow), incl. the DIQL baseline
# ---------------------------------------------------------------------------


def fig5_bounce_rate_weak_scaling(scale="quick", total_gb=48.0,
                                  title=None, machines=25, large=False,
                                  x_values=None):
    """Fig. 5: Bounce Rate across group counts (48 GB total input).

    Expected shape: DIQL and outer-parallel OOM at every point;
    inner-parallel grows with the group count; Matryoshka stays near
    constant (with some spill at full input size).
    """
    total_visits = _scaled(scale, 2048, 4096)
    if x_values is None:
        x_values = _scaled(
            scale, [4, 32, 256], geometric_x_values(4, 256)
        )
    sweep = Sweep(
        title=title or "Fig. 5: Bounce Rate weak scaling",
        x_label="groups",
        systems=[MATRYOSHKA, INNER, OUTER, DIQL],
    )
    config = _cluster(
        total_gb, total_visits, overhead=8.0, machines=machines,
        large=large,
    )
    for x in x_values:
        records = visits_log(x, total_visits, seed=23)
        groups = group_locally(records)
        _run_bounce_rate_systems(sweep, config, x, records, groups)
    return sweep


def _run_bounce_rate_systems(sweep, config, x, records, groups,
                             systems=(MATRYOSHKA, INNER, OUTER, DIQL)):
    if MATRYOSHKA in systems:
        sweep.run(
            config, MATRYOSHKA, x,
            lambda ctx: bounce_rate.bounce_rate_nested(
                ctx.bag_of(records)
            ).save(),
        )
    if INNER in systems:
        sweep.run(
            config, INNER, x,
            lambda ctx: bounce_rate.bounce_rate_inner(ctx, groups),
        )
    if OUTER in systems:
        sweep.run(
            config, OUTER, x,
            lambda ctx: bounce_rate.bounce_rate_outer(
                ctx.bag_of(records)
            ).save(),
        )
    if DIQL in systems:
        sweep.run(
            config, DIQL, x,
            lambda ctx: bounce_rate.bounce_rate_diql(
                ctx.bag_of(records)
            ).save(),
        )


def fig6_diql_comparison(scale="quick"):
    """Fig. 6: Matryoshka vs. DIQL at reduced (12 GB) input.

    The sweep covers the group counts at which DIQL's materialized
    groups are near the memory limit (the regime the paper compares in):
    below it DIQL still OOMs, far above it its groups become trivially
    small.  Matryoshka wins at every surviving point, by the largest
    factor where DIQL's groups are biggest.
    """
    sweep = fig5_bounce_rate_weak_scaling(
        scale, total_gb=12.0,
        title="Fig. 6: Bounce Rate vs DIQL, 12 GB input",
        x_values=_scaled(scale, [8, 32, 64], [4, 8, 16, 32, 64, 128]),
    )
    sweep.systems = [MATRYOSHKA, DIQL]
    return sweep


# ---------------------------------------------------------------------------
# Fig. 7: data skew (Zipf-distributed group sizes)
# ---------------------------------------------------------------------------


def fig7_skew(scale="quick", task="bounce_rate"):
    """Fig. 7: skewed group sizes (Zipf keys, paper uses 1024 groups).

    The x axis sweeps the Zipf exponent (0 = the unskewed control run).
    Expected: outer-parallel OOMs under skew; Matryoshka stays within
    ~15% of its unskewed runtime; inner-parallel is an order of
    magnitude (or more) slower.
    """
    num_groups = _scaled(scale, 64, 1024)
    exponents = _scaled(scale, [0.0, 1.1], [0.0, 0.8, 1.1, 1.4])
    sweep = Sweep(
        title="Fig. 7: data skew, %s (%d groups)" % (task, num_groups),
        x_label="zipf exponent",
        systems=[MATRYOSHKA, INNER, OUTER],
    )
    if task == "bounce_rate":
        total_visits = _scaled(scale, 2048, 8192)
        config = _cluster(48.0, total_visits, overhead=8.0)
        for exponent in exponents:
            records = visits_log(
                num_groups, total_visits, skew=exponent, seed=29
            )
            groups = group_locally(records)
            _run_bounce_rate_systems(
                sweep, config, exponent, records, groups,
                systems=(MATRYOSHKA, INNER, OUTER),
            )
        return sweep
    if task == "pagerank":
        total_edges = _scaled(scale, 1024, 8192)
        config = _cluster(20.0, total_edges)
        for exponent in exponents:
            records = grouped_edges(
                num_groups, total_edges, skew=exponent, seed=29
            )
            groups = group_locally(records)
            _run_pagerank_systems(sweep, config, exponent, records,
                                  groups)
        return sweep
    raise ValueError("unknown task: %r" % (task,))


# ---------------------------------------------------------------------------
# Fig. 8: optimizer ablations
# ---------------------------------------------------------------------------


def fig8_join_strategies(scale="quick"):
    """Fig. 8 (left): InnerBag-InnerScalar join strategy, PageRank 160 GB.

    Compares the runtime optimizer against both fixed strategies.
    Expected: repartition loses badly at few groups; broadcast loses (and
    finally OOMs) at many groups; the optimizer tracks the better choice
    everywhere.
    """
    total_edges = _scaled(scale, 8192, 16384)
    iterations = _scaled(scale, 3, _PAGERANK_ITERS)
    x_values = _scaled(scale, [4, 64, 1024], geometric_x_values(4, 1024))
    sweep = Sweep(
        title="Fig. 8 left: join strategy (PageRank, 160 GB)",
        x_label="groups",
        systems=["optimizer", "broadcast", "repartition"],
    )
    # Each simulated group stands for a block of real groups at this
    # scale, so the per-tag records carry block-sized payloads: this is
    # what eventually makes the broadcast strategy exceed executor
    # memory, as in the paper.
    config = _cluster(160.0, total_edges, result_record_bytes=8 * 1024
                      * 1024)
    strategies = {
        "optimizer": LoweringConfig(),
        "broadcast": LoweringConfig(join_strategy="broadcast"),
        "repartition": LoweringConfig(join_strategy="repartition"),
    }
    for x in x_values:
        # Keep per-vertex adjacency lists proportionally small (a vertex
        # neighbourhood is a tiny fraction of a 160 GB graph).
        vertices = max(4, (total_edges // x) // 4)
        records = grouped_edges(
            x, total_edges, vertices_per_group=vertices, seed=31
        )
        for name, lowering in strategies.items():
            sweep.run(
                config, name, x,
                lambda ctx, low=lowering: pagerank.pagerank_nested(
                    ctx.bag_of(records),
                    iterations=iterations,
                    lowering=low,
                ).save(),
            )
    return sweep


def fig8_half_lifted(scale="quick"):
    """Fig. 8 (right): half-lifted mapWithClosure strategy, K-means.

    Compares the optimizer's broadcast-side choice against both forced
    sides.  Expected: broadcasting the primary input fails or degrades
    when the point set is large; broadcasting the InnerScalar degrades
    when there are many configurations; the optimizer always picks the
    better side.
    """
    num_points = _scaled(scale, 256, 1024)
    x_values = _scaled(scale, [2, 16, 128], geometric_x_values(2, 512))
    sweep = Sweep(
        title="Fig. 8 right: half-lifted mapWithClosure (K-means)",
        x_label="configs",
        systems=["optimizer", "broadcast-scalar", "broadcast-primary"],
    )
    points = clustered_points(num_points, _K, seed=37)
    config = _cluster(2.0, num_points, overhead=2.0)
    sides = {
        "optimizer": None,
        "broadcast-scalar": "scalar",
        "broadcast-primary": "primary",
    }
    for x in x_values:
        configs = initial_centroids(_K, x, seed=37)
        for name, side in sides.items():
            sweep.run(
                config, name, x,
                lambda ctx, s=side: kmeans.kmeans_nested_shared(
                    ctx, points, configs,
                    max_iterations=4, tolerance=None, cross_side=s,
                ).save(),
            )
    return sweep


# ---------------------------------------------------------------------------
# Fig. 9: 8x larger input on the big cluster
# ---------------------------------------------------------------------------


def fig9_larger_pagerank(scale="quick"):
    """Fig. 9(a): PageRank at 160 GB on the 36-machine cluster."""
    return fig3_weak_scaling_pagerank(
        scale,
        total_gb=160.0,
        large=True,
        machines=36,
        title="Fig. 9a: PageRank, 160 GB, 36 machines",
        x_values=_scaled(
            scale, [4, 32, 128], geometric_x_values(4, 1024)
        ),
    )


def fig9_larger_bounce_rate(scale="quick"):
    """Fig. 9(b): Bounce Rate at 384 GB on the 36-machine cluster."""
    return fig5_bounce_rate_weak_scaling(
        scale,
        total_gb=384.0,
        large=True,
        machines=36,
        title="Fig. 9b: Bounce Rate, 384 GB, 36 machines",
    )


# ---------------------------------------------------------------------------
# Extra ablation (DESIGN.md): partition-count selection (Sec. 8.1)
# ---------------------------------------------------------------------------


def ablation_partition_counts(scale="quick"):
    """Partition-count policy ablation: auto (Sec. 8.1) vs engine default.

    With few inner computations, sizing InnerScalar bags to the tag count
    avoids the per-partition overhead of thousands of near-empty tasks.
    """
    total_points = _scaled(scale, 512, 2048)
    x_values = _scaled(scale, [2, 8], [2, 8, 32, 128])
    sweep = Sweep(
        title="Ablation: InnerScalar partition counts (K-means)",
        x_label="configs",
        systems=["auto (Sec. 8.1)", "engine default"],
    )
    config = _cluster(2.0, total_points, overhead=2.0)
    policies = {
        "auto (Sec. 8.1)": LoweringConfig(),
        "engine default": LoweringConfig(partition_policy="default"),
    }
    for x in x_values:
        records = grouped_points(x, total_points, _K, seed=41)
        configs = initial_centroids(_K, x, seed=41)
        for name, lowering in policies.items():
            sweep.run(
                config, name, x,
                lambda ctx, low=lowering: kmeans.kmeans_nested_grouped(
                    ctx.bag_of(records), configs, lowering=low,
                    max_iterations=_KMEANS_ITERS, tolerance=None,
                ).save(),
            )
    return sweep
