"""Hyperparameter optimization with nested parallel K-means (Sec. 2.3).

Many random centroid initializations are tried in parallel, while each
individual training run is *also* data-parallel -- the nesting current
dataflow engines cannot express.  The training loop is an iterative
lifted while loop: configurations that converge early drop out of the
computation (Listing 4's P1-P3).

The second half of the example scores the trained arms on a held-out
validation set, one job per arm.  The jobs are independent, so they are
submitted side by side (``ctx.gather``, one thread per job over the
shared worker pool) and compared against submitting them one at a
time: same costs, same simulated seconds, measurably lower wall-clock.

Run:  python examples/hyperparameter_kmeans.py
"""

import time
from dataclasses import replace

import repro
from repro.data import clustered_points, initial_centroids
from repro.tasks import kmeans

NUM_CONFIGS = 8
K = 3

#: Modelled latency of fetching one validation shard from remote
#: storage inside a scoring task.  Real wall-clock that jobs submitted
#: side by side overlap; invisible to the simulated cost model.
ARM_FETCH_S = 0.03
VALIDATION_PARTITIONS = 2

def model_cost(points, centroids):
    """Sum of squared distances to the nearest centroid (the metric the
    hyperparameter search minimizes)."""
    return sum(
        min(kmeans.squared_distance(p, c) for c in centroids)
        for p in points
    )

def score_arms(ctx, points, arms, side_by_side):
    """Score every arm on the validation bag, one job per arm.

    Sequentially (``side_by_side=False``) or concurrently via
    ``ctx.gather`` -- the per-arm jobs then interleave their stages over
    the shared worker pool.  Returns (costs, measured wall seconds).
    """
    validation = ctx.bag_of(points, num_partitions=VALIDATION_PARTITIONS)

    def arm_job(centroids):
        def fetch_and_score(shard, _index):
            time.sleep(ARM_FETCH_S)
            return [model_cost(shard, centroids)]

        return lambda: validation.map_partitions(fetch_and_score).sum()

    thunks = [arm_job(centroids) for _, centroids in arms]
    with ctx.measure() as measurement:
        if side_by_side:
            costs = ctx.gather(*thunks)
        else:
            costs = [thunk() for thunk in thunks]
    return costs, measurement.measured_seconds


def compare_arm_scheduling(points, arms):
    """Per-arm scoring jobs, one at a time vs ``ctx.gather``.

    Both contexts use the process backend -- the arms' tasks really run
    in worker processes; the worker count is pinned so the comparison
    is about how the jobs are submitted, not about how many cores this
    host happens to have.
    """
    config = replace(
        repro.paper_cluster_config(), backend="process", num_workers=4
    )
    results = {}
    for label, side_by_side in (
        ("one at a time", False),
        ("side by side (ctx.gather)", True),
    ):
        ctx = repro.EngineContext(config)
        try:
            # Unmeasured warm-up so neither arm pays pool start-up.
            ctx.bag_of(list(range(4)), num_partitions=4).count()
            results[label] = score_arms(ctx, points, arms, side_by_side)
        finally:
            ctx.close()
    return results


def main():
    ctx = repro.EngineContext(repro.paper_cluster_config())

    points = clustered_points(600, k=K, seed=7)
    configs = initial_centroids(k=K, num_configs=NUM_CONFIGS, seed=7)

    # All configurations share the point bag (a closure of the lifted
    # UDF); the per-iteration assignment is the half-lifted
    # mapWithClosure of Sec. 8.3, with the broadcast side chosen at
    # runtime.
    trained = kmeans.kmeans_nested_shared(
        ctx, points, configs, max_iterations=15, tolerance=1e-3
    )

    print("Trained %d configurations in one nested-parallel program:"
          % NUM_CONFIGS)
    best = None
    for _tag, (config_id, centroids) in sorted(trained.collect()):
        cost = model_cost(points, centroids)
        marker = ""
        if best is None or cost < best[1]:
            best = (config_id, cost)
            marker = "  <- best so far"
        print("  %-6s cost %10.1f%s" % (config_id, cost, marker))

    print()
    print("Best configuration:", best[0], "cost %.1f" % best[1])
    print("Trace:", ctx.trace.summary())
    print("Simulated cluster runtime: %.1f s" % ctx.simulated_seconds())

    # Validation scoring: one independent job per arm.  Gathered, the
    # arms run side by side over the same worker pool.
    arms = [arm for _tag, arm in sorted(trained.collect())]
    comparison = compare_arm_scheduling(points, arms)
    print()
    print("Scoring %d arms on the process backend:" % len(arms))
    walls = {}
    reference = None
    for label, (costs, wall) in comparison.items():
        walls[label] = wall
        if reference is None:
            reference = costs
        elif [round(c, 6) for c in costs] != [
            round(c, 6) for c in reference
        ]:
            raise AssertionError("schedules disagreed on arm costs")
        print("  %-26s %5.2f s wall" % (label, wall))
    speedup = walls["one at a time"] / walls["side by side (ctx.gather)"]
    print("  side-by-side speedup: %.1fx (same costs, same trace shape)"
          % speedup)

if __name__ == "__main__":
    main()
