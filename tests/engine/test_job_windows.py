"""Accounting windows and bounded long-lived context state.

``ctx.begin_job()``/``ctx.end_job()`` let one context serve an
unbounded stream of jobs: each window's engine jobs are drained out of
the trace into an eagerly-computed ``JobAccounting`` and the decision
log is emptied per window; a shuffle's layout lives on its result (and
on a cached node), so the executor pins no plan -- nothing retained
grows with the number of jobs served.
"""

import gc
import threading
import weakref

import pytest

from repro.engine import EngineContext, laptop_config


def _run_one(ctx, n=40, tag=""):
    return ctx.bag_of(range(n)).map(lambda x: x * 2).count(label=tag)


class TestAccountingWindows:
    def test_window_summarizes_and_drains(self, ctx):
        window = ctx.begin_job()
        assert _run_one(ctx, tag="w0") == 40
        assert _run_one(ctx, tag="w1") == 40
        accounting = ctx.end_job(window)
        assert accounting.num_jobs == 2
        assert accounting.simulated_seconds > 0
        assert accounting.total_records > 0
        assert [j.label for j in accounting.jobs] == ["w0", "w1"]
        # Drained: the live trace no longer holds the window's jobs.
        assert ctx.trace.num_jobs == 0

    def test_drain_false_keeps_trace(self, ctx):
        window = ctx.begin_job()
        _run_one(ctx)
        accounting = ctx.end_job(window, drain=False)
        assert accounting.num_jobs == 1
        assert ctx.trace.num_jobs == 1

    def test_jobs_outside_window_not_claimed(self, ctx):
        _run_one(ctx, tag="before")
        window = ctx.begin_job()
        _run_one(ctx, tag="inside")
        accounting = ctx.end_job(window)
        assert [j.label for j in accounting.jobs] == ["inside"]
        assert [j.label for j in ctx.trace.jobs] == ["before"]

    def test_gather_jobs_belong_to_window(self, ctx):
        shared = ctx.bag_of(range(60)).cache()
        window = ctx.begin_job()
        totals = ctx.gather(
            lambda: shared.map(lambda x: x).count(label="g0"),
            lambda: shared.filter(lambda x: x < 30).count(label="g1"),
        )
        accounting = ctx.end_job(window)
        assert totals == [60, 30]
        # Both gather-thread jobs carry the window's ticket.
        assert sorted(j.label for j in accounting.jobs) == [
            "g0", "g1",
        ]
        assert ctx.trace.num_jobs == 0

    def test_concurrent_windows_are_isolated(self, config):
        ctx = EngineContext(config)
        out = {}
        barrier = threading.Barrier(2, timeout=30)

        def worker(name, count):
            barrier.wait()
            window = ctx.begin_job()
            for i in range(count):
                _run_one(ctx, tag="%s%d" % (name, i))
            out[name] = ctx.end_job(window)

        threads = [
            threading.Thread(target=worker, args=("x", 3)),
            threading.Thread(target=worker, args=("y", 2)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert out["x"].num_jobs == 3
        assert out["y"].num_jobs == 2
        assert sorted(j.label for j in out["x"].jobs) == [
            "x0", "x1", "x2",
        ]
        assert ctx.trace.num_jobs == 0

    def test_accounting_matches_undrained_totals(self, config):
        plain = EngineContext(config)
        _run_one(plain, n=50)
        expected = plain.simulated_seconds()

        windowed = EngineContext(config)
        window = windowed.begin_job()
        _run_one(windowed, n=50)
        accounting = windowed.end_job(window)
        assert accounting.simulated_seconds == pytest.approx(expected)

    def test_accounting_to_dict_is_json_ready(self, ctx):
        window = ctx.begin_job()
        _run_one(ctx)
        record = ctx.end_job(window).to_dict()
        assert record["jobs"] == 1
        assert record["stages"] >= 1
        assert record["simulated_seconds"] > 0

    def test_window_drains_decisions(self, ctx):
        window = ctx.begin_job()
        grouped = ctx.bag_of(
            [(i % 4, i) for i in range(40)]
        ).group_by_key(4).cache()
        grouped.count()
        joined = grouped.join(
            ctx.bag_of([(k, k) for k in range(4)]), num_partitions=4
        )
        assert joined.count() > 0
        accounting = ctx.end_job(window)
        assert any(
            d.choice == "adopt-left" for d in accounting.decisions
        )
        assert ctx.executor.decisions == []


class TestBoundedLongLivedContext:
    def test_hundred_jobs_bounded_state(self, config):
        """The satellite regression test: 100 sequential windowed jobs
        leave the context no bigger than after one."""
        ctx = EngineContext(config)
        total_simulated = 0.0
        for i in range(100):
            window = ctx.begin_job()
            # Each job shuffles and caches nothing, so without draining
            # every piece of cross-job state would grow per job.
            grouped = ctx.bag_of(
                [(j % 5, j) for j in range(50)]
            ).group_by_key(5)
            assert grouped.count(label="job%d" % i) == 5
            accounting = ctx.end_job(window)
            total_simulated += accounting.simulated_seconds
            assert accounting.num_jobs == 1
        # Our own local is the only thing keeping the last plan alive:
        # once it goes, the context holds no shuffle node of any job.
        shuffle_node = weakref.ref(grouped.node)
        grouped = None  # noqa: F841
        gc.collect()
        assert shuffle_node() is None
        assert ctx.trace.num_jobs == 0
        assert ctx.executor.decisions == []
        assert total_simulated > 0

    def test_cached_bag_adopts_across_windows(self, ctx):
        kept = ctx.bag_of(
            [(i % 4, i) for i in range(40)]
        ).group_by_key(4).cache()
        window = ctx.begin_job()
        assert kept.count() == 4
        ctx.end_job(window)
        gc.collect()
        # The cached node keeps the layout its own shuffle built...
        assert kept.node.layout[0] is kept.node
        # ...so later windows can still adopt it.
        window = ctx.begin_job()
        joined = kept.join(
            ctx.bag_of([(k, k) for k in range(4)]), num_partitions=4
        )
        assert joined.count() > 0
        accounting = ctx.end_job(window)
        assert any(
            d.choice == "adopt-left" for d in accounting.decisions
        )


class TestUncacheReleasesState:
    def test_uncache_clears_materialized_and_layout(self, ctx):
        bag = ctx.bag_of(
            [(i % 4, i) for i in range(40)]
        ).group_by_key(4).cache()
        assert bag.count() == 4
        assert bag.node.materialized is not None
        assert bag.node.layout is not None
        bag.uncache()
        assert bag.node.materialized is None
        assert bag.node.layout is None

    def test_post_uncache_join_reshuffles_correctly(self, ctx):
        bag = ctx.bag_of(
            [(i % 4, i) for i in range(40)]
        ).group_by_key(4).cache()
        bag.count()
        other = ctx.bag_of([(k, k * 10) for k in range(4)])
        warm = sorted(
            (k, len(g), v)
            for k, (g, v) in bag.join(other, num_partitions=4).collect()
        )
        warm_decisions = len(ctx.optimizer_decisions)
        assert warm_decisions >= 1
        bag.uncache()
        # Nothing cached: the join's job re-shuffles the group-by and
        # then adopts the layout that fresh shuffle built -- with
        # identical results.
        cold = sorted(
            (k, len(g), v)
            for k, (g, v) in bag.join(other, num_partitions=4).collect()
        )
        assert cold == warm
        assert ctx.trace.jobs[-1].total_shuffle_records > 0
