"""Command-line experiment runner.

Regenerate the paper's figures without pytest::

    python -m repro.bench --list
    python -m repro.bench fig1 fig5 --scale quick
    python -m repro.bench all --scale full
    python -m repro.bench fig5 --backend process --workers 4

Every number printed is simulated seconds (wall-clock is measured by
``benchmarks/wall``).  Observability (:mod:`repro.observe`)::

    # per-experiment trace (JSONL + Chrome JSON) and RunReport
    python -m repro.bench fig1 --trace
    # exact gate against the committed BENCH_engine.json
    python -m repro.bench --check-regressions
    # rewrite the committed snapshot after an intentional cost change
    python -m repro.bench --emit-baseline
"""

import argparse
import os
import sys

from ..observe import write_chrome
from ..observe.sinks import read_events
from . import baseline, figures

#: Exit status when --check-regressions finds a difference (2, so
#: argparse's own usage errors keep their conventional meaning).
EXIT_REGRESSION = 2

#: Short names -> (callable, extra args) for every experiment.
EXPERIMENTS = {
    "fig1": (figures.fig1_kmeans_motivation, ()),
    "fig3a": (figures.fig3_weak_scaling_kmeans, ()),
    "fig3b": (figures.fig3_weak_scaling_pagerank, ()),
    "fig3c": (figures.fig3_weak_scaling_avg_distances, ()),
    "fig4-pagerank": (figures.fig4_scale_out, ("pagerank",)),
    "fig4-kmeans": (figures.fig4_scale_out, ("kmeans",)),
    "fig4-bounce": (figures.fig4_scale_out, ("bounce_rate",)),
    "fig5": (figures.fig5_bounce_rate_weak_scaling, ()),
    "fig6": (figures.fig6_diql_comparison, ()),
    "fig7-bounce": (figures.fig7_skew, ("bounce_rate",)),
    "fig7-pagerank": (figures.fig7_skew, ("pagerank",)),
    "fig8-left": (figures.fig8_join_strategies, ()),
    "fig8-right": (figures.fig8_half_lifted, ()),
    "fig9a": (figures.fig9_larger_pagerank, ()),
    "fig9b": (figures.fig9_larger_bounce_rate, ()),
    "ablation-partitions": (figures.ablation_partition_counts, ()),
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment names (see --list), or 'all'",
    )
    parser.add_argument(
        "--scale",
        choices=["quick", "full"],
        default="quick",
        help="sweep width / dataset size (default: quick)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment names"
    )
    parser.add_argument(
        "--backend",
        choices=["serial", "process"],
        help="task runtime backend (default: serial, or $REPRO_BACKEND)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        help="worker count for the process backend (0 = all cores)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="trace each experiment; write JSONL + Chrome traces and a "
        "RunReport under --report-dir",
    )
    parser.add_argument(
        "--report-dir",
        default=os.path.join("benchmarks", "reports"),
        help="where --trace artifacts go (default: benchmarks/reports)",
    )
    parser.add_argument(
        "--baseline",
        default=baseline.BASELINE_FILENAME,
        help="snapshot file for --check-regressions / --emit-baseline "
        "(default: %s)" % baseline.BASELINE_FILENAME,
    )
    parser.add_argument(
        "--check-regressions",
        action="store_true",
        help="run the engine baseline matrix and compare it exactly "
        "with --baseline; exit %d on any difference" % EXIT_REGRESSION,
    )
    parser.add_argument(
        "--emit-baseline",
        action="store_true",
        help="run the engine baseline matrix and (re)write --baseline",
    )
    args = parser.parse_args(argv)

    # Experiments build their own ClusterConfigs, so backend selection
    # flows through the env-var defaults that ClusterConfig reads.
    if args.backend is not None:
        os.environ["REPRO_BACKEND"] = args.backend
    if args.workers is not None:
        os.environ["REPRO_NUM_WORKERS"] = str(args.workers)

    if args.emit_baseline or args.check_regressions:
        return _run_baseline_gate(args)

    if args.list or not args.experiments:
        print("Available experiments:")
        for name, (fn, extra) in EXPERIMENTS.items():
            doc = (fn.__doc__ or "").strip().splitlines()[0]
            print("  %-20s %s" % (name, doc))
        return 0

    names = list(EXPERIMENTS) if args.experiments == ["all"] else (
        args.experiments
    )
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        parser.error(
            "unknown experiments: %s (use --list)" % ", ".join(unknown)
        )
    if args.trace:
        os.makedirs(args.report_dir, exist_ok=True)
    for name in names:
        fn, extra = EXPERIMENTS[name]
        if args.trace:
            sweep = _run_traced(name, fn, extra, args)
        else:
            sweep = fn(args.scale, *extra)
        sweep.print_table()
    return 0


def _run_traced(name, fn, extra, args):
    """Run one experiment with tracing on; leave three artifacts.

    Contexts resolve ``REPRO_TRACE`` when they are built, so pointing it
    at one JSONL file per experiment makes every measured run of the
    sweep append to a shared timeline (epoch timestamps keep the runs
    ordered).  The JSONL is then exported to Chrome trace-event JSON,
    and the sweep's :class:`~repro.observe.RunReport` is saved next to
    both.
    """
    trace_path = os.path.join(args.report_dir, name + ".trace.jsonl")
    if os.path.exists(trace_path):
        os.remove(trace_path)
    previous = os.environ.get("REPRO_TRACE")
    os.environ["REPRO_TRACE"] = trace_path
    try:
        sweep = fn(args.scale, *extra)
    finally:
        if previous is None:
            del os.environ["REPRO_TRACE"]
        else:
            os.environ["REPRO_TRACE"] = previous
    chrome_path = os.path.join(args.report_dir, name + ".trace.json")
    report_path = os.path.join(args.report_dir, name + ".report.json")
    write_chrome(read_events(trace_path), chrome_path, label=name)
    sweep.to_report(name, meta={"scale": args.scale}).save(report_path)
    print(
        "[%s: trace %s + %s, report %s]"
        % (name, trace_path, chrome_path, report_path)
    )
    return sweep


def _run_baseline_gate(args):
    """Run the baseline matrix; write the snapshot or compare with it."""

    def progress(result):
        print(
            "  %-22s x=%-4s %s" % (result.system, result.x, result.cell())
        )

    if not args.emit_baseline and not os.path.exists(args.baseline):
        print(
            "no baseline at %s (generate one with --emit-baseline)"
            % args.baseline,
            file=sys.stderr,
        )
        return 1
    print("engine baseline matrix:")
    runs = baseline.run_baseline(progress=progress)
    print()
    if args.emit_baseline:
        baseline.save(baseline.snapshot(runs), args.baseline)
        print("baseline written: %s" % args.baseline)
        return 0
    stored = baseline.load(args.baseline)
    differences = baseline.differences(stored, runs)
    for line in differences:
        print("  " + line)
    if differences:
        print(
            "verdict: %d difference(s) from %s"
            % (len(differences), args.baseline)
        )
        return EXIT_REGRESSION
    print("verdict: ok (%d cells, exact)" % len(stored["cells"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
