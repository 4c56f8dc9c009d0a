"""Wall-clock benchmark of the engine, end to end and layer by layer.

    python3 benchmarks/wall/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--ops N] [--out DIR] [--aa]

With ``--workload`` and ``--trace`` it makes one measured run in this
process and prints, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` for ``--trace 0`` (spans off), the
per-layer metrics for ``--trace 1`` (spans on, layer probes, spans
written to ``DIR/spans.<workload>.json``).  Without them it makes those
runs, each in a fresh process, for every workload and both passes.
A pass is a fixed count of ops, the workload's ``TIMED_OPS``, sized to
take about ``run_seconds``; ``--seconds`` scales the count in proportion
and ``--ops`` sets it.  ``--aa`` makes the untraced runs twice and fails
if the two disagree by more than the benchmark's own bounds.  See
README.md beside this file.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Set-up is timed from here: everything costly (``repro``, the
#: workloads) is imported later, inside :func:`run_once`.
PROCESS_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def load_spec():
    with open(ROOT / "BENCHMARK.json") as spec:
        return json.load(spec)


def host_facts():
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    nproc = os.cpu_count()
    load = os.getloadavg()[0]
    return {
        "nproc": nproc, "python": platform.python_version(),
        "numpy": numpy_version, "load_1min": load, "busy": load > nproc,
    }


def child_command(args, workload, trace):
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--out", str(args.out),
    ]
    if args.ops is not None:
        command += ["--ops", str(args.ops)]
    return command


def traced_passes(workload, ops, spans):
    """Spans on; returns ``(passes, layers)``."""
    from spans import OFF

    # Traced and control passes alternate, so that drift in the host
    # does not read as the cost of the spans.
    tenths = [
        workload.measure(max(1, ops // 10), recorder)
        for recorder in (spans, OFF, spans, OFF)
    ]
    traced, control = tenths[0] + tenths[2], tenths[1] + tenths[3]
    if not (traced.ops and control.ops):
        sys.exit("every op failed")
    layers = workload.layer_metrics(traced)
    layers["bench.span_overhead_ratio"] = (
        statistics.median(op["wall"] for op in traced.ops)
        / statistics.median(op["wall"] for op in control.ops)
    )
    layers.update(workload.tracer_overhead())
    return [traced, control], layers


def run_once(args, spec):
    """One workload, one pass, in this process."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit("no program to measure: %s is missing" % (src / "repro"))
    sys.path.insert(0, str(src))
    host = host_facts()
    if host["busy"]:
        print("WARNING: load average %.2f exceeds nproc %d: timings are "
              "suspect" % (host["load_1min"], host["nproc"]))
    layers = {}
    if args.trace:
        from probes import Probes
        from spans import Spans

        spans = Spans()

        def probes(parent):
            return Probes(spans, parent, args.seed)

        with spans.span("probes") as parent:
            layers.update(probes(parent).cold())
    import workloads

    workload = workloads.make(args.workload)
    workload.prepare(args.seed)
    ops = args.ops or max(1, round(
        workload.TIMED_OPS * args.seconds / spec["run_seconds"]
    ))
    try:
        warmup = workload.measure(workloads.WARMUP_OPS)
        setup_s = (
            (time.perf_counter() - PROCESS_START)
            * workloads.host_speed(warmup.spins)
        )
        print("workload %s seed %d: %s"
              % (workload.name, args.seed, workload.describe()))
        print("host %s" % json.dumps(host))
        if args.trace:
            passes, measured = traced_passes(workload, ops, spans)
            layers.update(measured)
        else:
            passes = [workload.measure(ops)]
            if not passes[0].ops:
                sys.exit("every op failed")
            metrics = workloads.end_to_end(passes[0], setup_s)
    finally:
        workload.close()
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if args.trace:
        with spans.span("probes") as parent:
            layers.update(probes(parent).warm(*workload.captured()))
        os.makedirs(args.out, exist_ok=True)
        spans.write(
            os.path.join(args.out, "spans.%s.json" % workload.name),
            {"workload": workload.name, "seed": args.seed},
        )
        layers["failed_share"] = failed / attempted
        unknown = set(layers) - {m["name"] for m in spec["per_layer"]}
        if unknown:
            sys.exit("metrics missing from BENCHMARK.json: %s"
                     % sorted(unknown))
        # A layer this workload never enters reads 0.
        metrics = {m["name"]: layers.get(m["name"], 0)
                   for m in spec["per_layer"]}
    print("detail %s" % json.dumps({
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "samples": len(passes[0].ops), "host": host,
        "host_speed": workloads.host_speed(passes[0].spins),
        "exact": workload.exact,
    }))
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in metrics.items():
        print("%-56s %16.6f %s" % (name, value, units[name]))
    print("samples %d attempted %d failed %d"
          % (len(passes[0].ops), attempted, failed))
    # ``failed_share`` is 0 on a good run and the driver takes no
    # end-to-end metric that can be 0: untraced, it is the result
    # line's ``failed`` / ``attempted``.
    reported = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": failed == 0 and warmup.failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in reported
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_child(args, workload, trace):
    """A measured run in a fresh process; returns ``(result, detail)``
    parsed from its output, or ``None`` if it failed."""
    done = subprocess.run(
        child_command(args, workload, trace),
        stdout=subprocess.PIPE, text=True,
    )
    sys.stdout.write(done.stdout)
    lines = done.stdout.splitlines()
    detail = [ln for ln in lines if ln.startswith("detail ")]
    if done.returncode != 0 or not detail:
        return None
    return json.loads(lines[-1]), json.loads(detail[-1][len("detail "):])


def requested(args, spec):
    return [args.workload] if args.workload else [
        workload["name"] for workload in spec["workloads"]
    ]


def run_all(args, spec):
    """Every requested workload, untraced then traced."""
    names = requested(args, spec)
    traces = [args.trace] if args.trace is not None else [0, 1]
    ok = True
    for name in names:
        for trace in traces:
            ok = run_child(args, name, trace) is not None and ok
    return 0 if ok else 1


def run_aa(args, spec):
    """The untraced benchmark twice, second time in reverse order."""
    names = requested(args, spec)
    sides = []
    for order in (names, names[::-1]):
        sides.append({name: run_child(args, name, 0) for name in order})
    ok = all(run is not None for side in sides for run in side.values())
    print("\nA/A: two sets of runs of the same code")
    print("%-20s %-16s %14s %14s %8s %6s" % (
        "workload", "metric", "first", "second", "diff", "bound"))
    for name in names:
        first, second = sides[0][name], sides[1][name]
        if first is None or second is None:
            print("%-20s run failed" % name)
            continue
        for metric in spec["end_to_end"]:
            a = first[0]["metrics"][metric["name"]]["value"]
            b = second[0]["metrics"][metric["name"]]["value"]
            diff = abs(a - b) / a
            verdict = "" if diff <= metric["bound"] else "  EXCEEDS"
            ok = ok and not verdict
            print("%-20s %-16s %14.6f %14.6f %7.2f%% %5.0f%%%s" % (
                name, metric["name"], a, b, 100 * diff,
                100 * metric["bound"], verdict))
        a, b = (run[0]["failed"] / run[0]["attempted"]
                for run in (first, second))
        verdict = "" if b <= a else "  EXCEEDS"
        ok = ok and not verdict
        print("%-20s %-16s %14.6f %14.6f %8s %6s%s" % (
            name, "failed_share", a, b, "", "any", verdict))
        if first[1]["exact"] != second[1]["exact"]:
            ok = False
            print("%-20s exact counts differ: %s vs %s"
                  % (name, first[1]["exact"], second[1]["exact"]))
        else:
            print("%-20s exact counts repeat: %s"
                  % (name, first[1]["exact"]))
    print("A/A %s" % ("agrees" if ok else "DISAGREES"))
    return 0 if ok else 1


def main():
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"],
        help="scales the pass's op count: run_seconds gives TIMED_OPS",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument(
        "--ops", type=int, help="the pass's op count, whatever --seconds"
    )
    parser.add_argument(
        "--out", default=str(HERE / "out"), help="where spans are written"
    )
    parser.add_argument("--aa", action="store_true")
    args = parser.parse_args()
    if args.aa:
        return run_aa(args, spec)
    if args.workload is None or args.trace is None:
        return run_all(args, spec)
    return run_once(args, spec)


if __name__ == "__main__":
    sys.exit(main())
