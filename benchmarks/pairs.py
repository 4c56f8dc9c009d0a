"""The benchmark gate's arithmetic over alternating parent/change runs.

    python3 benchmarks/pairs.py PARENT_DIR CHANGE_DIR [--workload W ...]
        [--pairs 10] [--seconds S] [--ops N]

Runs ``benchmarks/wall/run.py --workload W --trace 0`` in the two
checkouts alternately (the order flips every pair) and prints, per
workload and end-to-end metric of ``BENCHMARK.json``: both medians with
[q1, q3], the pairs the change won or tied, and the change's quartile
distance against ``bound x parent median`` (``WIDE`` when above it: the
driver cannot resolve such a metric and refuses the change, however
good its median).  Exits 1 when the exact counts differ, an op failed,
or a median is worse than the parent's by more than its bound.  A gain
is claimed only with >= 9 of 10 pairs won and medians further apart
than the parent's own quartile distance: the last column's ``gain``.
Fewer than three pairs judge no timing (``unresolved``); counts and
failures are still checked, which is what CI's A/A smoke step runs.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout, workload, extra):
    """One untraced run; ``(metrics, failed, exact)`` from its output."""
    done = subprocess.run(
        [sys.executable, "benchmarks/wall/run.py", "--workload", workload,
         "--trace", "0"] + extra,
        cwd=checkout, stdout=subprocess.PIPE, text=True,
    )
    lines = done.stdout.splitlines()
    detail = [ln for ln in lines if ln.startswith("detail ")]
    if not detail:
        sys.exit("%s: %s printed no result:\n%s"
                 % (checkout, workload, done.stdout[-2000:]))
    result = json.loads(lines[-1])
    return (
        {name: cell["value"] for name, cell in result["metrics"].items()},
        result["failed"] + (not result["correct"]),
        json.loads(detail[-1][len("detail "):])["exact"],
    )


def quartiles(values):
    """``(q1, median, q3)``; a single run is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds")
    parser.add_argument("--ops")
    args = parser.parse_args()
    spec = json.loads((Path(args.change) / "BENCHMARK.json").read_text())
    extra = []
    for flag in ("seconds", "ops"):
        if getattr(args, flag):
            extra += ["--" + flag, getattr(args, flag)]
    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        parent, change = [], []
        sides = [(args.parent, parent), (args.change, change)]
        for pair in range(args.pairs):
            for checkout, runs in sides[::-1] if pair % 2 else sides:
                runs.append(run(checkout, workload, extra))
        print("\n%s: %d pairs" % (workload, args.pairs))
        print("%-14s %-31s %-31s %9s %17s  %s" % (
            "metric", "parent median [q1, q3]", "change median [q1, q3]",
            "won/tied", "spread vs allowed", "verdict"))
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = -1 if metric["better"] == "lower" else 1
            a = [r[0][name] for r in parent]
            b = [r[0][name] for r in change]
            (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
            won = sum(sign * (y - x) > 0 for x, y in zip(a, b))
            tied = sum(x == y for x, y in zip(a, b))
            gain = sign * (bm - am)
            verdict = "ok"
            if args.pairs < 3:
                # One or two runs a side have no spread to judge by.
                verdict = "unresolved"
            elif gain < -bound * am:
                verdict, ok = "WORSE", False
            elif won >= 0.9 * args.pairs and gain > a3 - a1:
                verdict = "gain"
            if b3 - b1 > bound * am:
                verdict += " WIDE"
            print("%-14s %-31s %-31s %6d/%-2d %8.4g/%-8.4g  %+.1f%% %s" % (
                name, "%.4g [%.4g, %.4g]" % (am, a1, a3),
                "%.4g [%.4g, %.4g]" % (bm, b1, b3), won, tied,
                b3 - b1, bound * am, 100 * (bm - am) / am, verdict))
        failed = [sum(r[1] for r in side) for side in (parent, change)]
        exact = {json.dumps(r[2], sort_keys=True) for r in parent + change}
        print("failed ops: parent %d, change %d; exact counts %s: %s" % (
            failed[0], failed[1],
            "equal" if len(exact) == 1 else "DIFFER", " vs ".join(exact)),
            flush=True)
        ok = ok and not any(failed) and len(exact) == 1
    print("\npairs: %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
