"""``python -m repro.observe`` -- inspect traces and reports.

Subcommands::

    render TRACE.jsonl [-o OUT.json]      # Chrome trace JSON (Perfetto)
    summarize PATH [--top N]              # trace .jsonl or report .json
    diff BASELINE.json CANDIDATE.json     # per-stage deltas + verdict

``diff`` compares simulated seconds and exits with status 2 when the
candidate regresses past the threshold, lost an entry, or no longer
ends one ``ok`` -- so it can gate CI directly.
"""

import argparse
import json
import sys

from .chrome import write_chrome
from .render import summarize_events, summarize_report
from .report import (
    DEFAULT_MIN_SECONDS,
    DEFAULT_THRESHOLD,
    RunReport,
)
from .sinks import read_events

#: ``diff`` exit status when a regression is detected.
EXIT_REGRESSION = 2


def _load_report_or_events(path):
    """Return ``("report", RunReport)`` or ``("events", [TraceEvent])``.

    A run report is a single JSON object carrying ``schema_version``;
    anything else is treated as a JSON-lines trace.
    """
    with open(path) as handle:
        head = handle.read(4096).lstrip()
    if head.startswith("{"):
        try:
            with open(path) as handle:
                data = json.load(handle)
        except json.JSONDecodeError:
            data = None
        if isinstance(data, dict) and "schema_version" in data:
            return "report", RunReport.from_dict(data)
    return "events", read_events(path)


def cmd_render(args):
    events = read_events(args.trace)
    if not events:
        print("no events in %s" % args.trace, file=sys.stderr)
        return 1
    out = args.output or (args.trace.rsplit(".", 1)[0] + ".chrome.json")
    write_chrome(events, out, label=args.label)
    print(
        "wrote %s (%d events; load it at https://ui.perfetto.dev "
        "or chrome://tracing)" % (out, len(events))
    )
    return 0


def cmd_summarize(args):
    what, payload = _load_report_or_events(args.path)
    if what == "report":
        print(summarize_report(payload, top=args.top))
    else:
        print(
            summarize_events(payload, top=args.top, width=args.width)
        )
    return 0


def cmd_diff(args):
    baseline = RunReport.load(args.baseline)
    candidate = RunReport.load(args.candidate)
    diff = RunReport.compare(
        baseline,
        candidate,
        threshold=args.threshold,
        min_seconds=args.min_seconds,
    )
    print(diff.render(show_ok_stages=args.show_ok))
    return EXIT_REGRESSION if diff.has_regressions else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.observe",
        description="Render, summarize, and diff engine traces/reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    render = sub.add_parser(
        "render", help="export a JSON-lines trace to Chrome trace JSON"
    )
    render.add_argument("trace", help="trace .jsonl file")
    render.add_argument(
        "-o", "--output", help="output path (default: <trace>.chrome.json)"
    )
    render.add_argument(
        "--label", default="repro", help="process name in the viewer"
    )
    render.set_defaults(fn=cmd_render)

    summarize = sub.add_parser(
        "summarize",
        help="terminal summary of a trace .jsonl or a report .json",
    )
    summarize.add_argument("path")
    summarize.add_argument("--top", type=int, default=10)
    summarize.add_argument("--width", type=int, default=64)
    summarize.set_defaults(fn=cmd_summarize)

    diff = sub.add_parser(
        "diff", help="compare two run reports; exit 2 on regression"
    )
    diff.add_argument("baseline", help="reference report .json")
    diff.add_argument("candidate", help="report .json under test")
    diff.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help="relative growth that counts as a regression "
             "(default: %(default)s)",
    )
    diff.add_argument(
        "--min-seconds", type=float, default=DEFAULT_MIN_SECONDS,
        help="absolute growth floor in seconds (default: %(default)s)",
    )
    diff.add_argument(
        "--show-ok", action="store_true",
        help="also print unchanged per-stage rows",
    )
    diff.set_defaults(fn=cmd_diff)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Downstream pager/`head` closed the pipe; not an error.
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 0
