"""Terminal rendering: timelines and top-N summaries, no dependencies.

Two inputs, same philosophy as the Spark UI's jobs page but in a
terminal: a list of :class:`~repro.observe.events.TraceEvent` (from a
memory sink or a JSON-lines file) or a
:class:`~repro.observe.report.RunReport`.
"""

from .events import (
    KIND_FAULT,
    KIND_JOB,
    KIND_STAGE,
    KIND_STRAGGLER,
    KIND_TASK,
    KIND_TASK_RETRY,
)

_BAR = "#"


def _fmt_s(seconds):
    if seconds is None:
        return "-"
    if seconds >= 100:
        return "%.0fs" % seconds
    if seconds >= 1:
        return "%.2fs" % seconds
    return "%.1fms" % (seconds * 1e3)


def timeline(events, width=64):
    """ASCII timeline of the job and stage spans in ``events``.

    One row per span, indented by kind, with a proportional bar over
    the trace's full time extent.
    """
    spans = [
        e for e in events
        if e.is_span and e.kind in (KIND_JOB, KIND_STAGE)
    ]
    if not spans:
        return "(no job/stage spans in trace)"
    t0 = min(e.ts for e in spans)
    t1 = max(e.end for e in spans)
    extent = max(t1 - t0, 1e-9)
    spans.sort(key=lambda e: (e.ts, -(e.dur or 0.0)))
    name_width = min(44, max(len(e.name) for e in spans) + 2)
    lines = [
        "timeline: %d spans over %s" % (len(spans), _fmt_s(extent))
    ]
    for event in spans:
        indent = "  " if event.kind == KIND_STAGE else ""
        start = int((event.ts - t0) / extent * width)
        length = max(1, int(event.dur / extent * width))
        length = min(length, width - start)
        bar = " " * start + _BAR * length
        lines.append(
            "%-*s |%-*s| %s"
            % (
                name_width, (indent + event.name)[:name_width],
                width, bar, _fmt_s(event.dur),
            )
        )
    return "\n".join(lines)


def top_stages(events, top=10):
    """The ``top`` longest stage spans, with their share of stage time."""
    stages = [e for e in events if e.is_span and e.kind == KIND_STAGE]
    if not stages:
        return "(no stage spans in trace)"
    total = sum(e.dur for e in stages) or 1e-9
    stages.sort(key=lambda e: e.dur, reverse=True)
    lines = [
        "top %d of %d stages by wall-clock (total %s):"
        % (min(top, len(stages)), len(stages), _fmt_s(total))
    ]
    for event in stages[:top]:
        share = 100.0 * event.dur / total
        tasks = event.args.get("tasks", "?")
        lines.append(
            "  %6s  %4.1f%%  tasks=%-5s %s"
            % (_fmt_s(event.dur), share, tasks, event.name)
        )
    return "\n".join(lines)


def summarize_events(events, top=10, width=64):
    """Full text summary of a trace: counts, top stages, timeline."""
    if not events:
        return "(empty trace)"
    kinds = {}
    for event in events:
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
    lanes = sorted({e.lane for e in events})
    task_spans = [
        e for e in events if e.is_span and e.kind == KIND_TASK
    ]
    task_total = sum(e.dur for e in task_spans)
    lines = [
        "trace: %d events, %d lanes (%s)"
        % (len(events), len(lanes), ", ".join(lanes)),
        "events by kind: "
        + ", ".join(
            "%s=%d" % (kind, kinds[kind]) for kind in sorted(kinds)
        ),
        "task attempts: %d spanning %s"
        % (len(task_spans), _fmt_s(task_total)),
    ]
    incidents = []
    for kind, label in (
        (KIND_TASK_RETRY, "retries"),
        (KIND_FAULT, "faults"),
        (KIND_STRAGGLER, "stragglers"),
    ):
        if kinds.get(kind):
            incidents.append("%s=%d" % (label, kinds[kind]))
    if incidents:
        lines.append("incidents: " + ", ".join(incidents))
    lines.append("")
    lines.append(top_stages(events, top=top))
    lines.append("")
    lines.append(timeline(events, width=width))
    return "\n".join(lines)


def summarize_report(report, top=10):
    """Text summary of a :class:`~repro.observe.report.RunReport`."""
    lines = [
        "report %r: %d entries (schema v1)"
        % (report.label, len(report.entries))
    ]
    rows = []
    for entry in report.entries:
        totals = entry.get("totals", {})
        rows.append(
            (
                "%s@%s" % (entry.get("system"), entry.get("x")),
                entry.get("status", "?"),
                _fmt_s(entry.get("simulated_seconds")),
                _fmt_s(entry.get("measured_task_seconds")),
                str(totals.get("stages", "-")),
                str(totals.get("shuffle_records", "-")),
                str(totals.get("retries", "-")),
            )
        )
    header = (
        "entry", "status", "simulated", "task-time", "stages", "shuffle",
        "retries",
    )
    widths = [
        max(len(header[i]), max((len(r[i]) for r in rows), default=0))
        for i in range(len(header))
    ]
    lines.append(
        "  ".join(h.ljust(w) for h, w in zip(header, widths))
    )
    for row in rows:
        lines.append(
            "  ".join(c.ljust(w) for c, w in zip(row, widths))
        )
    stages = [
        (
            stage.get("simulated_seconds") or 0.0,
            "%s@%s job%d/stage%d:%s%s"
            % (
                entry.get("system"), entry.get("x"),
                j, stage.get("stage_id", s),
                stage.get("kind", "?"),
                "<-%s" % stage["origin"] if stage.get("origin") else "",
            ),
        )
        for entry in report.entries
        for j, job in enumerate(entry.get("jobs") or [])
        for s, stage in enumerate(job.get("stages") or [])
    ]
    if stages:
        stages.sort(reverse=True)
        lines.append("")
        lines.append("top %d stages by simulated seconds:" % top)
        for seconds, key in stages[:top]:
            lines.append("  %8s  %s" % (_fmt_s(seconds), key))
    return "\n".join(lines)
