"""Experiment harness: run a task under each system, report simulated time.

Each run gets a fresh :class:`EngineContext` over the experiment's
cluster configuration.  The program executes for real; the reported
seconds come from the cost model over the recorded trace.  Simulated OOM
is caught and reported the way the paper's plots mark failed runs.

This package carries the **simulated** clock and nothing else: a table,
a CSV and the committed baseline are deterministic functions of the
program and the cluster config.  Wall-clock questions -- how long the
Python engine really takes, serial against process pool -- need repeated
samples with spread and belong to ``benchmarks/wall``
(``ctx.measure()`` is the programmatic API).
"""

import math
from dataclasses import dataclass, field

from ..engine import EngineContext
from ..errors import SimulatedOutOfMemory
from ..observe import RunReport, entry_from_context

OOM = "OOM"


@dataclass
class RunResult:
    """Outcome of one run."""

    system: str
    x: object
    seconds: float = math.nan
    status: str = "ok"
    jobs: int = 0
    detail: str = ""
    #: Full :mod:`repro.observe` report entry (per-job / per-stage
    #: breakdown) for this run; ``None`` for hand-built results.
    entry: dict = None

    @property
    def failed(self):
        return self.status != "ok"

    def cell(self):
        if self.status == "oom":
            return OOM
        if self.status == "skipped":
            return "-"
        return _format_seconds(self.seconds)


def run_measured(config, system, x, fn):
    """Run ``fn(ctx)`` on a fresh context; return a :class:`RunResult`.

    The trace is checked against the invariants of
    :mod:`repro.engine.validate` before it is costed: a figure must
    never be computed from a malformed trace.
    """
    ctx = EngineContext(config)
    try:
        try:
            fn(ctx)
        except SimulatedOutOfMemory as oom:
            return RunResult(
                system=system,
                x=x,
                status="oom",
                jobs=ctx.trace.num_jobs,
                detail=str(oom),
                entry=entry_from_context(
                    ctx, system, x, status="oom", detail=str(oom),
                ),
            )
        ctx.validate_trace()
        return RunResult(
            system=system,
            x=x,
            seconds=ctx.simulated_seconds(),
            jobs=ctx.trace.num_jobs,
            entry=entry_from_context(ctx, system, x),
        )
    finally:
        # Flush the run's trace sink (contexts resolve REPRO_TRACE on
        # construction, so traced bench runs append to a shared file).
        ctx.close()


@dataclass
class Sweep:
    """One experiment: systems x sweep values, rendered as a table.

    Attributes:
        title: Table heading (e.g. ``"Fig. 3b: weak scaling, PageRank"``).
        x_label: Name of the sweep parameter column.
        systems: Column order.
        results: All collected :class:`RunResult` rows.
    """

    title: str
    x_label: str
    systems: list
    results: list = field(default_factory=list)

    def add(self, result):
        self.results.append(result)

    def run(self, config, system, x, fn):
        result = run_measured(config, system, x, fn)
        self.add(result)
        return result

    def result_for(self, system, x):
        for result in self.results:
            if result.system == system and result.x == x:
                return result
        return None

    def seconds(self, system, x):
        """Simulated seconds of one cell, or None if missing/failed."""
        result = self.result_for(system, x)
        if result is None or result.failed:
            return None
        return result.seconds

    def speedup(self, baseline, system, x):
        """How much faster ``system`` is than ``baseline`` at ``x``."""
        base = self.seconds(baseline, x)
        ours = self.seconds(system, x)
        if base is None or ours is None or ours == 0:
            return None
        return base / ours

    def x_values(self):
        seen = []
        for result in self.results:
            if result.x not in seen:
                seen.append(result.x)
        return seen

    def to_table(self):
        """Aligned text table: one row per x value, one column per system."""
        header = [self.x_label] + list(self.systems)
        rows = [header]
        for x in self.x_values():
            row = [str(x)]
            for system in self.systems:
                result = self.result_for(system, x)
                row.append(result.cell() if result else "-")
            rows.append(row)
        widths = [
            max(len(row[i]) for row in rows) for i in range(len(header))
        ]
        lines = [self.title, "=" * len(self.title)]
        for index, row in enumerate(rows):
            lines.append(
                "  ".join(
                    cell.rjust(width) for cell, width in zip(row, widths)
                )
            )
            if index == 0:
                lines.append(
                    "  ".join("-" * width for width in widths)
                )
        return "\n".join(lines)

    def print_table(self):
        print()
        print(self.to_table())

    def to_report(self, label, meta=None):
        """The sweep as a :class:`repro.observe.RunReport`.

        One report entry per collected result (hand-built results
        without an entry are skipped); diffable against another saved
        report with :meth:`repro.observe.RunReport.compare`.
        """
        report = RunReport(label, meta=meta)
        for result in self.results:
            report.add(result.entry)
        return report

    def to_csv(self):
        """The sweep as CSV text (x column + one column per system).

        Failed cells render as ``OOM``; missing cells are empty.  Handy
        for plotting the figures with external tooling.
        """
        lines = [",".join([self.x_label] + list(self.systems))]
        for x in self.x_values():
            row = [str(x)]
            for system in self.systems:
                result = self.result_for(system, x)
                if result is None:
                    row.append("")
                elif result.failed:
                    row.append(OOM)
                else:
                    row.append("%.3f" % result.seconds)
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def _format_seconds(seconds):
    if seconds != seconds:  # NaN
        return "-"
    if seconds >= 100:
        return "%.0f s" % seconds
    if seconds >= 1:
        return "%.1f s" % seconds
    return "%.2f s" % seconds


def geometric_x_values(start, stop, factor=2):
    """Sweep values ``start, start*factor, ... <= stop`` (inclusive)."""
    values = []
    x = start
    while x <= stop:
        values.append(x)
        x *= factor
    return values
