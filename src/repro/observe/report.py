"""Run reports: one schema-versioned JSON per measured engine run.

A :class:`RunReport` merges, per run ("entry") and per stage, the three
views the rest of the repo keeps separately:

* **simulated** seconds -- the cost model over the execution trace (the
  paper's figures);
* **measured** seconds -- real wall-clock: driver elapsed time per run
  and the task runtime's summed per-task seconds per stage;
* **volume and robustness** counters -- shuffle records/bytes, spills,
  broadcast volume, retries, straggler flags.

Reports persist as JSON (``save``/``load``, ``schema_version`` checked
on load) and diff structurally on **simulated** seconds:
:func:`RunReport.compare` matches entries by ``(system, x)`` and stages
positionally within each job, producing per-stage deltas and a
regression verdict per entry -- the contract ``python -m repro.observe
diff`` is built on.  An entry the candidate lost, or one that no longer
ends ``ok``, is a regression like a slower one.  Measured seconds are
carried for reading, never compared: one sample cannot order two runs
(``benchmarks/wall`` is the instrument for that).  The committed
engine baseline is a different, exact comparison
(:mod:`repro.bench.baseline`).
"""

import json
import math

SCHEMA_VERSION = 1

#: Default regression gate: fail when a metric grows by more than 25%...
DEFAULT_THRESHOLD = 0.25
#: ... and by more than this many absolute seconds (guards tiny stages).
DEFAULT_MIN_SECONDS = 1e-3


def _entry_key(entry):
    return (str(entry.get("system")), str(entry.get("x")))


def _stage_bytes(stage, config):
    rate = (
        config.result_record_bytes if stage.meta
        else config.bytes_per_record
    )
    return int(stage.shuffle_read_records * rate)


def _stage_bytes_saved(stage, config):
    """Bytes the optimizer's shuffle elision kept off the wire."""
    rate = (
        config.result_record_bytes if stage.meta
        else config.bytes_per_record
    )
    return int(stage.shuffle_records_saved * rate)


def _stage_entry(stage, cost, config):
    return {
        "stage_id": stage.stage_id,
        "kind": stage.kind,
        "origin": stage.origin,
        "meta": stage.meta,
        "tasks": stage.num_tasks,
        "records": stage.total_records,
        "shuffle_records": stage.shuffle_read_records,
        "shuffle_bytes": _stage_bytes(stage, config),
        "shuffle_records_saved": stage.shuffle_records_saved,
        "shuffle_bytes_saved": _stage_bytes_saved(stage, config),
        "spilled_records": stage.spilled_records,
        "measured_seconds": stage.measured_seconds,
        "failed_attempt_seconds": stage.failed_attempt_seconds,
        "simulated_seconds": cost.total_s,
        "retries": stage.task_retries,
        "stragglers": stage.straggler_tasks,
    }


def job_entry(job, cost_model):
    """One :class:`JobMetrics` as self-contained JSON data: scalars per
    job and per stage, nothing per task.  Costs each stage once."""
    costs = [cost_model.stage_cost(stage) for stage in job.stages]
    return {
        "job_id": job.job_id,
        "action": job.action,
        "label": job.label,
        "simulated_seconds": cost_model.job_cost(job, costs).total_s,
        "measured_task_seconds": job.measured_task_seconds,
        "broadcast_records": job.broadcast_records,
        "collected_records": job.collected_records,
        "stages": [
            _stage_entry(stage, cost, cost_model.config)
            for stage, cost in zip(job.stages, costs)
        ],
    }


def entry_totals(jobs):
    """The ``totals`` block of a report entry over :func:`job_entry`
    dicts."""
    stages = [stage for job in jobs for stage in job["stages"]]

    def total(key):
        return sum(stage[key] for stage in stages)

    return {
        "jobs": len(jobs),
        "stages": len(stages),
        "tasks": total("tasks"),
        # Summed job by job, as JobMetrics.total_records is.
        "records": sum(
            sum(stage["records"] for stage in job["stages"])
            for job in jobs
        ),
        "shuffle_records": total("shuffle_records"),
        "shuffle_bytes": total("shuffle_bytes"),
        "shuffle_records_saved": total("shuffle_records_saved"),
        "shuffle_bytes_saved": total("shuffle_bytes_saved"),
        "spilled_records": total("spilled_records"),
        "retries": total("retries"),
        "stragglers": total("stragglers"),
        "failed_attempt_seconds": total("failed_attempt_seconds"),
    }


def entry_from_job_entries(jobs, backend, system, x, status="ok",
                           measured_wall_seconds=None, detail=""):
    """Fold :func:`job_entry` dicts into one report entry.

    What :func:`entry_from_jobs` does once the jobs are summarized --
    for callers that kept the summaries and let the metrics go (the
    :mod:`repro.serve` daemon's per-tenant window).  ``jobs``, a list,
    becomes part of the entry, not a copy of it.
    """
    return {
        "system": system,
        "x": x,
        "status": status,
        "detail": detail,
        "backend": backend,
        "simulated_seconds": (
            sum(job["simulated_seconds"] for job in jobs)
            if status == "ok" else None
        ),
        "measured_task_seconds": sum(
            job["measured_task_seconds"] for job in jobs
        ),
        "measured_wall_seconds": measured_wall_seconds,
        "totals": entry_totals(jobs),
        "jobs": jobs,
    }


def entry_from_jobs(job_metrics, cost_model, system, x, status="ok",
                    measured_wall_seconds=None, detail=""):
    """Summarize a list of :class:`JobMetrics` as one report entry.

    The general form of :func:`entry_from_context`: it takes the job
    list directly instead of a context's live trace.  The entry is
    self-contained JSON data: per-job and per-stage breakdowns
    (:func:`job_entry`) plus run-level totals
    (:func:`entry_from_job_entries`).  ``status`` mirrors the bench
    harness (``"ok"`` / ``"oom"`` / ``"skipped"``).
    """
    return entry_from_job_entries(
        [job_entry(job, cost_model) for job in job_metrics],
        cost_model.config.backend, system, x, status=status,
        measured_wall_seconds=measured_wall_seconds, detail=detail,
    )


def entry_from_context(ctx, system, x, status="ok",
                       measured_wall_seconds=None, detail=""):
    """Summarize everything ``ctx`` ran as one report entry (a dict).

    Delegates to :func:`entry_from_jobs` over the context's live trace.
    """
    return entry_from_jobs(
        ctx.trace.jobs, ctx.cost_model, system, x, status=status,
        measured_wall_seconds=measured_wall_seconds, detail=detail,
    )


class RunReport:
    """A labelled collection of run entries, persistable and diffable."""

    def __init__(self, label, entries=None, meta=None):
        self.label = label
        self.entries = list(entries) if entries else []
        self.meta = dict(meta) if meta else {}

    # -- construction --------------------------------------------------

    def add(self, entry):
        if entry is not None:
            self.entries.append(entry)
        return self

    def entry_for(self, system, x):
        for entry in self.entries:
            if _entry_key(entry) == (str(system), str(x)):
                return entry
        return None

    # -- persistence ---------------------------------------------------

    def to_dict(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "label": self.label,
            "meta": self.meta,
            "entries": self.entries,
        }

    def save(self, path):
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    @classmethod
    def from_dict(cls, data):
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(
                "unsupported report schema_version %r (this build "
                "reads version %d)" % (version, SCHEMA_VERSION)
            )
        return cls(
            data.get("label", ""),
            entries=data.get("entries", []),
            meta=data.get("meta", {}),
        )

    @classmethod
    def load(cls, path):
        with open(path) as handle:
            return cls.from_dict(json.load(handle))

    # -- comparison ----------------------------------------------------

    @staticmethod
    def compare(baseline, candidate, threshold=DEFAULT_THRESHOLD,
                min_seconds=DEFAULT_MIN_SECONDS):
        """Diff two reports' simulated seconds; see :class:`ReportDiff`.

        Args:
            baseline: The reference :class:`RunReport`.
            candidate: The report under test.
            threshold: Relative growth beyond which a matched entry or
                stage is a regression (0.25 = 25% slower).
            min_seconds: Absolute growth floor below which nothing is
                flagged (protects sub-millisecond stages from noise).
        """
        return ReportDiff(baseline, candidate, threshold=threshold,
                          min_seconds=min_seconds)


class Delta:
    """One before/after pair with its verdict."""

    __slots__ = ("key", "before", "after", "regression", "improvement")

    def __init__(self, key, before, after, threshold, min_seconds):
        self.key = key
        self.before = before
        self.after = after
        self.regression = False
        self.improvement = False
        if before is None or after is None:
            return
        if math.isnan(before) or math.isnan(after):
            return
        if after > before * (1 + threshold) and (
            after - before
        ) > min_seconds:
            self.regression = True
        elif before > after * (1 + threshold) and (
            before - after
        ) > min_seconds:
            self.improvement = True

    @property
    def delta(self):
        if self.before is None or self.after is None:
            return None
        return self.after - self.before

    @property
    def percent(self):
        if self.before in (None, 0) or self.after is None:
            return None
        return 100.0 * (self.after - self.before) / self.before

    def verdict(self):
        if self.regression:
            return "REGRESSION"
        if self.improvement:
            return "improved"
        return "ok"


class ReportDiff:
    """Structural diff of two :class:`RunReport` objects.

    Attributes:
        entry_deltas: One :class:`Delta` per entry present in both
            reports (keyed ``system@x``).
        stage_deltas: Per-stage :class:`Delta` rows for matched entries
            (keyed ``system@x job<j>/stage<s>:<kind><-origin``).
        missing: Entry keys only in the baseline (a regression: the
            candidate lost a run).
        added: Entry keys only in the candidate.
        broken: ``system@x: ok -> <status>`` for every matched entry
            that ended ``ok`` in the baseline and does not in the
            candidate (a regression, whatever its seconds read).
    """

    def __init__(self, baseline, candidate, threshold=DEFAULT_THRESHOLD,
                 min_seconds=DEFAULT_MIN_SECONDS):
        self.baseline = baseline
        self.candidate = candidate
        self.threshold = threshold
        self.min_seconds = min_seconds
        self.entry_deltas = []
        self.stage_deltas = []
        self.missing = []
        self.added = []
        self.broken = []
        self._build()

    def _build(self):
        before = {
            _entry_key(entry): entry for entry in self.baseline.entries
        }
        after = {
            _entry_key(entry): entry for entry in self.candidate.entries
        }
        self.missing = sorted(
            "%s@%s" % key for key in before if key not in after
        )
        self.added = sorted(
            "%s@%s" % key for key in after if key not in before
        )
        for key, entry_a in before.items():
            entry_b = after.get(key)
            if entry_b is None:
                continue
            label = "%s@%s" % key
            status_a = entry_a.get("status", "ok")
            status_b = entry_b.get("status", "ok")
            if status_a == "ok" and status_b != "ok":
                self.broken.append("%s: ok -> %s" % (label, status_b))
            self.entry_deltas.append(
                Delta(
                    label,
                    entry_a.get("simulated_seconds"),
                    entry_b.get("simulated_seconds"),
                    self.threshold,
                    self.min_seconds,
                )
            )
            self._build_stages(label, entry_a, entry_b)

    def _build_stages(self, label, entry_a, entry_b):
        jobs_a = entry_a.get("jobs") or []
        jobs_b = entry_b.get("jobs") or []
        for j, (job_a, job_b) in enumerate(zip(jobs_a, jobs_b)):
            stages_a = job_a.get("stages") or []
            stages_b = job_b.get("stages") or []
            for s, (stage_a, stage_b) in enumerate(
                zip(stages_a, stages_b)
            ):
                origin = stage_a.get("origin") or stage_b.get("origin")
                key = "%s job%d/stage%d:%s%s" % (
                    label, j, s, stage_a.get("kind", "?"),
                    "<-%s" % origin if origin else "",
                )
                self.stage_deltas.append(
                    Delta(
                        key,
                        stage_a.get("simulated_seconds"),
                        stage_b.get("simulated_seconds"),
                        self.threshold,
                        self.min_seconds,
                    )
                )

    # -- verdicts ------------------------------------------------------

    @property
    def regressions(self):
        return [d for d in self.entry_deltas if d.regression]

    @property
    def stage_regressions(self):
        return [d for d in self.stage_deltas if d.regression]

    @property
    def has_regressions(self):
        return bool(
            self.regressions or self.stage_regressions
            or self.missing or self.broken
        )

    # -- rendering -----------------------------------------------------

    def render(self, show_ok_stages=False):
        """Human-readable diff: entry table plus flagged stage rows."""
        lines = [
            "report diff: %s -> %s  (simulated seconds, threshold=+%d%%)"
            % (
                self.baseline.label, self.candidate.label,
                round(self.threshold * 100),
            )
        ]
        for name in self.missing:
            lines.append("  missing in candidate: %s  [REGRESSION]" % name)
        for name in self.added:
            lines.append("  new in candidate: %s" % name)
        for change in self.broken:
            lines.append("  status %s  [REGRESSION]" % change)
        for delta in self.entry_deltas:
            lines.append("  %s" % _format_delta(delta))
        flagged = [
            d for d in self.stage_deltas
            if show_ok_stages or d.regression or d.improvement
        ]
        if flagged:
            lines.append("  per-stage deltas:")
            for delta in flagged:
                lines.append("    %s" % _format_delta(delta))
        if not self.entry_deltas:
            lines.append("  (no comparable entries)")
        lines.append(
            "verdict: %s"
            % (
                "REGRESSION (%d entry, %d stage, %d missing, %d not ok)"
                % (
                    len(self.regressions), len(self.stage_regressions),
                    len(self.missing), len(self.broken),
                )
                if self.has_regressions
                else "ok"
            )
        )
        return "\n".join(lines)


def _format_delta(delta):
    def fmt(value):
        return "-" if value is None else "%.3fs" % value

    percent = delta.percent
    change = "" if percent is None else " (%+.1f%%)" % percent
    return "%-60s %s -> %s%s  [%s]" % (
        delta.key, fmt(delta.before), fmt(delta.after), change,
        delta.verdict(),
    )
