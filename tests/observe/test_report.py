"""Run reports: building from contexts, persistence, and comparison."""

import pytest

from repro.engine import EngineContext, laptop_config
from repro.observe import RunReport, entry_from_context
from repro.observe.report import SCHEMA_VERSION


def run_small_job(ctx, points=60):
    (
        ctx.bag_of(range(points))
        .map(lambda x: (x % 5, x))
        .reduce_by_key(lambda a, b: a + b)
        .collect()
    )


@pytest.fixture
def entry():
    with EngineContext(laptop_config()) as ctx:
        run_small_job(ctx)
        return entry_from_context(
            ctx, "engine", 60, measured_wall_seconds=0.5
        )


class TestEntryFromContext:
    def test_totals_match_trace(self, entry):
        assert entry["system"] == "engine"
        assert entry["x"] == 60
        assert entry["status"] == "ok"
        assert entry["simulated_seconds"] > 0
        assert entry["totals"]["jobs"] == 1
        assert entry["totals"]["stages"] == len(
            entry["jobs"][0]["stages"]
        )
        assert entry["totals"]["records"] > 0
        assert entry["totals"]["retries"] == 0

    def test_stage_entries_carry_all_views(self, entry):
        stage = entry["jobs"][0]["stages"][0]
        for key in (
            "kind", "tasks", "records", "shuffle_records",
            "shuffle_bytes", "measured_seconds", "simulated_seconds",
            "failed_attempt_seconds", "retries", "stragglers",
        ):
            assert key in stage
        assert stage["simulated_seconds"] > 0

    def test_per_stage_simulated_sums_close_to_job(self, entry):
        """Stage costs are the per-stage terms of the job cost; the job
        adds only job-level overheads on top, so the stage sum must not
        exceed the job figure."""
        job = entry["jobs"][0]
        stage_sum = sum(
            stage["simulated_seconds"] for stage in job["stages"]
        )
        assert 0 < stage_sum <= job["simulated_seconds"] + 1e-9


class TestPersistence:
    def test_save_load_round_trip(self, entry, tmp_path):
        path = str(tmp_path / "report.json")
        report = RunReport("baseline", entries=[entry],
                           meta={"note": "x"})
        report.save(path)
        loaded = RunReport.load(path)
        assert loaded.label == "baseline"
        assert loaded.meta == {"note": "x"}
        assert loaded.entries == [entry]

    def test_schema_version_checked(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text('{"schema_version": %d, "entries": []}'
                        % (SCHEMA_VERSION + 1))
        with pytest.raises(ValueError, match="schema_version"):
            RunReport.load(str(path))

    def test_entry_for(self, entry):
        report = RunReport("r", entries=[entry])
        assert report.entry_for("engine", 60) is entry
        assert report.entry_for("engine", 61) is None


def synthetic_entry(system, x, seconds, stage_seconds=None):
    stages = [
        {
            "stage_id": i,
            "kind": "narrow",
            "origin": "",
            "meta": False,
            "simulated_seconds": s,
            "measured_seconds": s / 10.0,
        }
        for i, s in enumerate(stage_seconds or [seconds])
    ]
    return {
        "system": system,
        "x": x,
        "status": "ok",
        "simulated_seconds": seconds,
        "measured_task_seconds": seconds / 10.0,
        "measured_wall_seconds": seconds / 5.0,
        "jobs": [{"stages": stages}],
    }


class TestCompare:
    def test_identical_reports_are_ok(self):
        a = RunReport("a", entries=[synthetic_entry("s", 1, 10.0)])
        b = RunReport("b", entries=[synthetic_entry("s", 1, 10.0)])
        diff = RunReport.compare(a, b)
        assert not diff.has_regressions
        assert [d.verdict() for d in diff.entry_deltas] == ["ok"]

    def test_regression_flagged_past_threshold(self):
        a = RunReport("a", entries=[synthetic_entry("s", 1, 10.0)])
        b = RunReport("b", entries=[synthetic_entry("s", 1, 14.0)])
        diff = RunReport.compare(a, b, threshold=0.25)
        assert diff.has_regressions
        (delta,) = diff.regressions
        assert delta.key == "s@1"
        assert delta.verdict() == "REGRESSION"
        assert "REGRESSION" in diff.render()

    def test_growth_below_threshold_is_ok(self):
        a = RunReport("a", entries=[synthetic_entry("s", 1, 10.0)])
        b = RunReport("b", entries=[synthetic_entry("s", 1, 11.0)])
        assert not RunReport.compare(a, b, threshold=0.25).has_regressions

    def test_improvement_flagged(self):
        a = RunReport("a", entries=[synthetic_entry("s", 1, 10.0)])
        b = RunReport("b", entries=[synthetic_entry("s", 1, 5.0)])
        diff = RunReport.compare(a, b)
        (delta,) = diff.entry_deltas
        assert delta.improvement
        assert not diff.has_regressions

    def test_min_seconds_floor_suppresses_noise(self):
        """A 10x blowup of a microsecond-scale stage is not a
        regression."""
        a = RunReport("a", entries=[synthetic_entry("s", 1, 1e-5)])
        b = RunReport("b", entries=[synthetic_entry("s", 1, 1e-4)])
        assert not RunReport.compare(a, b).has_regressions

    def test_stage_level_regression_detected(self):
        a = RunReport(
            "a",
            entries=[synthetic_entry("s", 1, 10.0, [5.0, 5.0])],
        )
        b = RunReport(
            "b",
            entries=[synthetic_entry("s", 1, 10.5, [5.0, 5.5])],
        )
        diff = RunReport.compare(a, b, threshold=0.05)
        assert diff.stage_regressions
        assert "job0/stage1" in diff.stage_regressions[0].key

    def test_missing_and_added_entries(self):
        a = RunReport("a", entries=[synthetic_entry("s", 1, 10.0)])
        b = RunReport("b", entries=[synthetic_entry("s", 2, 10.0)])
        diff = RunReport.compare(a, b)
        assert diff.missing == ["s@1"]
        assert diff.added == ["s@2"]
        assert not diff.entry_deltas

    def test_missing_entry_is_a_regression(self):
        a = RunReport("a", entries=[
            synthetic_entry("s", 1, 10.0), synthetic_entry("s", 2, 10.0),
        ])
        b = RunReport("b", entries=[synthetic_entry("s", 1, 10.0)])
        diff = RunReport.compare(a, b)
        assert diff.missing == ["s@2"]
        assert diff.has_regressions
        assert "missing in candidate: s@2" in diff.render()
        # The other way round the candidate only gained a run.
        assert not RunReport.compare(b, a).has_regressions

    def test_lost_ok_status_is_a_regression(self):
        oom = synthetic_entry("s", 1, 10.0)
        oom["status"] = "oom"
        a = RunReport("a", entries=[synthetic_entry("s", 1, 10.0)])
        b = RunReport("b", entries=[oom])
        diff = RunReport.compare(a, b)
        assert diff.broken == ["s@1: ok -> oom"]
        assert diff.has_regressions
        assert "status s@1: ok -> oom" in diff.render()
        # A run that was failing and now ends ok is no regression.
        assert not RunReport.compare(b, a).has_regressions

    def test_oom_entries_compare_without_crashing(self):
        oom = synthetic_entry("s", 1, 10.0)
        oom["status"] = "oom"
        oom["simulated_seconds"] = None
        a = RunReport("a", entries=[synthetic_entry("s", 1, 10.0)])
        b = RunReport("b", entries=[oom])
        diff = RunReport.compare(a, b)
        (delta,) = diff.entry_deltas
        assert delta.after is None
        assert "REGRESSION" in diff.render()
