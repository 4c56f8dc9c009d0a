"""The ``python -m repro.observe`` command line."""

import json
from pathlib import Path

import pytest

from repro.engine import EngineContext, laptop_config
from repro.observe import RunReport, entry_from_context
from repro.observe.cli import EXIT_REGRESSION, main


@pytest.fixture
def trace_path(tmp_path):
    """A real JSONL trace from a small traced run."""
    path = str(tmp_path / "run.trace.jsonl")
    with EngineContext(laptop_config(), trace=path) as ctx:
        (
            ctx.bag_of(range(50))
            .map(lambda x: (x % 3, x))
            .reduce_by_key(lambda a, b: a + b)
            .collect()
        )
    return path


def save_report(tmp_path, name, seconds):
    entry = {
        "system": "engine",
        "x": 1,
        "status": "ok",
        "simulated_seconds": seconds,
        "measured_task_seconds": seconds / 10.0,
        "measured_wall_seconds": seconds / 5.0,
        "jobs": [],
    }
    path = str(tmp_path / name)
    RunReport(name, entries=[entry]).save(path)
    return path


class TestRender:
    def test_renders_chrome_json(self, trace_path, tmp_path, capsys):
        out = str(tmp_path / "out.json")
        assert main(["render", trace_path, "-o", out]) == 0
        with open(out) as handle:
            doc = json.load(handle)
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
        assert "perfetto" in capsys.readouterr().out

    def test_default_output_path(self, trace_path, tmp_path):
        assert main(["render", trace_path]) == 0
        expected = trace_path.rsplit(".", 1)[0] + ".chrome.json"
        with open(expected) as handle:
            json.load(handle)

    def test_empty_trace_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["render", str(empty)]) == 1
        assert "no events" in capsys.readouterr().err


class TestSummarize:
    def test_summarize_trace(self, trace_path, capsys):
        assert main(["summarize", trace_path]) == 0
        out = capsys.readouterr().out
        assert "events by kind" in out
        assert "stage" in out
        assert "timeline" in out

    def test_summarize_report(self, tmp_path, capsys):
        path = save_report(tmp_path, "r.json", 10.0)
        assert main(["summarize", path]) == 0
        out = capsys.readouterr().out
        assert "entries" in out
        assert "engine@1" in out


class TestDiff:
    def test_ok_exit_zero(self, tmp_path, capsys):
        a = save_report(tmp_path, "a.json", 10.0)
        b = save_report(tmp_path, "b.json", 10.0)
        assert main(["diff", a, b]) == 0
        assert "verdict: ok" in capsys.readouterr().out

    def test_regression_exit_code(self, tmp_path, capsys):
        a = save_report(tmp_path, "a.json", 10.0)
        b = save_report(tmp_path, "b.json", 20.0)
        assert main(["diff", a, b]) == EXIT_REGRESSION
        assert "REGRESSION" in capsys.readouterr().out

    def test_threshold_flag(self, tmp_path):
        a = save_report(tmp_path, "a.json", 10.0)
        b = save_report(tmp_path, "b.json", 12.0)
        assert main(["diff", a, b]) == 0
        assert main(["diff", a, b, "--threshold", "0.1"]) == (
            EXIT_REGRESSION
        )


class TestBenchGate:
    def test_check_regressions_detects_injected_slowdown(
        self, tmp_path, capsys
    ):
        """End-to-end, one run of the matrix: against a copy of the
        committed snapshot that claims one cell used to be 1% faster,
        the gate exits non-zero and names that cell -- and nothing
        else, so the committed file is what this tree simulates.  (What the comparison accepts and rejects
        is tested on data in ``tests/bench/test_baseline.py``.)"""
        from repro.bench import baseline
        from repro.bench.__main__ import main as bench_main

        committed = Path(__file__).parents[2] / baseline.BASELINE_FILENAME
        stored = baseline.load(committed)
        stored["cells"]["reuse-autocache@16"]["simulated_seconds"] /= 1.01
        tampered = str(tmp_path / "tampered.json")
        baseline.save(stored, tampered)
        assert bench_main(
            ["--check-regressions", "--baseline", tampered]
        ) == EXIT_REGRESSION
        found = capsys.readouterr().out.split("\n\n", 1)[1].splitlines()
        assert len(found) == 2 and found[1].startswith("verdict: 1 ")
        assert found[0].strip().startswith(
            "reuse-autocache@16 simulated_seconds: "
        )

    def test_emit_baseline_round_trips(self, tmp_path, capsys, monkeypatch):
        from repro.bench import baseline
        from repro.bench.__main__ import main as bench_main

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(baseline, "CELLS", {
            name: baseline.CELLS[name]
            for name in ("reuse-baseline", "reuse-autocache")
        })
        assert bench_main(["--emit-baseline"]) == 0
        first = Path(baseline.BASELINE_FILENAME).read_text()
        assert bench_main(["--check-regressions"]) == 0
        assert "verdict: ok (4 cells, exact)" in capsys.readouterr().out
        assert bench_main(["--emit-baseline"]) == 0
        assert Path(baseline.BASELINE_FILENAME).read_text() == first
