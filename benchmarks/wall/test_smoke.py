"""Smoke test of the wall-clock benchmark; not part of tier-1.

    python3 -m pytest benchmarks/wall/test_smoke.py

Runs every workload as the driver would (three ops, both passes) and
checks the output against ``BENCHMARK.json`` and the names and bounds
of the issue that defined the benchmark.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
#: The issue's end-to-end metrics and the share each may worsen by.
#: ``failed_share`` may not rise at all; the driver takes no end-to-end
#: metric that can be 0, so it is listed with the per-layer metrics.
BOUNDS = {
    "op_wall_s_p50": 0.08, "op_wall_s_p90": 0.15, "ops_per_s": 0.08,
    "setup_s": 0.20, "peak_rss_mb": 0.10,
}


def test_spec_is_well_formed():
    assert WORKLOADS == [
        "nested_serial", "chain_default", "chain_fast", "serve_closed_loop",
    ]
    assert {m["name"]: m["bound"] for m in SPEC["end_to_end"]} == BOUNDS
    assert "failed_share" in [m["name"] for m in SPEC["per_layer"]]
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = WORKLOADS + [metric["name"] for metric in metrics]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert all(metric["unit"] for metric in metrics)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_run_meets_the_contract(workload, trace, tmp_path):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "13", "--ops", "3",
         "--trace", str(trace), "--out", str(tmp_path)],
        stdout=subprocess.PIPE, text=True, timeout=180,
    )
    assert done.returncode == 0
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        cell = result["metrics"][metric["name"]]
        assert cell["unit"] == metric["unit"]
        assert isinstance(cell["value"], (int, float))
        if not trace:
            assert cell["value"] > 0
    # Every run prints the six end-to-end names or every layer name.
    printed = {
        line.split()[0]: float(line.split()[1])
        for line in done.stdout.splitlines()
        if len(line.split()) == 3 and line.split()[0] != "workload"
    }
    assert printed["failed_share"] == 0
    if not trace:
        assert set(printed) == set(BOUNDS) | {"failed_share"}
    if trace:
        with open(tmp_path / ("spans.%s.json" % workload)) as spans_file:
            spans = json.load(spans_file)["spans"]
        ids = {span["id"] for span in spans}
        assert spans and all(
            span["parent"] is None or span["parent"] in ids
            for span in spans
        )
        assert all(span["end"] >= span["start"] for span in spans)
