"""The engine baseline matrix: the service-mode and pipeline cells.

The ``serve-pagerank-*`` pair runs repeated PageRank jobs through one
long-lived :class:`repro.serve.JobService`; the only difference between
the rows is the artifact budget, so warm must beat cold by exactly the
cost the cache removes -- and the committed ``BENCH_engine.json``
snapshot must show the same advantage, since ``--check-regressions``
gates it.

The ``pipeline`` cell runs a chain large enough to compile: the
generated loop must simulate *exactly* the interpreter's seconds (both
credit identical per-operator counts).  Wall-clock is never asserted
here: one sample cannot order the two bodies, so that comparison
belongs to ``benchmarks/wall``.
"""

import json
import sys
from pathlib import Path

from repro.bench.baseline import (
    _GROUP_COUNTS,
    _SCHEDULERS,
    _pipeline_cell,
    _serve_pagerank_cell,
    BASELINE_FILENAME,
    CELLS,
)
from repro.engine import codegen

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestServeCells:
    def test_matrix_includes_service_mode(self):
        assert "serve-pagerank-cold" in CELLS
        assert "serve-pagerank-warm" in CELLS

    def test_warm_cache_beats_cold(self):
        cold = _serve_pagerank_cell("serve-pagerank-cold", 4)
        warm = _serve_pagerank_cell("serve-pagerank-warm", 4)
        assert cold.status == "ok"
        assert warm.status == "ok"
        assert warm.seconds < cold.seconds
        # The warm repeats read the cached graph artifacts instead of
        # re-parsing and re-shuffling the edge list every time.
        assert (
            warm.entry["totals"]["shuffle_records"]
            < cold.entry["totals"]["shuffle_records"]
        )
        assert (
            warm.entry["totals"]["records"]
            < cold.entry["totals"]["records"]
        )

    def test_warm_cell_is_deterministic(self):
        a = _serve_pagerank_cell("serve-pagerank-warm", 4)
        b = _serve_pagerank_cell("serve-pagerank-warm", 4)
        assert a.seconds == b.seconds

    def test_committed_snapshot_has_warm_advantage(self):
        data = json.loads((REPO_ROOT / BASELINE_FILENAME).read_text())
        rows = {
            (entry["system"], entry["x"]): entry["simulated_seconds"]
            for entry in data["entries"]
        }
        for groups in _GROUP_COUNTS:
            for scheduler in _SCHEDULERS:
                suffix = "" if scheduler == "serial" else "+dag"
                cold = rows["serve-pagerank-cold" + suffix, groups]
                warm = rows["serve-pagerank-warm" + suffix, groups]
                assert warm < cold


class TestPipelineCells:
    def test_matrix_includes_pipeline_pair(self):
        assert "pipeline" in CELLS

    def test_compiled_simulates_identical_seconds(self, monkeypatch):
        codegen.clear_compiled_cache()
        with monkeypatch.context() as patch:
            patch.setattr(codegen, "COMPILE_MIN_RECORD_STEPS", sys.maxsize)
            interpreted = _pipeline_cell("pipeline", 4)
        assert codegen.compiled_cache_size() == 0
        # The cell as committed is large enough to compile.
        compiled = _pipeline_cell("pipeline", 4)
        assert codegen.compiled_cache_size() == 1
        assert interpreted.status == "ok"
        assert compiled.status == "ok"
        # Not approximately: the generated loop credits exactly the
        # interpreter's per-operator record counts, so the cost model
        # sees the same trace.
        assert compiled.seconds == interpreted.seconds
        assert (
            compiled.entry["totals"]["records"]
            == interpreted.entry["totals"]["records"]
        )
