"""The engine baseline matrix: the service-mode and pipeline cells.

The ``serve-pagerank-*`` pair runs repeated PageRank jobs through one
long-lived :class:`repro.serve.JobService`; the only difference between
the rows is the artifact budget, so warm must beat cold by exactly the
cost the cache removes -- and the committed ``BENCH_engine.json``
snapshot must show the same advantage, since ``--check-regressions``
gates it.

The ``pipeline-*`` trio differs only in ``compile_pipelines`` and
``schema_inference``: the compiled rows must simulate *exactly* the
interpreted row's seconds (the generated loops credit identical
per-operator counts); wall-clock is asserted only on the committed
snapshot (compiled at least 2x lower on the serial rows), never on a
live single sample.
"""

import json
from pathlib import Path

from repro.bench.baseline import (
    _GROUP_COUNTS,
    _SCHEDULERS,
    _pipeline_cell,
    _serve_pagerank_cell,
    BASELINE_FILENAME,
    CELLS,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Wall-clock advantage the committed compiled rows must show over the
#: interpreted rows on the serial backend.
_COMMITTED_SPEEDUP_FLOOR = 2.0

#: No live run is timed here: one sample cannot order interpreted,
#: compiled and columnar-direct wall-clock, so that comparison belongs
#: to ``benchmarks/wall`` (``chain_default`` vs ``chain_fast``).


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
        assert "pipeline-interpreted" in CELLS
        assert "pipeline-compiled" in CELLS
        assert "pipeline-columnar-direct" in CELLS

    def test_compiled_simulates_identical_seconds(self):
        interpreted = _pipeline_cell("pipeline-interpreted", 4)
        compiled = _pipeline_cell("pipeline-compiled", 4)
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

    def test_columnar_direct_simulates_identical_seconds(self):
        compiled = _pipeline_cell("pipeline-compiled", 4)
        direct = _pipeline_cell("pipeline-columnar-direct", 4)
        assert compiled.status == "ok"
        assert direct.status == "ok"
        # Reading column buffers directly must credit exactly the same
        # per-operator counts as decoding them through the probe path.
        assert direct.seconds == compiled.seconds
        assert (
            direct.entry["totals"]["records"]
            == compiled.entry["totals"]["records"]
        )

    def test_committed_snapshot_has_compiled_speedup(self):
        data = json.loads((REPO_ROOT / BASELINE_FILENAME).read_text())
        rows = {
            (entry["system"], entry["x"]): entry
            for entry in data["entries"]
        }
        for groups in _GROUP_COUNTS:
            interpreted = rows["pipeline-interpreted", groups]
            compiled = rows["pipeline-compiled", groups]
            assert (
                compiled["simulated_seconds"]
                == interpreted["simulated_seconds"]
            )
            ratio = (
                interpreted["measured_wall_seconds"]
                / compiled["measured_wall_seconds"]
            )
            assert ratio >= _COMMITTED_SPEEDUP_FLOOR, (
                "committed compiled row at %d groups only %.2fx faster"
                % (groups, ratio)
            )

    def test_committed_snapshot_columnar_direct_credits_same_work(self):
        data = json.loads((REPO_ROOT / BASELINE_FILENAME).read_text())
        rows = {
            (entry["system"], entry["x"]): entry
            for entry in data["entries"]
        }
        for groups in _GROUP_COUNTS:
            for scheduler in _SCHEDULERS:
                suffix = "" if scheduler == "serial" else "+dag"
                interpreted = rows["pipeline-interpreted" + suffix, groups]
                compiled = rows["pipeline-compiled" + suffix, groups]
                direct = rows[
                    "pipeline-columnar-direct" + suffix, groups
                ]
                # Identical credited work across all three rows.
                assert (
                    direct["simulated_seconds"]
                    == compiled["simulated_seconds"]
                    == interpreted["simulated_seconds"]
                )
