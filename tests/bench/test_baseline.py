"""The engine baseline matrix: the exact gate, the committed snapshot,
and the service-mode and pipeline cells.

The gate (``repro.bench.baseline.differences``) is tested on data: the
committed snapshot against tampered copies of itself, never by
re-running the matrix.

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

import copy
import math
import re
import sys
from pathlib import Path

import pytest

from repro.bench import baseline
from repro.bench.baseline import (
    _GROUP_COUNTS,
    _pipeline_cell,
    _serve_pagerank_cell,
    BASELINE_FILENAME,
    CELLS,
    differences,
)
from repro.engine import codegen

COMMITTED = Path(__file__).resolve().parents[2] / BASELINE_FILENAME
CELL = "kmeans-matryoshka@4"


def _scale(factor):
    def tamper(cells):
        cells[CELL]["simulated_seconds"] *= factor
    return tamper


def _bump_total(cells):
    cells[CELL]["totals"]["shuffle_records"] += 1


def _change_stage(cells):
    cells[CELL]["jobs"][3][4][2] += 1


def _ulp(cells):
    row = cells[CELL]
    row["simulated_seconds"] = math.nextafter(
        row["simulated_seconds"], math.inf
    )
    row["jobs"][3][4][5] = math.nextafter(row["jobs"][3][4][5], 0.0)


#: id -> (what is done to a copy of the stored cells, the cell every
#: reported line must name, what the first line says; None: no lines).
TAMPERINGS = {
    "slower": (_scale(1.01), CELL, CELL + " simulated_seconds: stored"),
    "faster": (_scale(0.99), CELL, CELL + " simulated_seconds: stored"),
    "total": (
        _bump_total, CELL,
        "totals.shuffle_records: stored 2632, this run 2631",
    ),
    "stage": (
        _change_stage, CELL,
        "job3/stage4 tasks: stored 1201, this run 1200",
    ),
    "removed": (
        lambda cells: cells.pop(CELL), CELL,
        "in this run, not in the file",
    ),
    "added": (
        lambda cells: cells.update({"ghost@4": cells[CELL]}), "ghost@4",
        "in the file, not in this run",
    ),
    "status": (
        lambda cells: cells[CELL].update(status="oom"), CELL,
        "status: stored 'oom', this run 'ok'",
    ),
    "untouched": (lambda cells: None, CELL, None),
    "one-ulp": (_ulp, CELL, None),
}


class TestExactGate:
    """``differences(stored, runs)`` on the committed snapshot."""

    @pytest.mark.parametrize("case", TAMPERINGS)
    def test_only_an_equal_file_passes(self, case):
        tamper, cell, first_line = TAMPERINGS[case]
        stored = baseline.load(COMMITTED)
        runs = list(copy.deepcopy(stored["cells"]).items())
        tamper(stored["cells"])
        found = differences(stored, runs)
        if first_line is None:
            assert found == []
        else:
            assert found and first_line in found[0]
            assert all(line.startswith(cell) for line in found)

    def test_an_older_format_is_refused(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text('{"schema_version": 1, "entries": []}')
        with pytest.raises(ValueError, match="--emit-baseline"):
            baseline.load(path)


class TestCommittedSnapshot:
    def test_is_small_and_holds_only_the_simulated_clock(self):
        text = COMMITTED.read_text()
        assert len(text) < 100_000
        assert not re.search(
            r"measured|wall|straggler|retries|failed_attempt", text
        )

    def test_cells_are_exactly_the_matrix(self):
        cells = list(baseline.load(COMMITTED)["cells"])
        assert cells == [
            "%s@%s" % (system, groups)
            for system in CELLS for groups in _GROUP_COUNTS
        ]
        assert len(cells) == 22

    def test_is_what_save_writes(self, tmp_path):
        path = tmp_path / "again.json"
        baseline.save(baseline.load(COMMITTED), path)
        assert path.read_text() == COMMITTED.read_text()


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
        cells = baseline.load(COMMITTED)["cells"]
        for groups in _GROUP_COUNTS:
            cold = cells["serve-pagerank-cold@%d" % groups]
            warm = cells["serve-pagerank-warm@%d" % groups]
            assert warm["simulated_seconds"] < cold["simulated_seconds"]


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
