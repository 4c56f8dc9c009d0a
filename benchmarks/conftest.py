"""Shared benchmark plumbing.

Every benchmark regenerates one of the paper's figures: it runs the
experiment (real execution on the simulated cluster), prints the table of
simulated runtimes the figure plots, and asserts the paper's orderings on
it.  How long the harness itself takes is not reported here; wall-clock is
measured, with repeats, by ``benchmarks/wall``.

Set ``REPRO_BENCH_SCALE=full`` to reproduce the paper's full sweep ranges
instead of the quick ones.
"""

import os

import pytest

SCALE = os.environ.get("REPRO_BENCH_SCALE", "quick")


@pytest.fixture
def figure_benchmark():
    """Run a figure experiment and print its table."""

    def run(figure_fn, *args, **kwargs):
        sweep = figure_fn(*args, **kwargs)
        sweep.print_table()
        return sweep

    return run
