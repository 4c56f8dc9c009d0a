"""``docs/codegen.md`` quotes generated source; hold it to the generator.

Every fenced block that starts with ``_ENV =`` is announced by a
``<!-- generate_source: NAME -->`` comment, and ``NAME`` names a chain
below.  The block must be, character for character, what the planner
generates for that chain today.
"""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

from repro.engine.codegen import generate_source, plan_compiled_task
from repro.engine.runtime.task import STEP_FILTER, STEP_FLATMAP, STEP_MAP

ROOT = Path(__file__).resolve().parents[2]
DOC = (ROOT / "docs" / "codegen.md").read_text()

QUOTED = re.compile(
    r"<!-- generate_source: (?P<name>[\w-]+) -->\n```python\n(?P<source>.*?)```",
    re.DOTALL,
)


def _benchmark_chain():
    """The chain ``chain_default`` runs, from the benchmark's own file
    (which imports its siblings by bare name)."""
    wall = ROOT / "benchmarks" / "wall"
    sys.path.insert(0, str(wall))
    try:
        spec = importlib.util.spec_from_file_location(
            "_wall_workloads", wall / "workloads.py"
        )
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    finally:
        sys.path.remove(str(wall))
    kinds = {"map": STEP_MAP, "filter": STEP_FILTER}
    steps = [
        (kinds[kind], fn, "%s#%d" % (kind, index))
        for index, (kind, fn) in enumerate(workloads.CHAIN_STEPS)
    ]
    task, reason = plan_compiled_task(steps, fold=(workloads.add, "add"))
    assert reason is None
    return task.source


CHAINS = {
    "kept-calls": lambda: generate_source(
        [STEP_MAP, STEP_FILTER, STEP_FLATMAP]
    ),
    "benchmark-chain": _benchmark_chain,
    "fold-called": lambda: generate_source([STEP_FLATMAP], fold=True),
}


def test_every_quoted_source_is_announced_and_known():
    announced = [match["name"] for match in QUOTED.finditer(DOC)]
    assert sorted(announced) == sorted(CHAINS)
    assert DOC.count("```python\n_ENV = ") == len(announced)


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_quoted_source_is_what_the_generator_emits(name):
    (quoted,) = [
        match["source"] for match in QUOTED.finditer(DOC)
        if match["name"] == name
    ]
    assert quoted == CHAINS[name]()
