"""Layers point downward: ``repro.udf`` is a stdlib-only leaf, the
engine never loads ``repro.analysis`` on import, and the upward imports
that remain are function-local and listed in ``docs/architecture.md``.
DESIGN.md's module inventory names the modules that exist.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"


def _python(script):
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={"PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_the_leaf_loads_no_other_repro_module():
    # Loaded by path: `import repro.udf` would run repro/__init__.py,
    # which imports the engine for its re-exports.
    loaded = _python(
        "import importlib.util, sys\n"
        "spec = importlib.util.spec_from_file_location('leaf', %r)\n"
        "module = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(module)\n"
        "print(*[m for m in sys.modules if m.split('.')[0] == 'repro'])\n"
        % str(SRC / "udf.py")
    )
    assert loaded == []


def test_importing_the_engine_leaves_analysis_unloaded():
    loaded = _python(
        "import sys, repro.engine, repro.serve\n"
        "print(*[m for m in sys.modules if m.startswith('repro.')])\n"
    )
    assert "repro.udf" in loaded
    assert not [m for m in loaded if m.startswith("repro.analysis")]


def _analysis_imports():
    """``(file, outermost enclosing function or None, module)`` for
    every import of ``repro.analysis`` under engine and serve."""
    found = set()

    def visit(node, path, function):
        if function is None and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            function = node.name
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            package_depth = len(path.relative_to(SRC).parts)
            if node.level == package_depth and (
                module.split(".")[0] == "analysis"
            ):
                found.add((
                    str(path.relative_to(SRC)), function,
                    "repro." + module,
                ))
        for child in ast.iter_child_nodes(node):
            visit(child, path, function)

    for package in ("engine", "serve"):
        for path in sorted((SRC / package).rglob("*.py")):
            visit(ast.parse(path.read_text()), path, None)
    return found


def test_lazy_upward_imports_are_exactly_the_documented_ones():
    text = (ROOT / "docs" / "architecture.md").read_text()
    section = text[text.index("<!-- lazy-imports:begin -->"):
                   text.index("<!-- lazy-imports:end -->")]
    documented = set(re.findall(
        r"^- `([\w/.]+)` · `(\w+)` → `([\w.]+)`", section, re.MULTILINE
    ))
    assert documented == _analysis_imports()  # None: module scope
    # Lowering UDF bodies into the generated loop reads functions
    # through ``repro.udf`` only: the count has not moved since PR 17.
    assert len(documented) == 10


def test_one_module_reads_source_and_one_walks_closure_cells():
    for needle in ("inspect.getsource", "co_freevars"):
        users = [
            str(path.relative_to(SRC))
            for path in sorted(SRC.rglob("*.py"))
            if needle in path.read_text()
        ]
        assert users == ["udf.py"], needle


def test_design_inventory_matches_the_tree():
    text = (ROOT / "DESIGN.md").read_text()
    section = text[text.index("## Module inventory"):]
    block = section.split("```")[1]
    named = set(re.findall(r"^ +([\w/]+\.py) ", block, re.MULTILINE))
    modules = {
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if path.name not in ("__init__.py", "__main__.py")
    }
    assert named - modules == set()  # every path named exists
    assert modules - named == set()  # every module is named
