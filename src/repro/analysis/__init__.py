"""Static diagnostics for nested UDFs and dataflow plans.

The analysis layer moves failures that used to surface mid-job (or not
at all) to decoration / plan-build time, as flake8-style diagnostics:

* **NPL1xx** (:mod:`udf_lint`) -- constructs in ``@nested_udf`` bodies
  the parsing phase cannot lift (try/except, yield, global mutation,
  captured-state mutation, staged-name shadowing), with precise source
  locations.
* **NPL2xx** (:mod:`closure_lint`) -- captured values the task
  runtime's serde layer cannot ship: the launch-time
  ``SerializationError`` reported at import time instead.
* **NPL3xx** (:mod:`plan_lint`) -- plan smells and predicted failures:
  uncached reuse, pushable filters, oversized broadcasts (simulated-OOM
  prediction), redundant repartitions.
* **NPL5xx** (:mod:`effects`) -- proven effects in UDFs: mutation of
  state that outlives the call (NPL501), nondeterminism that retries
  or recomputation would observe (NPL502) and external I/O (NPL503).
* **NPL6xx** (:mod:`schema`) -- record schema & shape findings from
  whole-plan type inference: join/cogroup key-type mismatch (NPL601),
  union shape mismatch (NPL602) and statically non-hashable shuffle
  keys (NPL603).

Entry points::

    python -m repro.analysis src/repro/tasks examples   # CLI / CI
    nested_udf(strict=True)                             # at decoration
    bag.collect(lint="error")                           # before a job
    analyze_udf(fn); analyze_plan(bag.node, config)     # as a library
"""

import ast

from ..udf import facts_for
from .closure_lint import analyze_closure
from .effects import (
    EffectReason,
    EffectReport,
    analyze_effects,
    effect_diagnostics,
    effects_notes,
    fingerprint_function,
    plan_effects,
    scan_effects,
    static_resolver,
    subtree_effects,
    task_effects,
)
from .diagnostics import (
    CODES,
    Diagnostic,
    ERROR,
    INFO,
    WARNING,
    count_by_severity,
    filter_diagnostics,
    make_diagnostic,
    render_github,
    render_json,
    render_text,
    sort_key,
)
from .plan_lint import analyze_bag, analyze_plan
from .properties import (
    PlanProperties,
    infer_properties,
    partitioning_notes,
    udf_preserves_key,
)
from .schema import (
    PlanSchemas,
    hashable_verdict,
    infer_schemas,
    infer_udf_schema,
    schema_diagnostics,
    schema_notes,
)
from .udf_lint import first_unsupported, scan_function

__all__ = [
    "CODES",
    "Diagnostic",
    "ERROR",
    "EffectReason",
    "EffectReport",
    "INFO",
    "PlanProperties",
    "WARNING",
    "analyze_bag",
    "analyze_closure",
    "analyze_effects",
    "analyze_plan",
    "analyze_source",
    "analyze_udf",
    "count_by_severity",
    "effect_diagnostics",
    "effects_notes",
    "filter_diagnostics",
    "fingerprint_function",
    "first_unsupported",
    "hashable_verdict",
    "infer_properties",
    "infer_schemas",
    "infer_udf_schema",
    "make_diagnostic",
    "partitioning_notes",
    "PlanSchemas",
    "plan_effects",
    "render_github",
    "render_json",
    "render_text",
    "scan_effects",
    "scan_function",
    "schema_diagnostics",
    "schema_notes",
    "sort_key",
    "static_resolver",
    "subtree_effects",
    "task_effects",
    "udf_preserves_key",
]


def analyze_udf(fn, closure=True):
    """All UDF-level diagnostics (NPL1xx + NPL2xx + NPL5xx effect
    refutations) for one function.

    Accepts either a plain function or one already decorated with
    ``@nested_udf`` (the pre-rewrite original is analyzed).  Locations
    point at the defining file.
    """
    facts = facts_for(fn)
    name = facts.name if facts is not None else getattr(fn, "__name__", fn)
    diags = []
    if facts is None or not isinstance(
        facts.node, (ast.FunctionDef, ast.AsyncFunctionDef)
    ):
        diags.append(
            make_diagnostic(
                "NPL001",
                "source of %r is unavailable (lambda or interactively "
                "defined); UDF construct checks skipped" % name,
            )
        )
    else:
        diags.extend(scan_function(
            facts.node, facts.filename, facts.line_offset,
            facts.col_offset,
        ))
        diags.extend(effect_diagnostics(
            analyze_effects(fn), filename=facts.filename, udf_name=name
        ))
    if closure:
        diags.extend(analyze_closure(fn))
    return sorted(diags, key=sort_key)


def analyze_source(source, filename="<source>"):
    """NPL1xx diagnostics for every decorated UDF in a source string.

    Scans the module AST for functions decorated with ``nested_udf`` /
    ``lifted`` (bare, attribute, or called form) and lints each body.
    Line numbers are file-absolute.  Also the CLI's static pass.
    """
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        return [
            make_diagnostic(
                "NPL001",
                "file could not be parsed: %s" % exc,
                file=filename,
                line=exc.lineno or 0,
                col=exc.offset or 0,
            )
        ]
    diags = []
    resolver = static_resolver(tree)
    for fndef in _decorated_functions(tree):
        diags.extend(scan_function(fndef, filename))
        report = scan_effects(fndef, resolver=resolver)
        diags.extend(effect_diagnostics(
            report, filename=filename, udf_name=fndef.name
        ))
    return sorted(diags, key=sort_key)


_DECORATOR_NAMES = frozenset({"nested_udf", "lifted"})


def _decorated_functions(tree):
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for decorator in node.decorator_list:
            if _is_udf_decorator(decorator):
                yield node
                break


def _is_udf_decorator(node):
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id in _DECORATOR_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in _DECORATOR_NAMES
    return False
