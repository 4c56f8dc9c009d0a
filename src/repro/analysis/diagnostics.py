"""Structured diagnostics for the static analysis passes.

Every finding is a :class:`Diagnostic` carrying a stable flake8-style
code, a severity, a human message, and a location -- either a source
position (``file:line:col``) or a plan-node path (``#id NodeName``).

Code families:

* ``NPL0xx`` -- tool-level notices (unreadable file, skipped module).
* ``NPL1xx`` -- UDF-level constructs the parsing phase cannot lift.
* ``NPL2xx`` -- closure / serialization problems the task runtime would
  hit at launch time.
* ``NPL3xx`` -- plan-level smells and predicted failures.
* ``NPL4xx`` -- partitioning-property findings from
  :mod:`repro.analysis.properties` (redundant or avoidable shuffles).
* ``NPL5xx`` -- effect & determinism findings from
  :mod:`repro.analysis.effects` (impure, nondeterministic, or
  I/O-performing UDFs).
* ``NPL6xx`` -- record schema & shape findings from
  :mod:`repro.analysis.schema` (key-type mismatches, union arity
  mismatches, unhashable shuffle keys).
"""

import json
from dataclasses import asdict, dataclass

ERROR = "error"
WARNING = "warning"
INFO = "info"

#: code -> (severity, one-line summary).  The catalogue is documented
#: with rationale in ``docs/analysis.md``; keep the two in sync.
CODES = {
    # -- tool level -----------------------------------------------------
    "NPL001": (INFO, "file or function skipped by the analyzer"),
    "NPL002": (INFO, "module import failed; closure checks skipped"),
    # -- UDF constructs (parsing phase) ---------------------------------
    "NPL101": (ERROR, "try/except cannot be lifted"),
    "NPL102": (ERROR, "yield makes the UDF a generator"),
    "NPL103": (ERROR, "async constructs cannot be lifted"),
    "NPL104": (ERROR, "global/nonlocal declaration (global mutation)"),
    "NPL105": (ERROR, "with-statement (context-manager side effects)"),
    "NPL106": (ERROR, "match-statement is not rewritten"),
    "NPL107": (ERROR, "break/continue cannot be lifted"),
    "NPL108": (ERROR, "return inside a lifted control-flow construct"),
    "NPL109": (ERROR, "while/else and for/else cannot be lifted"),
    "NPL110": (ERROR, "for-loop shape is not liftable"),
    "NPL111": (ERROR, "binds a reserved staged name (__mz_*)"),
    "NPL120": (WARNING, "mutation of a captured variable"),
    "NPL121": (WARNING, "rebinds range() used by loop desugaring"),
    "NPL122": (WARNING, "nested def/class contains unlifted control flow"),
    "NPL123": (WARNING, "del unthreads a variable from lifted state"),
    # -- closures / serialization ---------------------------------------
    "NPL201": (ERROR, "captured value cannot be serialized"),
    "NPL202": (ERROR, "captures an engine runtime object"),
    "NPL203": (WARNING, "shuffle key type hashes via its repr()"),
    # -- plans -----------------------------------------------------------
    "NPL301": (WARNING, "bag consumed >=2 times without cache()"),
    "NPL302": (WARNING, "key-only filter could be pushed below shuffle"),
    "NPL303": (ERROR, "broadcast build side exceeds executor memory"),
    "NPL304": (WARNING, "redundant back-to-back repartition"),
    # -- partitioning properties -----------------------------------------
    "NPL401": (WARNING, "redundant shuffle on already-partitioned input"),
    "NPL402": (WARNING, "key-rewriting map destroys co-partitioning"),
    "NPL403": (WARNING, "partition-count mismatch forces a reshuffle"),
    "NPL404": (INFO, "a preserves-partitioning hint could elide this "
                     "shuffle"),
    # -- effects & determinism -------------------------------------------
    "NPL501": (WARNING, "UDF provably mutates state that outlives the "
                        "call (impure)"),
    "NPL502": (WARNING, "UDF provably nondeterministic; retries and "
                        "recomputation may observe different results"),
    "NPL503": (WARNING, "UDF performs external I/O"),
    # -- record schemas & shapes ------------------------------------------
    "NPL601": (WARNING, "join/cogroup key types provably mismatch"),
    "NPL602": (WARNING, "union branches have mismatched record shapes"),
    "NPL603": (ERROR, "shuffle key is statically non-hashable"),
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of an analysis pass.

    Attributes:
        code: Stable ``NPLxxx`` identifier (see :data:`CODES`).
        severity: ``"error"``, ``"warning"``, or ``"info"``.
        message: Human-readable description of this occurrence.
        file: Source file, when the finding has a source location.
        line / col: 1-based source position (0 when not applicable).
        node: Plan-node path (``#3 GroupByKey [label]``) for NPL3xx.
    """

    code: str
    severity: str
    message: str
    file: str = ""
    line: int = 0
    col: int = 0
    node: str = ""

    def __str__(self):
        if self.node:
            where = "plan %s" % self.node
        elif self.file:
            where = "%s:%d:%d" % (self.file, self.line, self.col)
        else:
            where = "<unknown>"
        return "%s: %s [%s] %s" % (where, self.code, self.severity,
                                   self.message)


def make_diagnostic(code, message, **location):
    """Build a :class:`Diagnostic`, deriving severity from the registry."""
    severity, _summary = CODES[code]
    return Diagnostic(code=code, severity=severity, message=message,
                      **location)


def sort_key(diagnostic):
    """Deterministic report order: by file, position, then code."""
    return (
        diagnostic.file,
        diagnostic.line,
        diagnostic.col,
        diagnostic.node,
        diagnostic.code,
    )


def filter_diagnostics(diagnostics, select=None, ignore=None):
    """flake8-style prefix filtering.

    Args:
        select: Iterable of code prefixes to keep (``["NPL1", "NPL301"]``);
            ``None`` keeps everything.
        ignore: Iterable of code prefixes to drop; applied after select.
    """
    result = []
    for diag in diagnostics:
        if select is not None and not any(
            diag.code.startswith(prefix) for prefix in select
        ):
            continue
        if ignore and any(
            diag.code.startswith(prefix) for prefix in ignore
        ):
            continue
        result.append(diag)
    return result


def count_by_severity(diagnostics):
    counts = {ERROR: 0, WARNING: 0, INFO: 0}
    for diag in diagnostics:
        counts[diag.severity] = counts.get(diag.severity, 0) + 1
    return counts


def render_text(diagnostics):
    """One flake8-style line per diagnostic."""
    return "\n".join(
        str(diag) for diag in sorted(diagnostics, key=sort_key)
    )


_GITHUB_LEVELS = {ERROR: "error", WARNING: "warning", INFO: "notice"}


def _github_escape(text, property_value=False):
    """Escape a string for a GitHub Actions workflow command."""
    text = text.replace("%", "%25")
    text = text.replace("\r", "%0D").replace("\n", "%0A")
    if property_value:
        text = text.replace(":", "%3A").replace(",", "%2C")
    return text


def render_github(diagnostics):
    """GitHub Actions annotation lines (``::warning file=...::...``).

    One workflow command per diagnostic: errors annotate as ``error``,
    warnings as ``warning``, info as ``notice``.  Source-located
    findings carry ``file``/``line``/``col`` so GitHub attaches them to
    the diff; plan-located findings annotate without a file.
    """
    lines = []
    for diag in sorted(diagnostics, key=sort_key):
        level = _GITHUB_LEVELS.get(diag.severity, "notice")
        params = []
        if diag.file:
            params.append("file=%s" % _github_escape(diag.file, True))
            if diag.line:
                params.append("line=%d" % diag.line)
            if diag.col:
                params.append("col=%d" % diag.col)
        params.append("title=%s" % _github_escape(diag.code, True))
        message = diag.message
        if diag.node:
            message = "plan %s: %s" % (diag.node, message)
        lines.append(
            "::%s %s::%s %s"
            % (level, ",".join(params), diag.code,
               _github_escape(message))
        )
    return "\n".join(lines)


def render_json(diagnostics):
    """A JSON document: the diagnostics plus a severity summary."""
    ordered = sorted(diagnostics, key=sort_key)
    return json.dumps(
        {
            "diagnostics": [asdict(diag) for diag in ordered],
            "summary": count_by_severity(ordered),
        },
        indent=2,
    )


__all__ = [
    "CODES",
    "Diagnostic",
    "ERROR",
    "INFO",
    "WARNING",
    "count_by_severity",
    "filter_diagnostics",
    "make_diagnostic",
    "render_github",
    "render_json",
    "render_text",
    "sort_key",
]
