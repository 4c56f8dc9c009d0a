"""Effect & determinism analysis over UDFs: the NPL5xx prover.

The engine's retries (PR 2), shuffle elision (PR 5), and the cross-job
artifact cache (PR 7) are only sound when UDFs are pure and
deterministic -- until now that was assumed silently.  This module
*proves* it where it can: a conservative,
interprocedural AST analysis assigns every UDF a tri-state verdict per
effect dimension:

* **purity** -- the UDF mutates no state that outlives the call:
  no ``global``/``nonlocal``, no mutation of captured objects, module
  globals, arguments, or mutable default arguments (stores into their
  subscripts/attributes, calls to known mutating methods).
* **determinism** -- same inputs, same outputs: no module-level
  ``random``, ``time``, ``uuid``, ``secrets``, ``os.urandom``; no
  ``id()``; no ``hash()`` on ``PYTHONHASHSEED``-sensitive values; no
  iteration over ``set``/``frozenset`` (whose order varies run to
  run).  ``dict`` iteration is insertion-ordered in the supported
  Pythons and therefore fine; ``random.Random(seed)`` with an explicit
  seed is fine.
* **io-freedom** -- no external effects: no ``open``/``print``/
  ``input``, no file/network/process modules.

Verdicts are the familiar tri-state of
:func:`~repro.analysis.properties.udf_preserves_key`: ``True``
(*proven*), ``False`` (*refuted*, with located reasons), ``None``
(*unknown* -- some construct escaped the analysis).  The analysis is
conservative by construction: it only answers ``True`` when every
reachable construct is on an explicit allow-list, so an *actual* effect
can never be proven away; anything unmodeled degrades to ``None``.

Interprocedural: calls to bare names are resolved through the
function's closure cells and ``__globals__`` (or, for the static
source pass, the defining module's AST) and analyzed transitively --
a bounded, cycle-safe call-graph walk, so a UDF calling a module-level
helper inherits the helper's effects at the call site.

Consumers:

* :func:`repro.analysis.analyze_udf` / the CLI surface refuted
  dimensions as NPL501 (impure), NPL502 (nondeterministic), NPL503
  (I/O) diagnostics;
* the task runtime gates silent retry on :func:`task_effects`
  verdicts (:mod:`repro.engine.runtime.scheduler`);
* the serve layer keys cross-job artifacts by
  :func:`fingerprint_function` and refuses reuse for refuted programs;
* ``Bag.explain(effects=True)`` renders :func:`effects_notes`.

Import direction: like :mod:`repro.analysis.properties`, this module
imports :mod:`repro.engine.plan` only; the engine reaches back lazily.
"""

import ast
import builtins
import types

from ..engine import plan as p
from ..udf import facts_for, fingerprint_function, unwrap
from .udf_lint import _MUTATING_METHODS

__all__ = [
    "DETERMINISM",
    "IO",
    "PURITY",
    "EffectReason",
    "EffectReport",
    "analyze_effects",
    "combine_reports",
    "effect_diagnostics",
    "effects_notes",
    "fingerprint_function",
    "plan_effects",
    "runtime_resolver",
    "scan_effects",
    "static_resolver",
    "subtree_effects",
    "task_effects",
    "verdict",
]

#: The three effect dimensions.
PURITY = "purity"
DETERMINISM = "determinism"
IO = "io"

_DIMENSIONS = (PURITY, DETERMINISM, IO)

#: Call-graph depth bound of the static (module-AST) resolver; live
#: functions are bounded by :meth:`repro.udf.UdfFacts.derive`.
_MAX_DEPTH = 5

#: Diagnostic code per refuted dimension (see ``diagnostics.CODES``).
DIMENSION_CODES = {PURITY: "NPL501", DETERMINISM: "NPL502", IO: "NPL503"}


def verdict(value):
    """Human name of a tri-state: ``proven`` / ``refuted`` / ``unknown``."""
    if value is True:
        return "proven"
    if value is False:
        return "refuted"
    return "unknown"


class EffectReason:
    """Why a dimension is refuted (or merely unknown).

    Attributes:
        dimension: :data:`PURITY`, :data:`DETERMINISM`, or :data:`IO`.
        refuting: ``True`` for a definite effect, ``False`` for a
            construct that merely escapes the analysis (unknown).
        message: Human-readable description.
        line / col: 1-based source position within the analyzed file
            (0 when unavailable).
    """

    __slots__ = ("dimension", "refuting", "message", "line", "col")

    def __init__(self, dimension, refuting, message, line=0, col=0):
        self.dimension = dimension
        self.refuting = refuting
        self.message = message
        self.line = line
        self.col = col

    def __repr__(self):
        return "EffectReason(%s, %s, %r)" % (
            self.dimension,
            "refuted" if self.refuting else "unknown",
            self.message,
        )


class EffectReport:
    """Tri-state effect verdicts for one UDF (or a combination).

    Attributes:
        pure / deterministic / io_free: ``True`` (proven), ``False``
            (refuted), or ``None`` (unknown).
        reasons: Tuple of :class:`EffectReason` explaining every
            refutation and unknown.
    """

    __slots__ = ("pure", "deterministic", "io_free", "reasons")

    def __init__(self, pure=True, deterministic=True, io_free=True,
                 reasons=()):
        self.pure = pure
        self.deterministic = deterministic
        self.io_free = io_free
        self.reasons = tuple(reasons)

    @classmethod
    def opaque(cls, message):
        """Everything unknown (source unavailable, depth exceeded...)."""
        return cls(
            pure=None, deterministic=None, io_free=None,
            reasons=[
                EffectReason(dim, False, message) for dim in _DIMENSIONS
            ],
        )

    @property
    def proven(self):
        """Proven pure, deterministic, *and* io-free."""
        return (
            self.pure is True
            and self.deterministic is True
            and self.io_free is True
        )

    def value(self, dimension):
        if dimension == PURITY:
            return self.pure
        if dimension == DETERMINISM:
            return self.deterministic
        return self.io_free

    def summary(self):
        """Compact one-line rendering, e.g. ``pure det io-free``."""
        words = {
            PURITY: ("pure", "impure", "pure?"),
            DETERMINISM: ("det", "nondet", "det?"),
            IO: ("io-free", "io", "io?"),
        }
        tokens = []
        for dim in _DIMENSIONS:
            proven_w, refuted_w, unknown_w = words[dim]
            value = self.value(dim)
            if value is True:
                tokens.append(proven_w)
            elif value is False:
                tokens.append(refuted_w)
            else:
                tokens.append(unknown_w)
        return " ".join(tokens)

    def __repr__(self):
        return "EffectReport(pure=%s, deterministic=%s, io_free=%s)" % (
            verdict(self.pure),
            verdict(self.deterministic),
            verdict(self.io_free),
        )


def combine_reports(reports):
    """Merge reports: any refuted wins, else any unknown, else proven.

    Each reason object appears once, however many of ``reports`` carry
    it: a subtree shared by many paths to a plan's root (a diamond)
    would otherwise be copied once per path.
    """
    values = {dim: True for dim in _DIMENSIONS}
    reasons = []
    for report in reports:
        for dim in _DIMENSIONS:
            value = report.value(dim)
            if value is False:
                values[dim] = False
            elif value is None and values[dim] is not False:
                values[dim] = None
        reasons.extend(report.reasons)
    return EffectReport(
        pure=values[PURITY],
        deterministic=values[DETERMINISM],
        io_free=values[IO],
        reasons=dict.fromkeys(reasons),
    )


# ----------------------------------------------------------------------
# Allow/deny tables
# ----------------------------------------------------------------------

#: Builtins that are pure, deterministic and io-free.  ``id``,
#: ``hash``, ``print``, ``open``, ``input`` are handled specially.
_PURE_BUILTINS = frozenset({
    "abs", "all", "any", "bin", "bool", "bytes", "callable", "chr",
    "complex", "dict", "divmod", "enumerate", "filter", "float",
    "format", "frozenset", "getattr", "hasattr", "hex", "int",
    "isinstance", "issubclass", "iter", "len", "list", "map", "max",
    "min", "next", "oct", "ord", "pow", "range", "repr", "reversed",
    "round", "set", "slice", "sorted", "str", "sum", "tuple", "type",
    "zip",
})

#: Builtin calls whose result is a *fresh* object (mutating it cannot
#: touch caller state) -- the crucial ``new = list(old)`` idiom.
_FRESH_BUILDERS = frozenset({
    "dict", "enumerate", "filter", "frozenset", "list", "map", "range",
    "reversed", "set", "sorted", "str", "bytes", "tuple", "zip",
})

#: Modules whose attribute calls are pure, deterministic, io-free.
_PURE_MODULES = frozenset({
    "bisect", "collections", "decimal", "fractions", "functools",
    "heapq", "itertools", "json", "math", "operator", "re",
    "statistics", "string",
})

#: Modules whose attribute calls refute determinism (module-level
#: shared state / wall clocks / entropy).
_NONDET_MODULES = frozenset({"random", "time", "uuid", "secrets"})

#: Modules whose attribute calls refute io-freedom.
_IO_MODULES = frozenset({
    "ftplib", "http", "logging", "pathlib", "requests", "shutil",
    "smtplib", "socket", "sqlite3", "subprocess", "sys", "urllib",
})

_OS_NONDET_ATTRS = frozenset({
    "cpu_count", "getpid", "getppid", "getrandom", "times", "urandom",
})

_OS_IO_ATTRS = frozenset({
    "chdir", "chmod", "chown", "close", "listdir", "makedirs", "mkdir",
    "open", "popen", "read", "remove", "removedirs", "rename",
    "replace", "rmdir", "scandir", "system", "unlink", "walk", "write",
})

_DATETIME_NONDET_ATTRS = frozenset({"now", "time", "today", "utcnow"})

#: Method names that never mutate their receiver (and are
#: deterministic, io-free): str/dict/tuple/set query methods.
_NON_MUTATING_METHODS = frozenset({
    "as_integer_ratio", "bit_length", "capitalize", "casefold", "copy",
    "count", "decode", "difference", "encode", "endswith", "find",
    "format", "get", "hex", "index", "intersection", "isalnum",
    "isalpha", "isdigit", "isdisjoint", "isspace", "issubset",
    "issuperset", "items", "join", "keys", "ljust", "lower", "lstrip",
    "most_common", "partition", "replace", "rfind", "rjust",
    "rpartition", "rsplit", "rstrip", "split", "splitlines",
    "startswith", "strip", "symmetric_difference", "title",
    "total_seconds", "union", "upper", "values", "zfill",
})

#: Value-returning methods of a *locally seeded* ``random.Random``
#: generator: deterministic given the seed, and they touch only the
#: generator's own fresh state.  The module-level twins draw from
#: process-global state and stay refuted.
_SEEDED_RNG_METHODS = frozenset({
    "betavariate", "choice", "choices", "expovariate", "gauss",
    "getrandbits", "normalvariate", "paretovariate", "randint",
    "random", "randrange", "sample", "triangular", "uniform",
    "vonmisesvariate", "weibullvariate",
})

#: Engine plan-building methods (the Bag / LiftedContext DSL): lazy
#: plan construction is pure and deterministic by design, and any UDF
#: arguments passed to them are lambdas inside the scanned body, which
#: the same walk already covers.
_ENGINE_METHODS = frozenset({
    "aggregate_by_key", "as_meta", "bag_of", "binary", "broadcast",
    "cache", "coalesce", "cogroup", "collect", "collect_as_map",
    "collect_per_tag", "count", "count_by_key", "cross", "dataset",
    "distinct", "filter", "flat_map", "fold", "group_by",
    "group_by_key", "is_empty", "join", "key_by", "left_outer_join",
    "map", "map_partitions", "map_values", "map_with_closure",
    "reduce", "reduce_by_key", "sample", "save", "subtract_by_key",
    "sum", "swap", "take", "to_bag", "top", "with_label",
    "zip_with_unique_id",
})


# ----------------------------------------------------------------------
# The scanner
# ----------------------------------------------------------------------


def scan_effects(fndef, resolver=None, line_offset=0, col_offset=0,
                 self_fresh=False, _visited=None, _depth=_MAX_DEPTH):
    """Scan one function AST; returns an :class:`EffectReport`.

    Args:
        fndef: An ``ast.FunctionDef`` / ``ast.AsyncFunctionDef`` /
            ``ast.Lambda``.
        resolver: Optional call resolver (see :class:`_RuntimeResolver`
            / :class:`_StaticResolver`); ``None`` leaves every bare
            call unresolved (unknown).
        line_offset / col_offset: Added to reason positions so they
            map back onto the defining file.
        self_fresh: Treat the first parameter as a *fresh* object --
            used when analyzing a constructor reached through a class
            call, where ``self`` is a brand-new instance.
    """
    scanner = _Scanner(
        fndef, resolver, line_offset, col_offset, self_fresh,
        _visited if _visited is not None else frozenset(), _depth,
    )
    return scanner.run()


class _Scanner:
    def __init__(self, fndef, resolver, line_offset, col_offset,
                 self_fresh, visited, depth):
        self.fndef = fndef
        self.resolver = resolver
        self.line_offset = line_offset
        self.col_offset = col_offset
        self.visited = visited
        self.depth = depth
        self.values = {dim: True for dim in _DIMENSIONS}
        self.reasons = []
        self.params = self._param_names()
        self.mutable_defaults = self._mutable_default_params()
        if self_fresh and self.params:
            self.fresh_self = next(iter(self._ordered_params()))
        else:
            self.fresh_self = None
        self.bound = self._bound_names()
        self.local_callables = self._local_callable_names()

    # -- setup ---------------------------------------------------------

    def _ordered_params(self):
        args = self.fndef.args
        ordered = []
        for arg in (getattr(args, "posonlyargs", []) + args.args
                    + args.kwonlyargs):
            ordered.append(arg.arg)
        if args.vararg:
            ordered.append(args.vararg.arg)
        if args.kwarg:
            ordered.append(args.kwarg.arg)
        return ordered

    def _param_names(self):
        return set(self._ordered_params())

    def _mutable_default_params(self):
        """Parameter names whose default value is a mutable container."""
        args = self.fndef.args
        mutable = set()
        positional = getattr(args, "posonlyargs", []) + args.args
        for arg, default in zip(
            positional[len(positional) - len(args.defaults):],
            args.defaults,
        ):
            if _is_mutable_literal(default):
                mutable.add(arg.arg)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None and _is_mutable_literal(default):
                mutable.add(arg.arg)
        return mutable

    def _bound_names(self):
        """Names bound anywhere inside the function (scope-blind
        over-approximation, the safe direction for capture checks)."""
        bound = set(self.params)
        for node in ast.walk(self.fndef):
            if isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                bound.add(node.id)
            elif isinstance(
                node,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ):
                if node is not self.fndef:
                    bound.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound.add((alias.asname or alias.name).split(".")[0])
            elif isinstance(node, ast.comprehension):
                for target in ast.walk(node.target):
                    if isinstance(target, ast.Name):
                        bound.add(target.id)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                bound.add(node.name)
        return bound

    def _local_callable_names(self):
        """Names whose calls are already covered by this very walk:
        nested ``def``s and names assigned a lambda directly."""
        names = set()
        for node in ast.walk(self.fndef):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and node is not self.fndef:
                names.add(node.name)
            elif (isinstance(node, ast.Assign)
                  and isinstance(node.value, ast.Lambda)):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        return names

    # -- taint fixpoint ------------------------------------------------

    def _compute_taint(self):
        """Two tiers of names that may alias externally-visible state.

        *direct*: parameters, captured/global reads, and simple alias
        chains of those (``x = param``, ``x = param[k]``,
        ``x = obj.attr``) -- mutating one is a *proven* effect.

        *maybe*: anything reached through coarser flows (call results,
        conditionals...) -- mutating one downgrades purity to
        *unknown*, never to refuted, because the alias is speculative.

        An assignment propagates no taint when its right-hand side
        provably constructs a *fresh* object (literal, comprehension,
        class instantiation, copy via ``list()``/``.copy()``/slice).
        Iterated to a fixpoint because ``ast.walk`` order is not
        execution order; both sets over-approximate.
        """
        direct = set(self.params)
        if self.fresh_self is not None:
            direct.discard(self.fresh_self)
        for node in ast.walk(self.fndef):
            if isinstance(node, ast.Name) and isinstance(
                node.ctx, ast.Load
            ) and node.id not in self.bound:
                direct.add(node.id)
        maybe = set(direct)
        assignments = self._assignments()
        changed = True
        while changed:
            changed = False
            for targets, value in assignments:
                if value is None or self._expr_fresh(value):
                    continue
                alias_root = _alias_root(value)
                if alias_root is not None and alias_root in direct:
                    for name in targets:
                        if name not in direct:
                            direct.add(name)
                            changed = True
                if _names_in(value) & maybe:
                    for name in targets:
                        if name not in maybe:
                            maybe.add(name)
                            changed = True
        return direct, maybe

    def _assignments(self):
        """``(target_names, value_expr)`` pairs for taint propagation."""
        pairs = []
        for node in ast.walk(self.fndef):
            if isinstance(node, ast.Assign):
                names = set()
                for target in node.targets:
                    names |= _target_names(target)
                pairs.append((names, node.value))
            elif isinstance(node, ast.AnnAssign):
                pairs.append((_target_names(node.target), node.value))
            elif isinstance(node, ast.AugAssign):
                pairs.append((_target_names(node.target), node.value))
            elif isinstance(node, ast.NamedExpr):
                pairs.append((_target_names(node.target), node.value))
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                pairs.append((_target_names(node.target), node.iter))
            elif isinstance(node, ast.comprehension):
                pairs.append((_target_names(node.target), node.iter))
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if item.optional_vars is not None:
                        pairs.append((
                            _target_names(item.optional_vars),
                            item.context_expr,
                        ))
        return pairs

    def _expr_fresh(self, expr):
        """Does ``expr`` provably construct a fresh object?"""
        if isinstance(expr, (ast.Constant, ast.List, ast.Tuple,
                             ast.Dict, ast.Set, ast.ListComp,
                             ast.SetComp, ast.DictComp,
                             ast.GeneratorExp, ast.Compare,
                             ast.JoinedStr, ast.BinOp, ast.UnaryOp)):
            return True
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name):
                if func.id in self.bound:
                    return False
                if func.id in _FRESH_BUILDERS:
                    return True
                # Class instantiation always yields a new object.
                return (self.resolver is not None
                        and self.resolver.resolves_to_class(func.id))
            if isinstance(func, ast.Attribute) and func.attr == "copy":
                return True
            return False
        if isinstance(expr, ast.Subscript):
            return isinstance(expr.slice, ast.Slice)
        return False

    def _compute_set_valued(self):
        """Names that may hold a ``set``/``frozenset``."""
        set_valued = set()
        assignments = self._assignments()
        changed = True
        while changed:
            changed = False
            for targets, value in assignments:
                if value is None:
                    continue
                if not self._expr_set_valued(value, set_valued):
                    continue
                for name in targets:
                    if name not in set_valued:
                        set_valued.add(name)
                        changed = True
        return set_valued

    def _expr_set_valued(self, expr, set_valued):
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call):
            func = expr.func
            return (isinstance(func, ast.Name)
                    and func.id in ("set", "frozenset")
                    and func.id not in self.bound)
        if isinstance(expr, ast.Name):
            return expr.id in set_valued
        if isinstance(expr, ast.BinOp):
            # set algebra: `a | b` of sets stays a set
            return (self._expr_set_valued(expr.left, set_valued)
                    or self._expr_set_valued(expr.right, set_valued))
        return False

    def _compute_seeded_rngs(self):
        """Local names holding an explicitly seeded ``random.Random``."""
        seeded = set()
        changed = True
        while changed:
            changed = False
            for targets, value in self._assignments():
                if value is None:
                    continue
                if not self._expr_seeded_rng(value, seeded):
                    continue
                for name in targets:
                    if name not in seeded:
                        seeded.add(name)
                        changed = True
        return seeded

    def _expr_seeded_rng(self, expr, seeded):
        if isinstance(expr, ast.Name):
            return expr.id in seeded
        if isinstance(expr, ast.Call) and expr.args:
            dotted = _dotted_parts(expr.func)
            if dotted is None or dotted[-1] != "Random":
                return False
            root = dotted[0]
            return (root not in self.bound
                    and self._module_name(root) == "random")
        return False

    # -- verdict bookkeeping -------------------------------------------

    def _refute(self, dimension, node, message):
        self.values[dimension] = False
        self.reasons.append(EffectReason(
            dimension, True, message,
            line=getattr(node, "lineno", 0) + self.line_offset,
            col=getattr(node, "col_offset", -1) + self.col_offset + 1,
        ))

    def _unknown(self, dimension, node, message):
        if self.values[dimension] is not False:
            self.values[dimension] = None
        self.reasons.append(EffectReason(
            dimension, False, message,
            line=getattr(node, "lineno", 0) + self.line_offset,
            col=getattr(node, "col_offset", -1) + self.col_offset + 1,
        ))

    def _unknown_all(self, node, message):
        for dimension in _DIMENSIONS:
            self._unknown(dimension, node, message)

    def _describe_root(self, name):
        """What kind of external state a tainted root name denotes."""
        if name in self.mutable_defaults:
            return "mutable default argument %r" % name
        if name in self.params:
            return "argument %r" % name
        return "captured or global variable %r" % name

    # -- main pass -----------------------------------------------------

    def run(self):
        self.tainted, self.maybe_tainted = self._compute_taint()
        self.set_valued = self._compute_set_valued()
        self.seeded_rngs = self._compute_seeded_rngs()
        for node in ast.walk(self.fndef):
            self._visit(node)
        return EffectReport(
            pure=self.values[PURITY],
            deterministic=self.values[DETERMINISM],
            io_free=self.values[IO],
            reasons=self.reasons,
        )

    def _visit(self, node):
        if isinstance(node, ast.Global):
            self._refute(
                PURITY, node,
                "global declaration of %s mutates module state"
                % ", ".join(repr(n) for n in node.names),
            )
        elif isinstance(node, ast.Nonlocal):
            self._refute(
                PURITY, node,
                "nonlocal declaration of %s mutates enclosing state"
                % ", ".join(repr(n) for n in node.names),
            )
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                self._check_store(target)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    self._check_store(target)
        elif isinstance(node, ast.Call):
            self._check_call(node)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            self._check_iteration(node.iter)
        elif isinstance(node, ast.comprehension):
            self._check_iteration(node.iter)

    def _check_store(self, target):
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_store(element)
            return
        if isinstance(target, ast.Starred):
            self._check_store(target.value)
            return
        if not isinstance(target, (ast.Subscript, ast.Attribute)):
            return  # rebinding a local name is pure
        root, depth = target, 0
        while isinstance(root, (ast.Subscript, ast.Attribute)):
            root = root.value
            depth += 1
        if isinstance(root, ast.Name):
            if root.id in self.tainted:
                self._refute(
                    PURITY, target,
                    "assignment into %s mutates state that outlives "
                    "the call" % self._describe_root(root.id),
                )
            elif root.id in self.maybe_tainted:
                self._unknown(
                    PURITY, target,
                    "assignment into %r, which may alias state that "
                    "outlives the call" % root.id,
                )
            elif depth > 1:
                # A fresh list/dict is a *shallow* copy: one level of
                # stores rebinds its own slots, deeper stores may hit
                # elements shared with the original.
                self._unknown(
                    PURITY, target,
                    "nested assignment through fresh %r may mutate a "
                    "shared element" % root.id,
                )
        else:
            self._unknown(
                PURITY, target,
                "assignment into an expression whose target cannot be "
                "traced to a fresh object",
            )

    def _check_iteration(self, iter_expr):
        if self._expr_set_valued(iter_expr, self.set_valued):
            self._refute(
                DETERMINISM, iter_expr,
                "iteration over a set: element order depends on "
                "PYTHONHASHSEED and varies across runs",
            )

    # -- calls ---------------------------------------------------------

    def _check_call(self, node):
        func = node.func
        if isinstance(func, ast.Name):
            self._check_name_call(node, func.id)
        elif isinstance(func, ast.Attribute):
            self._check_attribute_call(node, func)
        elif isinstance(func, ast.Lambda):
            pass  # the lambda body is walked by this same scan
        else:
            self._unknown_all(
                node,
                "call through a computed expression; effects unknown",
            )

    def _check_name_call(self, node, name):
        if name in self.bound:
            if name not in self.local_callables:
                self._unknown_all(
                    node,
                    "call to locally-bound callable %r; effects "
                    "unknown" % name,
                )
            return  # nested defs/lambdas: bodies covered by this walk
        if name == "id":
            self._refute(
                DETERMINISM, node,
                "id() depends on object addresses, which vary across "
                "processes and runs",
            )
            return
        if name == "hash":
            if not (len(node.args) == 1
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, (int, bool))):
                self._refute(
                    DETERMINISM, node,
                    "hash() on PYTHONHASHSEED-sensitive values varies "
                    "across interpreter runs",
                )
            return
        if name == "input":
            self._refute(DETERMINISM, node, "input() reads the console")
            self._refute(IO, node, "input() reads the console")
            return
        if name == "print":
            self._refute(IO, node, "print() writes to stdout")
            return
        if name == "open":
            self._refute(IO, node, "open() performs file I/O")
            return
        if name in ("exec", "eval", "compile", "globals", "locals",
                    "vars", "setattr", "delattr"):
            self._unknown_all(
                node, "call to %s(); effects unknown" % name
            )
            return
        if name in _PURE_BUILTINS and not (
            self.resolver is not None
            and self.resolver.shadows_builtin(name)
        ):
            return
        self._resolve_and_merge(node, name)

    def _check_attribute_call(self, node, func):
        dotted = _dotted_parts(func)
        if dotted is not None:
            root = dotted[0]
            if root not in self.bound:
                module = self._module_name(root)
                if module is not None:
                    self._check_module_call(node, module, dotted)
                    return
        # A method call on an object.
        attr = func.attr
        if self._expr_seeded_rng(func.value, self.seeded_rngs):
            if attr in _SEEDED_RNG_METHODS or attr == "seed":
                return
            if attr == "shuffle" and node.args:
                root = node.args[0]
                if isinstance(root, ast.Name):
                    if root.id in self.tainted:
                        self._refute(
                            PURITY, node,
                            "shuffle() reorders %s in place"
                            % self._describe_root(root.id),
                        )
                    elif root.id in self.maybe_tainted:
                        self._unknown(
                            PURITY, node,
                            "shuffle() reorders %r, which may alias "
                            "state that outlives the call" % root.id,
                        )
                    return  # fresh local list: pure, seeded: det
            self._unknown_all(
                node,
                "method call .%s() on a random.Random; effects "
                "unknown" % attr,
            )
            return
        if attr in _MUTATING_METHODS:
            receiver = func.value
            if isinstance(receiver, ast.Name):
                if receiver.id in self.tainted:
                    self._refute(
                        PURITY, node,
                        "call to .%s() mutates %s in place"
                        % (attr, self._describe_root(receiver.id)),
                    )
                elif receiver.id in self.maybe_tainted:
                    self._unknown(
                        PURITY, node,
                        "call to .%s() on %r, which may alias state "
                        "that outlives the call" % (attr, receiver.id),
                    )
                elif (attr == "pop"
                      and receiver.id in self.set_valued
                      and not node.args):
                    self._refute(
                        DETERMINISM, node,
                        "set.pop() removes an arbitrary element",
                    )
            else:
                # A subscript/attribute path (``adj[u].append``) may
                # reach elements shared with the caller even when the
                # container itself is fresh: unknown either way.
                self._unknown(
                    PURITY, node,
                    "call to .%s() on an expression whose receiver "
                    "cannot be traced to a fresh object" % attr,
                )
            return
        if attr in _NON_MUTATING_METHODS or attr in _ENGINE_METHODS:
            return
        self._unknown_all(
            node,
            "method call .%s() on a value of unknown type; effects "
            "unknown" % attr,
        )

    def _module_name(self, root_name):
        """Real module name behind ``root_name``, or None."""
        if self.resolver is not None:
            return self.resolver.module_name(root_name)
        return None

    def _check_module_call(self, node, module, dotted):
        dotted_name = ".".join([module] + list(dotted[1:]))
        attr = dotted[-1]
        if module in _PURE_MODULES:
            return
        if module == "random":
            # An explicitly seeded generator is deterministic; the
            # module-level functions draw from shared unseeded state.
            if attr == "Random" and node.args:
                return
            self._refute(
                DETERMINISM, node,
                "%s() draws from process-global random state"
                % dotted_name,
            )
            return
        if module in _NONDET_MODULES:
            self._refute(
                DETERMINISM, node,
                "%s() is nondeterministic across runs" % dotted_name,
            )
            return
        if module == "os":
            if len(dotted) >= 2 and dotted[1] == "path":
                return  # os.path.* is pure string manipulation
            if attr in _OS_NONDET_ATTRS:
                self._refute(
                    DETERMINISM, node,
                    "%s() is nondeterministic across runs" % dotted_name,
                )
            elif attr in _OS_IO_ATTRS:
                self._refute(
                    IO, node,
                    "%s() touches the filesystem or spawns processes"
                    % dotted_name,
                )
            else:
                self._unknown_all(
                    node, "call to %s(); effects unknown" % dotted_name
                )
            return
        if module == "datetime":
            if attr in _DATETIME_NONDET_ATTRS:
                self._refute(
                    DETERMINISM, node,
                    "%s() reads the wall clock" % dotted_name,
                )
            return
        if module in _IO_MODULES:
            self._refute(
                IO, node,
                "%s() performs external I/O" % dotted_name,
            )
            return
        self._unknown_all(
            node, "call to %s(); effects unknown" % dotted_name
        )

    def _resolve_and_merge(self, node, name):
        """Interprocedural step: inherit a called helper's effects."""
        report = None
        if self.resolver is not None and self.depth > 0:
            report = self.resolver.resolve_call(
                name, self.visited, self.depth - 1
            )
        if report is None:
            if _is_builtin_exception(name):
                return  # constructing (and raising) exceptions is pure
            self._unknown_all(
                node,
                "call to %r is not statically resolvable; effects "
                "unknown" % name,
            )
            return
        for dim in _DIMENSIONS:
            value = report.value(dim)
            if value is True:
                continue
            line = getattr(node, "lineno", 0) + self.line_offset
            col = getattr(node, "col_offset", -1) + self.col_offset + 1
            detail = ""
            for reason in report.reasons:
                if reason.dimension == dim and reason.refuting == (
                    value is False
                ):
                    detail = ": %s" % reason.message
                    break
            if value is False:
                self.values[dim] = False
                self.reasons.append(EffectReason(
                    dim, True,
                    "call to %s()%s" % (name, detail), line, col,
                ))
            else:
                if self.values[dim] is not False:
                    self.values[dim] = None
                self.reasons.append(EffectReason(
                    dim, False,
                    "call to %s()%s" % (name, detail), line, col,
                ))


def _is_mutable_literal(node):
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("list", "dict", "set", "bytearray",
                            "defaultdict", "deque", "Counter")
    )


def _target_names(target):
    """Names *rebound* by an assignment target.

    A store into ``obj.attr`` / ``obj[key]`` does not rebind ``obj``
    (the mutation itself is judged by the purity pass), so only plain
    names -- possibly under tuple/list/star unpacking -- count.
    """
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        names = set()
        for element in target.elts:
            names |= _target_names(element)
        return names
    if isinstance(target, ast.Starred):
        return _target_names(target.value)
    return set()


def _alias_root(expr):
    """The root name of a simple alias expression (``x`` / ``x[k]`` /
    ``x.attr`` chains), or None for anything coarser."""
    node = expr
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_builtin_exception(name):
    value = getattr(builtins, name, None)
    return isinstance(value, type) and issubclass(value, BaseException)


def _names_in(expr):
    return {
        node.id
        for node in ast.walk(expr)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _dotted_parts(func):
    """``("os", "path", "join")`` for a dotted call target, or None."""
    parts = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    parts.reverse()
    return tuple(parts)


# ----------------------------------------------------------------------
# Runtime resolution (live function objects)
# ----------------------------------------------------------------------

class _RuntimeResolver:
    """Resolves bare-name calls the way the live function would:
    closure cells, ``__globals__``, builtins
    (:meth:`repro.udf.UdfFacts.lookup`)."""

    def __init__(self, facts):
        self.lookup = facts.lookup

    def module_name(self, name):
        value = self.lookup(name)
        if isinstance(value, types.ModuleType):
            return value.__name__.rsplit(".", 1)[-1]
        if value is None:
            return name  # fall back to the syntactic name
        return None

    def resolves_to_class(self, name):
        return isinstance(self.lookup(name), type)

    def shadows_builtin(self, name):
        return self.lookup(name) is not getattr(builtins, name, None)

    def resolve_call(self, name, _visited, _depth):
        value = self.lookup(name)
        if value is None:
            return None
        return _analyze_value(value)


#: What a call back into a UDF whose analysis is in progress adds: no
#: new effects beyond what that analysis already collects.
_CYCLE = EffectReport()

_DEEP = EffectReport.opaque("call-graph depth limit reached")


def _analyze_value(value):
    """Effect report for a resolved callable, or None."""
    value, _bindings = unwrap(value)
    if isinstance(value, types.FunctionType):
        # functools.partial / bound method: the wrapped function's
        # effects apply.
        return _analyze_function(value)
    if isinstance(value, type):
        if issubclass(value, BaseException):
            return EffectReport()  # constructing exceptions is pure
        if getattr(value, "__dataclass_fields__", None) is not None:
            # The generated __init__ assigns fields to a fresh
            # instance; only a user __post_init__ can act beyond that.
            post = getattr(value, "__post_init__", None)
            if post is None:
                return EffectReport()
            if isinstance(post, types.FunctionType):
                return _analyze_function(post, self_fresh=True)
            return None
        init = value.__init__
        if init is object.__init__:
            return EffectReport()
        if isinstance(init, types.FunctionType):
            return _analyze_function(init, self_fresh=True)
        return None
    return None


def _analyze_function(fn, self_fresh=False):
    self_fresh = bool(self_fresh)

    def scan(facts):
        if facts.node is None:
            return EffectReport.opaque(
                "source of %r is unavailable" % facts.name
            )
        return scan_effects(
            facts.node,
            resolver=_RuntimeResolver(facts),
            self_fresh=self_fresh,
        )

    return facts_for(fn).derive(
        ("effects", self_fresh), scan, cycle=_CYCLE, deep=_DEEP
    )


def analyze_effects(fn):
    """The :class:`EffectReport` for a live function (memoized).

    Accepts plain functions, lambdas, ``@nested_udf``-decorated
    functions (the pre-rewrite original is analyzed),
    ``functools.partial`` objects, and bound methods.  Functions whose
    source is unavailable get an all-unknown report.
    """
    report = _analyze_value(fn)
    if report is None:
        return EffectReport.opaque(
            "%r is not an analyzable callable" % (fn,)
        )
    return report


def task_effects(fns):
    """Combined report over a task's UDFs (``()`` -> all proven)."""
    return combine_reports([analyze_effects(fn) for fn in fns])


# ----------------------------------------------------------------------
# Static resolution (module source, no imports)
# ----------------------------------------------------------------------


class _StaticResolver:
    """Resolves bare-name calls against a module AST's top-level
    function definitions (the CLI's no-import static pass)."""

    def __init__(self, module_tree):
        self.functions = {}
        self.classes = set()
        if module_tree is not None:
            for node in module_tree.body:
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    self.functions[node.name] = node
                elif isinstance(node, ast.ClassDef):
                    self.classes.add(node.name)

    def module_name(self, name):
        if name in self.functions:
            return None
        return name  # syntactic: `random.random()` reads as module use

    def shadows_builtin(self, name):
        return name in self.functions or name in self.classes

    def resolves_to_class(self, name):
        if name in self.classes:
            return True
        value = getattr(builtins, name, None)
        return isinstance(value, type)

    def resolve_call(self, name, visited, depth):
        fndef = self.functions.get(name)
        if fndef is None:
            return None
        if id(fndef) in visited:
            return EffectReport()
        if depth <= 0:
            return EffectReport.opaque("call-graph depth limit reached")
        return scan_effects(
            fndef,
            resolver=self,
            _visited=visited | {id(fndef)},
            _depth=depth,
        )


def static_resolver(module_tree):
    """A resolver over a parsed module for :func:`scan_effects`."""
    return _StaticResolver(module_tree)


def runtime_resolver(fn):
    """A resolver over a live function's closure cells and globals for
    :func:`scan_effects` -- lets callers scan a located AST (with
    file-absolute offsets) while still resolving helpers at runtime."""
    facts = facts_for(fn)
    if facts is None:
        raise TypeError("%r is not a Python function" % (fn,))
    return _RuntimeResolver(facts)


# ----------------------------------------------------------------------
# Diagnostics (NPL501 / NPL502 / NPL503)
# ----------------------------------------------------------------------


def effect_diagnostics(report, filename="", udf_name="<udf>"):
    """NPL5xx diagnostics for every *refuted* dimension of a report.

    Unknown dimensions produce no diagnostic here -- unknown is the
    analysis saying "no proof either way", which would be noise on
    every non-trivial UDF; only definite effects are reported.
    """
    from .diagnostics import make_diagnostic

    prefixes = {
        PURITY: "UDF %r is impure" % udf_name,
        DETERMINISM: (
            "UDF %r is nondeterministic; task retries and "
            "recomputation may observe different results" % udf_name
        ),
        IO: "UDF %r performs external I/O" % udf_name,
    }
    diags = []
    seen = set()
    for reason in report.reasons:
        if not reason.refuting:
            continue
        code = DIMENSION_CODES[reason.dimension]
        key = (code, reason.message, reason.line, reason.col)
        if key in seen:
            continue
        seen.add(key)
        diags.append(make_diagnostic(
            code,
            "%s: %s" % (prefixes[reason.dimension], reason.message),
            file=filename,
            line=reason.line,
            col=reason.col,
        ))
    return diags


# ----------------------------------------------------------------------
# Plan-level combination and explain notes
# ----------------------------------------------------------------------


def _node_udfs(node):
    """The user functions a plan node executes."""
    if isinstance(node, (p.Map, p.FlatMap, p.Filter, p.MapPartitions,
                         p.ReduceByKey)):
        return (node.fn,)
    return ()


def plan_effects(root):
    """Cumulative subtree effect reports, keyed by ``id(node)``.

    A node's report combines its own UDFs' effects with all of its
    children's reports, so ``plan_effects(root)[id(node)]`` answers
    "is everything needed to (re)compute this node proven pure /
    deterministic / io-free?" -- the question a ``cache()`` on the node
    must answer yes to before it may replace recomputation.
    """
    reports = {}
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        key = id(node)
        if key in reports:
            continue
        if not expanded:
            stack.append((node, True))
            for child in node.children:
                if id(child) not in reports:
                    stack.append((child, False))
            continue
        own = [analyze_effects(fn) for fn in _node_udfs(node)]
        child_reports = [reports[id(child)] for child in node.children]
        reports[key] = combine_reports(own + child_reports)
    return reports


def subtree_effects(root):
    """The combined :class:`EffectReport` of a whole subtree."""
    return plan_effects(root)[id(root)]


def effects_notes(root):
    """Per-node effect annotations for ``Bag.explain(effects=True)``.

    Only nodes that run a UDF carry a note (sources and pure-plumbing
    nodes would all read ``pure det io-free`` and drown the signal).
    """
    notes = {}
    for node in p.iter_nodes(root):
        fns = _node_udfs(node)
        if not fns:
            continue
        notes[id(node)] = task_effects(fns).summary()
    return notes
