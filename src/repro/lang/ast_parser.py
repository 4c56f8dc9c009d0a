"""The parsing phase: source-to-source rewriting of plain Python UDFs.

The paper performs this phase with Scala macros at compile time; here it
is Python ``ast`` rewriting at decoration time.  Division of labour:

* *Scalar operations* need no rewriting -- operator overloading on
  :class:`~repro.core.primitives.InnerScalar` stages ``a + b`` and friends
  at runtime (the dynamic equivalent of ``binaryScalarOp``).
* *Control flow statements* are rewritten into the higher-order functions
  of :mod:`repro.core.control_flow` (paper Sec. 6.1): ``while`` becomes a
  ``while_loop(state, cond_fn, body_fn)`` call, ``if`` becomes
  ``cond(pred, then_fn, else_fn, state)``, and ``for _ in range(...)``
  desugars into a ``while``.
* *Closures are made explicit*: the rewriter computes which local
  variables each loop/branch reads or writes and threads them through an
  explicit state dict -- the Python rendering of "when a UDF refers to an
  outside variable, Matryoshka adds it as a parameter".
* ``and`` / ``or`` / ``not`` / conditional expressions -- which Python
  does not let a library overload -- become the staged helpers of
  :mod:`repro.lang.staged`.

Rewritten UDFs degrade gracefully: called with plain values they behave
exactly like the original function (short-circuiting included), so one
definition composes at any nesting level.
"""

import ast
import functools
import pickle
import warnings

from ..analysis.udf_lint import first_unsupported
from ..core.control_flow import cond as _cond
from ..core.control_flow import while_loop as _while_loop
from ..errors import ParsingError, UnsupportedConstructError
from ..udf import closure_bindings, facts_for
from .staged import staged_and, staged_not, staged_or, staged_select

_HELPERS = {
    "__mz_while_loop": _while_loop,
    "__mz_cond": _cond,
    "__mz_and": staged_and,
    "__mz_or": staged_or,
    "__mz_not": staged_not,
    "__mz_select": staged_select,
}

_STATE_ARG = "__mz_s"


def nested_udf(fn=None, *, strict=False):
    """Decorator: run the parsing phase on a plain Python UDF.

    Returns a function with the same signature whose control flow has
    been rewritten into lifted combinators.  The rewritten source is
    available as ``fn.transformed_source``.

    Unsupported constructs (try/except, yield, global mutation, ...)
    are rejected eagerly with an
    :class:`~repro.errors.UnsupportedConstructError` pointing at the
    offending line, before any rewriting happens.

    Args:
        strict: Also run the full static analysis
            (:func:`repro.analysis.analyze_udf`), including the NPL2xx
            closure-serializability pass: error diagnostics raise an
            :class:`~repro.errors.AnalysisError` at decoration time,
            warnings are emitted through :mod:`warnings`.
    """
    if fn is None:
        return functools.partial(nested_udf, strict=strict)
    if strict:
        _check_strict(fn)
    rewritten, source = parse_udf(fn)
    rewritten = functools.wraps(fn)(rewritten)
    rewritten.transformed_source = source
    rewritten.original = fn
    return rewritten


def _check_strict(fn):
    """The ``strict=True`` pre-flight: full analysis, errors fatal."""
    from ..analysis import analyze_udf
    from ..errors import AnalysisError

    diagnostics = analyze_udf(fn)
    errors = [d for d in diagnostics if d.severity == "error"]
    for diag in diagnostics:
        if diag.severity != "error":
            warnings.warn(str(diag), stacklevel=3)
    if errors:
        raise AnalysisError(errors)


# `lifted` is the name users see in examples; `nested_udf` is descriptive.
lifted = nested_udf


def parse_udf(fn):
    """Rewrite ``fn``; returns ``(new_function, transformed_source)``.

    Before rewriting, the body is checked against the shared
    unsupported-construct walker (:mod:`repro.analysis.udf_lint`): the
    first error-severity finding raises
    :class:`~repro.errors.UnsupportedConstructError` with the
    construct's real ``file:line:col``, instead of a downstream
    rewrite- or staging-time failure.
    """
    facts = facts_for(fn)
    if facts is None or facts.node is None:
        raise ParsingError(
            "cannot read source of %r (lambdas and interactively defined "
            "functions cannot be parsed)" % (fn,)
        )
    if isinstance(facts.node, ast.AsyncFunctionDef):
        raise ParsingError("async UDFs are not supported")
    if not isinstance(facts.node, ast.FunctionDef):
        raise ParsingError("expected a function definition")
    blocker = first_unsupported(
        facts.node, facts.filename, facts.line_offset, facts.col_offset
    )
    if blocker is not None:
        raise UnsupportedConstructError(
            str(blocker), code=blocker.code,
            line=blocker.line, col=blocker.col,
        )
    # The cached node is shared and read-only: rewrite a private copy
    # (a C pickle round trip copies an AST ~2x faster than deepcopy).
    fndef = pickle.loads(pickle.dumps(facts.node, pickle.HIGHEST_PROTOCOL))
    fndef.decorator_list = []
    _Rewriter(facts.line_offset).rewrite_function(fndef)
    module = ast.Module(body=[fndef], type_ignores=[])
    ast.fix_missing_locations(module)
    transformed_source = ast.unparse(module)
    namespace = dict(fn.__globals__)
    namespace.update(closure_bindings(fn))
    namespace.update(_HELPERS)
    code = compile(module, filename="<matryoshka-parsing-phase>",
                   mode="exec")
    exec(code, namespace)  # noqa: S102 -- this *is* the staging step
    return namespace[fndef.name], transformed_source


class _Rewriter:
    """Statement-level rewriting with sequential name-binding tracking."""

    def __init__(self, line_offset=0):
        self._counter = 0
        self._line_offset = line_offset

    def _line(self, node):
        """File-absolute line number of a (dedented-snippet) AST node."""
        return getattr(node, "lineno", 0) + self._line_offset

    def _fresh(self, base):
        self._counter += 1
        return "__mz_%s_%d" % (base, self._counter)

    def rewrite_function(self, fndef):
        bound = set()
        for arg in fndef.args.posonlyargs + fndef.args.args:
            bound.add(arg.arg)
        for arg in fndef.args.kwonlyargs:
            bound.add(arg.arg)
        if fndef.args.vararg:
            bound.add(fndef.args.vararg.arg)
        if fndef.args.kwarg:
            bound.add(fndef.args.kwarg.arg)
        fndef.body = self._rewrite_block(fndef.body, bound, top=True)

    def _rewrite_block(self, stmts, bound, top=False):
        out = []
        for stmt in stmts:
            out.extend(self._rewrite_stmt(stmt, bound, top))
        return out

    def _rewrite_stmt(self, stmt, bound, top):
        if isinstance(stmt, ast.While):
            return self._rewrite_while(stmt, bound)
        if isinstance(stmt, ast.If):
            return self._rewrite_if(stmt, bound)
        if isinstance(stmt, ast.For):
            return self._rewrite_for(stmt, bound)
        if isinstance(stmt, (ast.Break, ast.Continue)):
            raise UnsupportedConstructError(
                "break/continue cannot be lifted; restructure the loop "
                "condition instead (line %d)" % self._line(stmt),
                code="NPL107", line=self._line(stmt),
            )
        if isinstance(stmt, ast.Return) and not top:
            raise UnsupportedConstructError(
                "return inside a lifted control-flow construct is not "
                "supported; assign to a variable and return after "
                "(line %d)" % self._line(stmt),
                code="NPL108", line=self._line(stmt),
            )
        stmt = _ExprRewriter().visit(stmt)
        bound.update(_assigned_names(stmt))
        return [stmt]

    # -- while ----------------------------------------------------------

    def _rewrite_while(self, stmt, bound):
        if stmt.orelse:
            raise UnsupportedConstructError(
                "while/else cannot be lifted (line %d)" % self._line(stmt),
                code="NPL109", line=self._line(stmt),
            )
        read = _read_names(stmt.test) | _read_names_block(stmt.body)
        assigned = _assigned_names_block(stmt.body)
        state_names = sorted((read | assigned) & bound)
        if not state_names:
            raise ParsingError(
                "while loop at line %d uses no variables bound before "
                "it; nothing to lift" % self._line(stmt)
            )
        state_var = self._fresh("state")
        cond_name = self._fresh("cond")
        body_name = self._fresh("body")
        cond_def = self._make_state_fn(
            cond_name,
            state_names,
            [ast.Return(value=_ExprRewriter().visit(stmt.test))],
        )
        inner_bound = set(state_names)
        body_stmts = self._rewrite_block(list(stmt.body), inner_bound)
        body_stmts.append(ast.Return(value=_state_dict(state_names)))
        body_def = self._make_state_fn(body_name, state_names, body_stmts)
        loop_vars = sorted(assigned & set(state_names))
        call = ast.Assign(
            targets=[_store(state_var)],
            value=_call(
                "__mz_while_loop",
                [_state_dict(state_names), _load(cond_name),
                 _load(body_name)],
                keywords={
                    "loop_vars": ast.List(
                        elts=[ast.Constant(value=v) for v in loop_vars],
                        ctx=ast.Load(),
                    )
                },
            ),
        )
        unpack = _unpack_state(state_var, state_names)
        bound.update(assigned)
        init = ast.Assign(
            targets=[_store(state_var)], value=_state_dict(state_names)
        )
        del init  # state dict is passed inline; kept for readability
        return [cond_def, body_def, call] + unpack

    # -- if ---------------------------------------------------------------

    def _rewrite_if(self, stmt, bound):
        read = (
            _read_names(stmt.test)
            | _read_names_block(stmt.body)
            | _read_names_block(stmt.orelse)
        )
        assigned_then = _assigned_names_block(stmt.body)
        assigned_else = _assigned_names_block(stmt.orelse)
        out_names = sorted(assigned_then | assigned_else)
        for name in out_names:
            both = name in assigned_then and name in assigned_else
            if name not in bound and not both:
                raise ParsingError(
                    "variable %r is assigned in only one branch of the "
                    "if at line %d and not bound before it; initialize "
                    "it before the if" % (name, self._line(stmt))
                )
        in_names = sorted((read | set(out_names)) & bound)
        state_var = self._fresh("state")
        then_name = self._fresh("then")
        else_name = self._fresh("else")
        then_def = self._make_branch_fn(
            then_name, in_names, list(stmt.body), out_names
        )
        else_def = self._make_branch_fn(
            else_name, in_names, list(stmt.orelse), out_names
        )
        call = ast.Assign(
            targets=[_store(state_var)],
            value=_call(
                "__mz_cond",
                [
                    _ExprRewriter().visit(stmt.test),
                    _load(then_name),
                    _load(else_name),
                    _state_dict(in_names),
                ],
            ),
        )
        unpack = _unpack_state(state_var, out_names)
        bound.update(out_names)
        return [then_def, else_def, call] + unpack

    def _make_branch_fn(self, name, in_names, body, out_names):
        inner_bound = set(in_names)
        stmts = self._rewrite_block(body, inner_bound)
        stmts.append(ast.Return(value=_state_dict(out_names)))
        return self._make_state_fn(name, in_names, stmts)

    # -- for over range ----------------------------------------------------

    def _rewrite_for(self, stmt, bound):
        if stmt.orelse:
            raise UnsupportedConstructError(
                "for/else cannot be lifted (line %d)" % self._line(stmt),
                code="NPL109", line=self._line(stmt),
            )
        if not (
            isinstance(stmt.iter, ast.Call)
            and isinstance(stmt.iter.func, ast.Name)
            and stmt.iter.func.id == "range"
            and not stmt.iter.keywords
            and 1 <= len(stmt.iter.args) <= 3
        ):
            raise UnsupportedConstructError(
                "only `for _ in range(...)` loops can be lifted; use Bag "
                "operations for data-parallel iteration (line %d)"
                % self._line(stmt),
                code="NPL110", line=self._line(stmt),
            )
        if not isinstance(stmt.target, ast.Name):
            raise UnsupportedConstructError(
                "range loop target must be a simple name (line %d)"
                % self._line(stmt),
                code="NPL110", line=self._line(stmt),
            )
        args = stmt.iter.args
        if len(args) == 1:
            start, stop, step = ast.Constant(value=0), args[0], 1
        elif len(args) == 2:
            start, stop, step = args[0], args[1], 1
        else:
            start, stop = args[0], args[1]
            step = _literal_int(args[2])
            if step is None or step == 0:
                raise UnsupportedConstructError(
                    "range step must be a non-zero integer literal "
                    "(line %d)" % self._line(stmt),
                    code="NPL110", line=self._line(stmt),
                )
        target = stmt.target.id
        stop_var = self._fresh("stop")
        prologue = [
            ast.Assign(targets=[_store(target)], value=start),
            ast.Assign(targets=[_store(stop_var)], value=stop),
        ]
        comparison = ast.Compare(
            left=_load(target),
            ops=[ast.Lt() if step > 0 else ast.Gt()],
            comparators=[_load(stop_var)],
        )
        increment = ast.Assign(
            targets=[_store(target)],
            value=ast.BinOp(
                left=_load(target),
                op=ast.Add(),
                right=ast.Constant(value=step),
            ),
        )
        loop = ast.While(
            test=comparison, body=list(stmt.body) + [increment], orelse=[]
        )
        ast.copy_location(loop, stmt)
        for node in prologue:
            ast.copy_location(node, stmt)
        out = []
        for node in prologue:
            out.extend(self._rewrite_stmt(node, bound, top=False))
        out.extend(self._rewrite_while(loop, bound))
        return out

    # -- helpers ------------------------------------------------------------

    def _make_state_fn(self, name, state_names, body):
        unpack = _unpack_state(_STATE_ARG, state_names)
        return ast.FunctionDef(
            name=name,
            args=ast.arguments(
                posonlyargs=[],
                args=[ast.arg(arg=_STATE_ARG)],
                vararg=None,
                kwonlyargs=[],
                kw_defaults=[],
                kwarg=None,
                defaults=[],
            ),
            body=unpack + body,
            decorator_list=[],
            returns=None,
        )


class _ExprRewriter(ast.NodeTransformer):
    """Rewrites boolean operators, `not`, ternaries, and chained compares."""

    def visit_BoolOp(self, node):
        self.generic_visit(node)
        helper = "__mz_and" if isinstance(node.op, ast.And) else "__mz_or"
        result = node.values[0]
        for value in node.values[1:]:
            result = _call(helper, [result, _thunk(value)])
        return result

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        if isinstance(node.op, ast.Not):
            return _call("__mz_not", [node.operand])
        return node

    def visit_IfExp(self, node):
        self.generic_visit(node)
        return _call(
            "__mz_select",
            [node.test, _thunk(node.body), _thunk(node.orelse)],
        )

    def visit_Compare(self, node):
        self.generic_visit(node)
        if len(node.ops) == 1:
            return node
        # a < b < c  ==>  staged_and(a < b, lambda: b < c ...)
        # NOTE: middle operands are evaluated once per comparison.
        parts = []
        left = node.left
        for op, comparator in zip(node.ops, node.comparators):
            parts.append(
                ast.Compare(left=left, ops=[op], comparators=[comparator])
            )
            left = comparator
        result = parts[0]
        for part in parts[1:]:
            result = _call("__mz_and", [result, _thunk(part)])
        return result


# ---------------------------------------------------------------------------
# AST construction / analysis helpers
# ---------------------------------------------------------------------------


def _literal_int(node):
    """The value of an integer literal node (incl. negatives), or None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    if (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
        and isinstance(node.operand.value, int)
    ):
        return -node.operand.value
    return None


def _load(name):
    return ast.Name(id=name, ctx=ast.Load())


def _store(name):
    return ast.Name(id=name, ctx=ast.Store())


def _call(name, args, keywords=None):
    kw = [
        ast.keyword(arg=key, value=value)
        for key, value in (keywords or {}).items()
    ]
    return ast.Call(func=_load(name), args=args, keywords=kw)


def _thunk(expr):
    return ast.Lambda(
        args=ast.arguments(
            posonlyargs=[],
            args=[],
            vararg=None,
            kwonlyargs=[],
            kw_defaults=[],
            kwarg=None,
            defaults=[],
        ),
        body=expr,
    )


def _state_dict(names):
    return ast.Dict(
        keys=[ast.Constant(value=name) for name in names],
        values=[_load(name) for name in names],
    )


def _unpack_state(state_var, names):
    return [
        ast.Assign(
            targets=[_store(name)],
            value=ast.Subscript(
                value=_load(state_var),
                slice=ast.Constant(value=name),
                ctx=ast.Load(),
            ),
        )
        for name in names
    ]


def _assigned_names(stmt):
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            names.add(node.name)
    return names


def _assigned_names_block(stmts):
    names = set()
    for stmt in stmts:
        names |= _assigned_names(stmt)
    return names


def _read_names(node):
    return {
        child.id
        for child in ast.walk(node)
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load)
    }


def _read_names_block(stmts):
    names = set()
    for stmt in stmts:
        names |= _read_names(stmt)
    return names
