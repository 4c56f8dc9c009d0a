"""Whole-plan record schema & shape inference (NPL6xx).

A bottom-up abstract interpretation that assigns every plan node an
inferred *record schema*: scalar kinds (``int`` / ``float`` / ``str`` /
``bool`` / ``none``), fixed-arity tuple shapes, list-of-element shapes
for grouped values, and ``?`` for anything unprovable.  Types flow

* through **UDF ASTs** -- lambdas in fluent chains, ``@nested_udf``
  bodies, and transitively-called helpers, located and resolved
  through their :class:`repro.udf.UdfFacts`; and
* through **every plan operator** -- map/filter/flat_map propagate
  through the UDF, shuffles split and recombine key/value pairs,
  unions join branch schemas, zip appends an ``int`` id column.

Verdicts are tri-state like the NPL4xx/5xx passes: a schema with no
``?`` anywhere is *proven*, a shape that can never satisfy a predicate
(e.g. a ``dict`` can never be hashed as a shuffle key) is *refuted*,
and everything else is *unknown*.  Soundness rule: the interpretation
only ever claims a concrete type when every execution must produce it;
when in doubt it answers ``ANY``.  In particular ``bool`` never decays
to ``int`` and ``int`` joined with ``float`` is ``ANY``, not
``float``: a schema names the exact Python type every record has.

One consumer: **NPL6xx diagnostics** (:func:`schema_diagnostics`) --
NPL601 join/cogroup key-type mismatch, NPL602 union shape mismatch,
NPL603 statically non-hashable shuffle keys -- via the CLI,
``--format github`` CI lint, and ``Bag.explain(schema=True)``
(:func:`schema_notes`).  The executor does not read schemas: records
stay plain lists whatever their inferred shape.
"""

import ast

from ..engine import plan as p
from ..udf import facts_for
from .diagnostics import make_diagnostic, sort_key

__all__ = [
    "ANY",
    "BOOL",
    "FLOAT",
    "INT",
    "ListType",
    "NONE",
    "PlanSchemas",
    "STR",
    "ScalarType",
    "SchemaType",
    "TupleType",
    "UnhashableType",
    "hashable_verdict",
    "infer_schemas",
    "infer_udf_schema",
    "join_types",
    "schema_diagnostics",
    "schema_notes",
]

# Driver-side data scans are exact-type checks run at C speed
# (``set(map(type, data))``); beyond these caps the scan answers ANY
# rather than charge per-job time proportional to huge driver datasets.
_SCALAR_SCAN_CAP = 262144
_TUPLE_SCAN_CAP = 4096

#: Iterations granted to the reduce_by_key accumulator fixpoint before
#: it collapses to ANY.
_ACC_ITERATIONS = 3


# ----------------------------------------------------------------------
# The abstract type lattice
# ----------------------------------------------------------------------


class SchemaType:
    """Base of the abstract record-type lattice."""

    __slots__ = ()


class AnyType(SchemaType):
    """Top: nothing is known about the record shape."""

    __slots__ = ()

    def __repr__(self):
        return "?"

    def __eq__(self, other):
        return isinstance(other, AnyType)

    def __hash__(self):
        return hash(AnyType)


#: The single top element; compare with ``is ANY``.
ANY = AnyType()


class ScalarType(SchemaType):
    """An exact scalar kind: int / float / str / bool / none."""

    __slots__ = ("kind",)

    KINDS = ("int", "float", "str", "bool", "none")

    def __init__(self, kind):
        if kind not in self.KINDS:
            raise ValueError("unknown scalar kind %r" % (kind,))
        self.kind = kind

    def __repr__(self):
        return self.kind

    def __eq__(self, other):
        return isinstance(other, ScalarType) and other.kind == self.kind

    def __hash__(self):
        return hash((ScalarType, self.kind))


INT = ScalarType("int")
FLOAT = ScalarType("float")
STR = ScalarType("str")
BOOL = ScalarType("bool")
NONE = ScalarType("none")


class TupleType(SchemaType):
    """A fixed-arity tuple; ``elements`` are the per-slot schemas."""

    __slots__ = ("elements",)

    def __init__(self, elements):
        self.elements = tuple(elements)

    def __repr__(self):
        if len(self.elements) == 1:
            return "(%r,)" % self.elements[0]
        return "(%s)" % ", ".join(repr(e) for e in self.elements)

    def __eq__(self, other):
        return (
            isinstance(other, TupleType)
            and other.elements == self.elements
        )

    def __hash__(self):
        return hash((TupleType, self.elements))


class ListType(SchemaType):
    """A homogeneous sequence (grouped values, comprehension results)."""

    __slots__ = ("element",)

    def __init__(self, element):
        self.element = element

    def __repr__(self):
        return "[%r]" % self.element

    def __eq__(self, other):
        return isinstance(other, ListType) and other.element == self.element

    def __hash__(self):
        return hash((ListType, self.element))


class UnhashableType(SchemaType):
    """A value that can never be a shuffle key (dict / set)."""

    __slots__ = ("kind",)

    def __init__(self, kind):
        self.kind = kind

    def __repr__(self):
        return self.kind

    def __eq__(self, other):
        return isinstance(other, UnhashableType) and other.kind == self.kind

    def __hash__(self):
        return hash((UnhashableType, self.kind))


def join_types(a, b):
    """Least upper bound of two schemas.

    Deliberately strict: ``int`` joined with ``float`` is ``ANY``
    (no one exact type covers both), and different
    constructors never merge.
    """
    if a is ANY or b is ANY:
        return ANY
    if a == b:
        return a
    if (
        isinstance(a, TupleType)
        and isinstance(b, TupleType)
        and len(a.elements) == len(b.elements)
    ):
        return TupleType(
            join_types(x, y) for x, y in zip(a.elements, b.elements)
        )
    if isinstance(a, ListType) and isinstance(b, ListType):
        return ListType(join_types(a.element, b.element))
    return ANY


def _join_all(schemas):
    result = None
    for schema in schemas:
        result = schema if result is None else join_types(result, schema)
    return ANY if result is None else result


# ----------------------------------------------------------------------
# Verdicts
# ----------------------------------------------------------------------


def hashable_verdict(schema):
    """Tri-state: can records of ``schema`` be hashed as shuffle keys?"""
    if schema is ANY:
        return None
    if isinstance(schema, ScalarType):
        return True
    if isinstance(schema, (ListType, UnhashableType)):
        return False
    if isinstance(schema, TupleType):
        verdicts = [hashable_verdict(e) for e in schema.elements]
        if any(v is False for v in verdicts):
            return False
        if all(v is True for v in verdicts):
            return True
        return None
    return None


# ----------------------------------------------------------------------
# UDF abstract interpretation
# ----------------------------------------------------------------------

def infer_udf_schema(fn, arg_schemas, flat=False, skips=None):
    """Abstract result type of ``fn`` applied to ``arg_schemas``.

    With ``flat=True`` the result is the *element* schema of the
    returned collection (flat_map semantics).  Functions whose source
    is unavailable are appended to ``skips`` (when given) and answer
    ``ANY``.
    """
    if skips is None:
        skips = []
    return _infer_facts(
        facts_for(fn), fn, tuple(arg_schemas), bool(flat), skips
    )


#: A helper call the shared guard cut short (recursion, depth).
_CUT = (ANY, ())


def _infer_facts(facts, fn, arg_schemas, flat, skips):
    if facts is None or facts.node is None:
        skips.append(fn)
        return ANY

    def infer(facts):
        skipped = []
        ctx = _Scope({}, facts, skipped)
        schema = _infer_from_ast(facts.node, arg_schemas, flat, ctx)
        return schema, tuple(skipped)

    schema, skipped = facts.derive(
        ("schema", arg_schemas, flat), infer, cycle=_CUT, deep=_CUT
    )
    skips.extend(skipped)
    return schema


class _Scope:
    """Evaluation context: bindings, the UDF's facts (its name
    resolver), and the helpers inference had to skip."""

    __slots__ = ("env", "facts", "skips")

    def __init__(self, env, facts, skips):
        self.env = env
        self.facts = facts
        self.skips = skips

    def child(self, env):
        return _Scope(env, self.facts, self.skips)


def _infer_from_ast(node, arg_schemas, flat, ctx):
    args = node.args
    if args.vararg or args.kwarg or args.kwonlyargs:
        return ANY
    params = [a.arg for a in getattr(args, "posonlyargs", [])]
    params += [a.arg for a in args.args]
    if len(params) != len(arg_schemas):
        return ANY
    ctx.env.update(zip(params, arg_schemas))
    if isinstance(node, ast.Lambda):
        result = _eval(node.body, ctx)
    else:
        result = _infer_body(node, ctx)
        if result is None:
            return ANY
    return _flatten(result) if flat else result


def _infer_body(node, ctx):
    """Result schema of a FunctionDef body, or None when unprovable.

    Straight-line bodies only: assignments, expression statements, and
    returns.  Control flow (if/for/while/try) and generators answer
    None -- the caller treats the result as ANY.
    """
    returned = None
    for stmt in node.body:
        if isinstance(stmt, ast.Return):
            value = NONE if stmt.value is None else _eval(stmt.value, ctx)
            returned = (
                value if returned is None else join_types(returned, value)
            )
        elif isinstance(stmt, ast.Assign):
            value = _eval(stmt.value, ctx)
            for target in stmt.targets:
                _bind(target, value, ctx)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                _bind(stmt.target, _eval(stmt.value, ctx), ctx)
        elif isinstance(stmt, ast.AugAssign):
            if not isinstance(stmt.target, ast.Name):
                return None
            current = ctx.env.get(stmt.target.id, ANY)
            ctx.env[stmt.target.id] = _binop(
                stmt.op, current, _eval(stmt.value, ctx)
            )
        elif isinstance(stmt, (ast.Expr, ast.Pass)):
            if any(
                isinstance(n, (ast.Yield, ast.YieldFrom))
                for n in ast.walk(stmt)
            ):
                return None
        else:
            return None
    return NONE if returned is None else returned


def _bind(target, value, ctx):
    if isinstance(target, ast.Name):
        ctx.env[target.id] = value
        return
    if isinstance(target, ast.Tuple) and all(
        isinstance(e, ast.Name) for e in target.elts
    ):
        if (
            isinstance(value, TupleType)
            and len(value.elements) == len(target.elts)
        ):
            for name, element in zip(target.elts, value.elements):
                ctx.env[name.id] = element
            return
        for name in target.elts:
            ctx.env[name.id] = ANY
        return
    # Subscript / attribute / starred targets: poison nothing, prove
    # nothing -- any Name read through them already answers ANY.


def _flatten(schema):
    """Element schema of an iterated value (flat_map semantics)."""
    if isinstance(schema, ListType):
        return schema.element
    if isinstance(schema, TupleType):
        return _join_all(schema.elements)
    if isinstance(schema, ScalarType) and schema.kind == "str":
        return STR
    return ANY


def _const_schema(value):
    kind = type(value)
    if kind is bool:
        return BOOL
    if kind is int:
        return INT
    if kind is float:
        return FLOAT
    if kind is str:
        return STR
    if value is None:
        return NONE
    return ANY


_NUMERIC = ("int", "float", "bool")


def _numeric_kind(schema):
    if isinstance(schema, ScalarType) and schema.kind in _NUMERIC:
        return schema.kind
    return None


def _binop(op, left, right):
    lk, rk = _numeric_kind(left), _numeric_kind(right)
    if lk is not None and rk is not None:
        if isinstance(op, ast.Div):
            return FLOAT
        if isinstance(op, ast.Pow):
            return ANY  # int ** negative-int is a float
        if isinstance(
            op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.LShift, ast.RShift)
        ):
            # Arithmetic on bools yields int (True + True == 2).
            if lk in ("int", "bool") and rk in ("int", "bool"):
                return INT
            return ANY
        if isinstance(
            op, (ast.Add, ast.Sub, ast.Mult, ast.Mod, ast.FloorDiv)
        ):
            return FLOAT if "float" in (lk, rk) else INT
        return ANY
    if left == STR:
        if isinstance(op, ast.Mod):
            return STR
        if isinstance(op, ast.Add) and right == STR:
            return STR
        if isinstance(op, ast.Mult) and rk in ("int", "bool"):
            return STR
        return ANY
    if isinstance(op, ast.Add):
        if isinstance(left, TupleType) and isinstance(right, TupleType):
            return TupleType(left.elements + right.elements)
        if isinstance(left, ListType) and isinstance(right, ListType):
            return ListType(join_types(left.element, right.element))
    return ANY


def _unaryop(op, operand):
    if isinstance(op, ast.Not):
        return BOOL
    kind = _numeric_kind(operand)
    if kind is None:
        return ANY
    if isinstance(op, (ast.USub, ast.UAdd)):
        return INT if kind in ("int", "bool") else FLOAT
    if isinstance(op, ast.Invert):
        return INT if kind in ("int", "bool") else ANY
    return ANY


def _eval(node, ctx):
    """Abstract value of an expression; ANY whenever unprovable."""
    if isinstance(node, ast.Constant):
        return _const_schema(node.value)
    if isinstance(node, ast.Name):
        return ctx.env.get(node.id, ANY)
    if isinstance(node, ast.Tuple):
        if any(isinstance(e, ast.Starred) for e in node.elts):
            return ANY
        return TupleType(_eval(e, ctx) for e in node.elts)
    if isinstance(node, ast.List):
        if any(isinstance(e, ast.Starred) for e in node.elts):
            return ListType(ANY)
        return ListType(_join_all(_eval(e, ctx) for e in node.elts))
    if isinstance(node, ast.Set):
        return UnhashableType("set")
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return UnhashableType("dict")
    if isinstance(node, ast.BinOp):
        return _binop(node.op, _eval(node.left, ctx), _eval(node.right, ctx))
    if isinstance(node, ast.UnaryOp):
        return _unaryop(node.op, _eval(node.operand, ctx))
    if isinstance(node, ast.Compare):
        return BOOL
    if isinstance(node, ast.BoolOp):
        # and/or return an operand, not a bool.
        return _join_all(_eval(v, ctx) for v in node.values)
    if isinstance(node, ast.IfExp):
        return join_types(_eval(node.body, ctx), _eval(node.orelse, ctx))
    if isinstance(node, ast.Call):
        return _call(node, ctx)
    if isinstance(node, ast.Subscript):
        return _subscript(node, ctx)
    if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
        return _comprehension(node, ctx)
    if isinstance(node, (ast.JoinedStr, ast.FormattedValue)):
        return STR
    return ANY


def _call(node, ctx):
    if node.keywords or any(
        isinstance(a, ast.Starred) for a in node.args
    ):
        return ANY
    func = node.func
    if not isinstance(func, ast.Name) or func.id in ctx.env:
        return ANY
    resolved = ctx.facts.lookup(func.id)
    if resolved is None:
        return ANY
    arg_schemas = [_eval(a, ctx) for a in node.args]
    if resolved is int:
        return INT
    if resolved is float:
        return FLOAT
    if resolved is bool:
        return BOOL
    if resolved is str:
        return STR
    if resolved is len:
        return INT
    if resolved is abs and len(arg_schemas) == 1:
        kind = _numeric_kind(arg_schemas[0])
        if kind is None:
            return ANY
        return INT if kind in ("int", "bool") else FLOAT
    if resolved is round and len(arg_schemas) == 1:
        return INT
    if resolved in (min, max) and len(arg_schemas) >= 2:
        return _join_all(arg_schemas)
    if resolved is divmod and len(arg_schemas) == 2:
        if all(_numeric_kind(s) == "int" for s in arg_schemas):
            return TupleType((INT, INT))
        return ANY
    if resolved is range:
        return ListType(INT)
    if resolved is tuple and len(arg_schemas) == 1:
        if isinstance(arg_schemas[0], TupleType):
            return arg_schemas[0]
        return ANY
    if resolved is list and len(arg_schemas) == 1:
        return ListType(_flatten(arg_schemas[0]))
    helper = facts_for(resolved)
    if helper is None:
        return ANY
    return _infer_facts(
        helper, resolved, tuple(arg_schemas), False, ctx.skips
    )


def _subscript(node, ctx):
    value = _eval(node.value, ctx)
    index = node.slice
    if isinstance(index, ast.Slice):
        if isinstance(value, ListType):
            return value
        if (
            isinstance(value, TupleType)
            and index.step is None
            and _slice_bound_ok(index.lower)
            and _slice_bound_ok(index.upper)
        ):
            lower = index.lower.value if index.lower is not None else None
            upper = index.upper.value if index.upper is not None else None
            return TupleType(value.elements[lower:upper])
        if value == STR:
            return STR
        return ANY
    if isinstance(value, TupleType):
        if (
            isinstance(index, ast.Constant)
            and type(index.value) is int
            and -len(value.elements) <= index.value < len(value.elements)
        ):
            return value.elements[index.value]
        return ANY
    if isinstance(value, ListType):
        return value.element
    if value == STR:
        return STR
    return ANY


def _slice_bound_ok(bound):
    return bound is None or (
        isinstance(bound, ast.Constant) and type(bound.value) is int
    )


def _comprehension(node, ctx):
    env = dict(ctx.env)
    scope = ctx.child(env)
    for generator in node.generators:
        if getattr(generator, "is_async", False):
            return ListType(ANY)
        element = _flatten(_eval(generator.iter, scope))
        _bind(generator.target, element, scope)
    return ListType(_eval(node.elt, scope))


# ----------------------------------------------------------------------
# Plan-level inference
# ----------------------------------------------------------------------


class PlanSchemas:
    """Per-node inferred schemas plus the UDFs inference had to skip."""

    def __init__(self, schemas, skips):
        self.schemas = schemas
        self.skips = skips

    def schema_of(self, node):
        return self.schemas.get(id(node), ANY)


def infer_schemas(root):
    """Bottom-up schema inference over the plan reachable from ``root``.

    One :func:`~repro.engine.plan.fold_plan` (children before parents),
    so arbitrarily deep plans do not overflow the Python stack.
    """
    skips = []
    schemas = p.fold_plan(
        root, lambda node, schemas: _node_schema(node, schemas, skips)
    )
    return PlanSchemas(schemas, skips)


def _node_schema(node, schemas, skips):
    def of(child):
        return schemas.get(id(child), ANY)

    if isinstance(node, p.Parallelize):
        return _data_schema(node.data)
    if isinstance(node, p.Map):
        return infer_udf_schema(node.fn, (of(node.child),), skips=skips)
    if isinstance(node, p.Filter):
        return of(node.child)
    if isinstance(node, p.FlatMap):
        return infer_udf_schema(
            node.fn, (of(node.child),), flat=True, skips=skips
        )
    if isinstance(node, p.MapPartitions):
        return ANY
    if isinstance(node, p.ZipWithUniqueId):
        return TupleType((of(node.child), INT))
    if isinstance(node, p.Coalesce):
        return of(node.child)
    if isinstance(node, p.Union):
        return _join_all(of(child) for child in node.children)
    if isinstance(node, p.ReduceByKey):
        key, value = _pair_parts(of(node.child))
        return TupleType((key, _reduce_fixpoint(node.fn, value, skips)))
    if isinstance(node, p.GroupByKey):
        key, value = _pair_parts(of(node.child))
        return TupleType((key, ListType(value)))
    if isinstance(node, p.CoGroup):
        lk, lv = _pair_parts(of(node.left))
        rk, rv = _pair_parts(of(node.right))
        return TupleType(
            (join_types(lk, rk), TupleType((ListType(lv), ListType(rv))))
        )
    if isinstance(node, p.BroadcastJoin):
        lk, lv = _pair_parts(of(node.left))
        rk, rv = _pair_parts(of(node.right))
        return TupleType((join_types(lk, rk), TupleType((lv, rv))))
    if isinstance(node, p.CrossBroadcast):
        return TupleType((of(node.left), of(node.right)))
    return ANY


def _pair_parts(schema):
    """Key/value split of a keyed-record schema."""
    if isinstance(schema, TupleType) and len(schema.elements) == 2:
        return schema.elements
    return ANY, ANY


def _reduce_fixpoint(fn, value, skips):
    """Accumulator schema of a reduce: iterate to a fixpoint or ANY."""
    acc = value
    for _ in range(_ACC_ITERATIONS):
        step = infer_udf_schema(fn, (acc, value), skips=skips)
        merged = join_types(acc, step)
        if merged == acc:
            return acc
        acc = merged
    return ANY


def _data_schema(data):
    if not data or len(data) > _SCALAR_SCAN_CAP:
        return ANY
    kinds = set(map(type, data))
    if len(kinds) != 1:
        return ANY
    kind = kinds.pop()
    if kind is bool:
        return BOOL
    if kind is int:
        return INT
    if kind is float:
        return FLOAT
    if kind is str:
        return STR
    if kind is tuple:
        return _tuple_data_schema(data)
    if kind is list:
        return ListType(ANY)
    if kind is dict:
        return UnhashableType("dict")
    if kind is set:
        return UnhashableType("set")
    if kind is type(None):
        return NONE
    return ANY


def _tuple_data_schema(data):
    if len(data) > _TUPLE_SCAN_CAP:
        return ANY
    arities = set(map(len, data))
    if len(arities) != 1:
        return ANY
    arity = arities.pop()
    return TupleType(
        _data_schema([record[i] for record in data]) for i in range(arity)
    )


# ----------------------------------------------------------------------
# Explain notes and NPL6xx diagnostics
# ----------------------------------------------------------------------


def schema_notes(root):
    """``{id(node): "schema=..."}`` annotations for ``explain()``."""
    inferred = infer_schemas(root)
    return {
        id(node): "schema=%r" % (inferred.schema_of(node),)
        for node in p.iter_nodes_ordered(root)
    }


def schema_diagnostics(root, ids=None, parts=None):
    """NPL6xx findings (plus NPL001 skip notices) for one plan; ``ids``
    and ``parts`` are the plan's node ids and partition counts, when
    the caller has them (:func:`repro.analysis.analyze_plan` does)."""
    inferred = infer_schemas(root)
    if ids is None:
        ids = p.assign_node_ids(root)
    if parts is None:
        parts = p.partition_counts(root)

    def ref(node):
        return p.describe_node(node, ids, parts)

    diags = []
    for node in p.iter_nodes_ordered(root):
        if isinstance(node, (p.CoGroup, p.BroadcastJoin)):
            lk, _ = _pair_parts(inferred.schema_of(node.left))
            rk, _ = _pair_parts(inferred.schema_of(node.right))
            if _definite_mismatch(lk, rk):
                diags.append(make_diagnostic(
                    "NPL601",
                    "join keys of %s have mismatched types: left is %r, "
                    "right is %r; no records can match" % (ref(node), lk, rk),
                ))
        if isinstance(node, p.Union):
            branches = [
                (child, inferred.schema_of(child)) for child in node.children
            ]
            for (left, ls), (right, rs) in zip(branches, branches[1:]):
                if _shape_mismatch(ls, rs):
                    diags.append(make_diagnostic(
                        "NPL602",
                        "union branches of %s have mismatched shapes: "
                        "%s yields %r but %s yields %r"
                        % (ref(node), ref(left), ls, ref(right), rs),
                    ))
                    break
        key_inputs = ()
        if isinstance(node, (p.ReduceByKey, p.GroupByKey)):
            key_inputs = (node.child,)
        elif isinstance(node, p.CoGroup):
            key_inputs = (node.left, node.right)
        for child in key_inputs:
            key, _ = _pair_parts(inferred.schema_of(child))
            if hashable_verdict(key) is False:
                diags.append(make_diagnostic(
                    "NPL603",
                    "shuffle key of %s is statically non-hashable "
                    "(%r); the shuffle will fail on the first record"
                    % (ref(node), key),
                ))
    seen = set()
    for fn in inferred.skips:
        name = getattr(fn, "__name__", repr(fn))
        if name in seen:
            continue
        seen.add(name)
        diags.append(make_diagnostic(
            "NPL001",
            "source of %r is unavailable or ambiguous (builtin, "
            "interactively defined, or several definitions on one "
            "line); schema inference treats its result as unknown"
            % name,
        ))
    return sorted(diags, key=sort_key)


def _definite_mismatch(a, b):
    """True only when two *known* key schemas can never hash-match."""
    if a is ANY or b is ANY:
        return False
    if isinstance(a, ScalarType) and isinstance(b, ScalarType):
        if a.kind == b.kind:
            return False
        # 1 == 1.0 == True hash-match across numeric kinds.
        return not (a.kind in _NUMERIC and b.kind in _NUMERIC)
    if isinstance(a, TupleType) and isinstance(b, TupleType):
        if len(a.elements) != len(b.elements):
            return True
        return any(
            _definite_mismatch(x, y)
            for x, y in zip(a.elements, b.elements)
        )
    if isinstance(a, ListType) and isinstance(b, ListType):
        return _definite_mismatch(a.element, b.element)
    return True


def _shape_mismatch(a, b):
    """Arity-level mismatch between union branches (kinds may differ)."""
    if a is ANY or b is ANY:
        return False
    a_tuple = isinstance(a, TupleType)
    b_tuple = isinstance(b, TupleType)
    if a_tuple != b_tuple:
        return True
    if a_tuple:
        return len(a.elements) != len(b.elements)
    return False
