"""Everything that touches a live function object: one ``UdfFacts`` per UDF.

A stdlib-only leaf (no ``repro`` imports, so engine and analyses import
it at module scope) holding the one wrapper peel, the one closure-cell
walk, the one source recovery and the one memo of what the analyses
prove, behind one lock-protected LRU with two levels of key.  *Source
facts* (the parsed node, its position, the names it calls) are pure in
the text and keyed by code object.  *Binding facts* (the resolver and
every verdict) are keyed by code object and resolution environment:
``__globals__`` plus, per free variable, the captured value's identity
when it is a callable or a module and only its type otherwise -- so
``make(pure_helper)`` and ``make(noisy_helper)`` never share a verdict.
Not tracked: rebinding a module global after analysis.  See
``docs/analysis.md`` § "UDF facts".
"""

import ast
import builtins
import collections
import functools
import hashlib
import inspect
import textwrap
import threading
import types

__all__ = [
    "CAPACITY", "DATA", "MAX_DEPTH", "UdfFacts", "cache_info",
    "clear_cache", "closure_bindings", "facts_for",
    "fingerprint_function", "function_ast", "resolve", "unwrap",
]

#: Entries (source + binding facts) held before the least recently used
#: is evicted.  A registry program uses under forty.
CAPACITY = 1024

#: Helper-call levels a derivation follows below its root UDF.
MAX_DEPTH = 5

#: What :meth:`UdfFacts.lookup` answers for a captured value that is
#: neither callable nor a module: a cache must not pin a closure's
#: datasets, and no verdict depends on more than "it is plain data".
DATA = object()

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def unwrap(fn):
    """Peel ``@nested_udf`` rewrites (``.original``), ``functools.partial``
    objects and bound methods off ``fn``: ``(inner, bindings)``, the
    callable underneath and the ``(description, value)`` pairs the
    wrappers contribute (they ship with a task like closure cells do).
    """
    bindings = []
    for _ in range(16):  # bounds pathological wrapper towers
        fn = getattr(fn, "original", fn)
        if isinstance(fn, functools.partial):
            for index, value in enumerate(fn.args):
                bindings.append(("partial argument %d" % index, value))
            for key in sorted(fn.keywords):
                bindings.append(("partial keyword %r" % key, fn.keywords[key]))
            fn = fn.func
            continue
        bound_self = getattr(fn, "__self__", None)
        bound_func = getattr(fn, "__func__", None)
        if bound_self is None or bound_func is None:
            break
        bindings.append(("bound instance", bound_self))
        fn = bound_func
    return fn, bindings


def closure_bindings(fn):
    """``{free variable: captured value}`` of a function's closure cells
    (empty for anything without cells; unfilled cells are skipped)."""
    bindings = {}
    names = getattr(getattr(fn, "__code__", None), "co_freevars", ())
    for name, cell in zip(names, getattr(fn, "__closure__", None) or ()):
        try:
            bindings[name] = cell.cell_contents
        except ValueError:  # pragma: no cover - empty cell
            continue
    return bindings


def resolve(fn, name):
    """What a bare ``name`` in ``fn``'s body evaluates to *now*: the
    function's own cell when it is one of its free variables, otherwise
    its globals, then builtins.  Raises ``NameError`` where the body
    would.  Unlike :meth:`UdfFacts.lookup` this reads the live function,
    so captured plain data and ``None`` come back as themselves.
    """
    if name in fn.__code__.co_freevars:
        cells = closure_bindings(fn)
        if name in cells:
            return cells[name]
    elif name in fn.__globals__:
        return fn.__globals__[name]
    elif hasattr(builtins, name):
        return getattr(builtins, name)
    raise NameError("name %r is not defined" % name)


def _by_identity(value):
    """Can a verdict depend on *which* object this captured value is?"""
    return callable(value) or isinstance(value, types.ModuleType)


class _Source:
    """What the source text alone determines (one per code object)."""

    __slots__ = ("code", "node", "line_offset", "col_offset",
                 "called_names", "dump")

    def __init__(self, code):
        self.code = code  # held: id(code) is this entry's cache key
        self.node, self.line_offset, self.col_offset = _recover(code)
        nodes = () if self.node is None else ast.walk(self.node)
        self.called_names = tuple(sorted({
            node.func.id for node in nodes
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }))
        self.dump = None  # ast.dump(node), filled by the first fingerprint


def _recover(code):
    """``(node, line_offset, col_offset)``: a code object's ``ast.Lambda``
    / ``FunctionDef`` (``None`` when the source is unavailable,
    unparseable, or ambiguous) and the offsets that map snippet positions
    onto the defining file.  Read by code object so it is pure in the
    text: given a function, ``inspect`` follows ``__wrapped__`` to
    somebody else's source.
    """
    try:
        lines, start_line = inspect.getsourcelines(code)
    except (OSError, TypeError):
        return None, 0, 0
    raw = "".join(lines)
    source = textwrap.dedent(raw)
    line_offset = start_line - 1  # snippet line 1 is file line start_line
    col_offset = 0
    for raw_line, dedented in zip(raw.splitlines(), source.splitlines()):
        if dedented.strip():
            col_offset = len(raw_line) - len(dedented)
            break
    if source.startswith("."):
        # A lambda on its own line of a fluent chain comes back as
        # ``.map(lambda kv: ...)``; make it a parseable expression.
        source = source[1:]
    try:
        tree = ast.parse(source)
    except SyntaxError:
        # A lambda inside a method can come back as a fragment like
        # ``return self.map(lambda kv: ...)``: not a module-level
        # statement, but a valid function body.
        try:
            tree = ast.parse(
                "def _repro_wrap_():\n" + textwrap.indent(source, "    ")
            )
        except SyntaxError:
            return None, 0, 0
        line_offset -= 1
        col_offset -= 4
    if code.co_name == "<lambda>":
        candidates = [n for n in ast.walk(tree) if isinstance(n, ast.Lambda)]
    else:
        candidates = [
            n for n in ast.walk(tree)
            if isinstance(n, _DEFS) and n.name == code.co_name
        ]
    if len(candidates) > 1:  # several on these lines: tell them by arity
        argnames = tuple(code.co_varnames[: code.co_argcount])
        candidates = [
            n for n in candidates
            if tuple(a.arg for a in n.args.args) == argnames
        ]
    if len(candidates) != 1:
        return None, 0, 0
    return candidates[0], line_offset, col_offset


#: ``.frames``: the derivations in progress on this thread, outermost
#: first -- whose, of what ``kind``, whether the ``whole`` call tree has
#: been followed so far, and its ``height``.
_PATH = threading.local()


class UdfFacts:
    """Everything known about one UDF (code object + environment).

    Attributes:
        name / code: Of the function the entry was built from.
        node: The ``ast.Lambda`` / ``FunctionDef`` / ``AsyncFunctionDef``,
            or ``None`` without recoverable source.  Shared by every
            consumer: **read-only**; rewrite a copy.
        filename / line_offset / col_offset: Where the node's snippet
            positions sit in the defining file.
        called_names: Sorted bare names the body calls.
        verdicts: ``{(kind, ...): ...}``, filled through :meth:`derive`.
    """

    __slots__ = ("name", "code", "node", "filename", "line_offset",
                 "col_offset", "called_names", "verdicts", "_source",
                 "_globals", "_cells")

    def __init__(self, source, fn, cells):
        self.name = fn.__name__
        self.code = source.code
        self.node = source.node
        self.filename = source.code.co_filename
        self.line_offset = source.line_offset
        self.col_offset = source.col_offset
        self.called_names = source.called_names
        self.verdicts = {}
        self._source = source
        self._globals = fn.__globals__
        # Identity-keyed values are held so their ids cannot be reused
        # while this entry lives; plain data is deliberately let go.
        self._cells = {
            name: value if value is None or _by_identity(value) else DATA
            for name, value in cells.items()
        }

    def lookup(self, name):
        """What a bare ``name`` in the body resolves to -- closure, then
        globals, then builtins -- or ``None``; :data:`DATA` stands in
        for captured plain data."""
        if name in self._cells:
            return self._cells[name]
        value = self._globals.get(name)
        if value is None:
            value = getattr(builtins, name, None)
        return value

    def helpers(self):
        """``(name, UdfFacts)`` for every called bare name that resolves
        to a Python function (through wrappers), in name order."""
        found = []
        for name in self.called_names:
            facts = facts_for(self.lookup(name))
            if facts is not None:
                found.append((name, facts))
        return found

    def derive(self, key, compute, cycle=None, deep=None):
        """The memoized ``compute(self)`` for ``key = (kind, ...)``.

        The one cycle/depth guard of every helper-following analysis:
        re-entering a UDF already being derived for the same ``kind`` on
        this thread answers ``cycle``; nesting :data:`MAX_DEPTH` levels
        below the root answers ``deep``.  A value cut short either way
        depends on the path that reached it, so it is kept only for that
        path's root; one whose whole call tree was followed is kept with
        the tree's height and served wherever the height still fits.  So
        no answer depends on what was analyzed before.
        """
        kind = key[0]
        frames = _PATH.__dict__.setdefault("frames", [])
        level = sum(1 for frame in frames if frame.kind == kind)
        hit = self.verdicts.get(key)
        if hit is not None:
            value, height = hit
            if level == 0:
                return value
            if height is not None and level + height < MAX_DEPTH:
                frames[-1].height = max(frames[-1].height, height + 1)
                return value
        on_path = any(f.facts is self and f.kind == kind for f in frames)
        if on_path or level >= MAX_DEPTH:
            for frame in frames:
                frame.whole = False
            return cycle if on_path else deep
        frame = types.SimpleNamespace(
            facts=self, kind=kind, whole=True, height=0
        )
        frames.append(frame)
        try:
            value = compute(self)
        finally:
            frames.pop()
        if frames:
            frames[-1].height = max(frames[-1].height, frame.height + 1)
        if not frame.whole and level > 0:
            return value
        height = frame.height if frame.whole else None
        return self.verdicts.setdefault(key, (value, height))[0]

    @property
    def fingerprint(self):
        """Canonical AST fingerprint of the function and its resolvable
        helpers, or ``None`` when no source is available."""
        return self.derive(
            ("fingerprint",), _fingerprint, cycle="cycle", deep="cycle"
        )


def _fingerprint(facts):
    source = facts._source
    if source.node is None:
        return None
    if source.dump is None:
        source.dump = ast.dump(source.node)
    parts = [source.dump]
    for name, helper in facts.helpers():
        digest = helper.fingerprint
        if digest is not None:
            parts.append("%s=%s" % (name, digest))
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()[:16]


CacheInfo = collections.namedtuple("CacheInfo", "entries hits misses parses")


class _FactsCache:
    """Source facts under ``id(code)``, binding facts under ``(id(code),
    id(globals), environment)``, one LRU order over both."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.lock = threading.Lock()
        self.entries = collections.OrderedDict()
        self.hits = self.misses = self.parses = 0

    def get(self, fn):
        code = fn.__code__
        cells = closure_bindings(fn)
        key = (id(code), id(fn.__globals__)) + tuple(
            "unfilled" if name not in cells
            else id(cells[name]) if _by_identity(cells[name])
            else type(cells[name])
            for name in code.co_freevars
        )
        entries = self.entries
        with self.lock:
            facts = entries.get(key)
            if facts is not None:
                self.hits += 1
                entries.move_to_end(key)
            else:
                self.misses += 1
                source = entries.get(id(code))
                if source is None:
                    self.parses += 1
                    source = entries[id(code)] = _Source(code)
                facts = entries[key] = UdfFacts(source, fn, cells)
            if id(code) in entries:
                entries.move_to_end(id(code))  # a parse outlives its users
            while len(entries) > self.capacity:
                entries.popitem(last=False)
        return facts

    def clear(self):
        """Drop every cached fact and zero the counters (test isolation)."""
        with self.lock:
            self.entries.clear()
            self.hits = self.misses = self.parses = 0

    def info(self):
        """``CacheInfo(entries, hits, misses, parses)``: cache size,
        binding lookups served / not served from it, sources recovered."""
        with self.lock:
            return CacheInfo(
                len(self.entries), self.hits, self.misses, self.parses
            )


_CACHE = _FactsCache(CAPACITY)
clear_cache = _CACHE.clear
cache_info = _CACHE.info


def facts_for(fn):
    """The :class:`UdfFacts` for a callable, or ``None`` when no plain
    Python function is underneath its wrappers (builtins, classes)."""
    fn, _bindings = unwrap(fn)
    if not isinstance(fn, types.FunctionType):
        return None
    return _CACHE.get(fn)


def function_ast(fn):
    """The shared, read-only ``ast.Lambda`` / ``ast.FunctionDef`` node
    for ``fn``, or ``None`` when its source is unavailable, unparseable,
    or ambiguous (several candidate definitions on the source lines)."""
    facts = facts_for(fn)
    return None if facts is None else facts.node


def fingerprint_function(fn):
    """Canonical AST fingerprint of a function and its resolvable
    helpers, or ``None`` when no source is available.  Equal fingerprints
    build equal plans from equal inputs (up to closure *values*, which
    callers fold into their own keys): serve keys cross-job artifacts by
    it, codegen keys compiled chains by it.
    """
    facts = facts_for(fn)
    return None if facts is None else facts.fingerprint
