"""Columnar partition representation for numeric record batches.

A :class:`ColumnarPartition` stores a partition of scalar-numeric
records (or fixed-arity tuples of them) as parallel typed buffers --
one 64-bit column per field -- instead of a list of boxed Python
objects.  The flattening transformation turns nested programs into
long narrow chains over flat tagged data, which is exactly the shape
that packs into columns.  The engine itself keeps every partition a
plain list (re-encoding at fusion boundaries cost more than it saved on
every measured workload, see ``docs/architecture.md`` section "Flag
decisions"); the class is the codec, timed by ``benchmarks/wall``.

Design constraints, in order:

* **Value fidelity.**  Iterating or decoding a columnar partition must
  yield *exactly* the Python values that went in -- ``int`` stays
  ``int``, ``float`` stays ``float``, tuples keep their arity.  Records
  that cannot be represented losslessly (bools, big ints beyond 64
  bits, strings, mixed-type columns) are simply not encoded:
  :meth:`ColumnarPartition.from_records` returns ``None`` and the
  caller keeps the plain list.
* **Pickle safety.**  ``__reduce__`` serializes columns as raw
  little-endian bytes plus a type string, independent of whether numpy
  is importable on the other side.
* **Optional numpy.**  When numpy is importable, columns are built and
  held as ``numpy`` arrays (fast bulk construction and ``tolist``
  decode); otherwise :mod:`array` buffers are used.  The two paths are
  value- and pickle-compatible.
"""

import array
import struct
import sys

try:  # optional fast path, auto-detected at import
    import numpy as _np
except ImportError:  # pragma: no cover - depends on the environment
    _np = None

HAVE_NUMPY = _np is not None

__all__ = [
    "HAVE_NUMPY",
    "ColumnarPartition",
]

#: Column kind -> (array typecode, numpy dtype name).  Both are 64-bit
#: and little-endian on every platform this repo targets, so the two
#: storage backends serialize identically.
_KINDS = {
    "i": ("q", "int64"),
    "f": ("d", "float64"),
}

#: Widest tuple record we bother to columnarize.
_MAX_ARITY = 16


def _column_kind(values):
    """``"i"``/``"f"`` when every value is exactly that scalar type.

    ``bool`` is deliberately rejected (``type(True) is not int``):
    encoding ``True`` as ``1`` would change the decoded value.
    """
    kind = None
    for value in values:
        t = type(value)
        if t is int:
            k = "i"
        elif t is float:
            k = "f"
        else:
            return None
        if kind is None:
            kind = k
        elif kind != k:
            return None
    return kind


def _encode_column(kind, values):
    """Build one typed column; raises ``OverflowError`` on >64-bit ints."""
    typecode, dtype = _KINDS[kind]
    if HAVE_NUMPY:
        column = _np.asarray(values, dtype=dtype)
        if kind == "i" and column.dtype != _np.dtype("int64"):
            raise OverflowError("int column does not fit int64")
        return column
    return array.array(typecode, values)


def _column_bytes(column):
    if HAVE_NUMPY and isinstance(column, _np.ndarray):
        if sys.byteorder == "big":  # pragma: no cover - LE platforms
            return column.astype(column.dtype.newbyteorder("<")).tobytes()
        return column.tobytes()
    data = column.tobytes()
    if sys.byteorder == "big":  # pragma: no cover - LE platforms
        column = array.array(column.typecode, column)
        column.byteswap()
        data = column.tobytes()
    return data


def _decode_column(kind, data):
    typecode, dtype = _KINDS[kind]
    if HAVE_NUMPY:
        column = _np.frombuffer(data, dtype="<" + {"i": "i8", "f": "f8"}[kind])
        return column.astype(dtype, copy=False)
    column = array.array(typecode)
    column.frombytes(data)
    if sys.byteorder == "big":  # pragma: no cover - LE platforms
        column.byteswap()
    return column


class ColumnarPartition:
    """One partition stored as parallel 64-bit columns.

    Attributes:
        kinds: One ``"i"``/``"f"`` character per column.
        scalar: True when records are bare scalars (one column) rather
            than 1-tuples.
    """

    __slots__ = ("kinds", "scalar", "columns", "_length")

    def __init__(self, kinds, scalar, columns, length):
        self.kinds = kinds
        self.scalar = scalar
        self.columns = columns
        self._length = length

    # -- construction --------------------------------------------------

    @classmethod
    def from_records(cls, records):
        """Encode a list of records, or return ``None`` when the shape
        is not columnar (empty, non-numeric, ragged, or out of range).
        """
        if not isinstance(records, list) or not records:
            return None
        first = records[0]
        if type(first) is tuple:
            arity = len(first)
            if not 1 <= arity <= _MAX_ARITY:
                return None
            for record in records:
                if type(record) is not tuple or len(record) != arity:
                    return None
            raw_columns = list(zip(*records))
            scalar = False
        else:
            raw_columns = [records]
            scalar = True
        kinds = []
        for values in raw_columns:
            kind = _column_kind(values)
            if kind is None:
                return None
            kinds.append(kind)
        try:
            columns = [
                _encode_column(kind, values)
                for kind, values in zip(kinds, raw_columns)
            ]
        except (OverflowError, ValueError, TypeError):
            return None
        return cls("".join(kinds), scalar, columns, len(records))

    # -- decoding ------------------------------------------------------

    def to_records(self):
        """The partition back as a list of plain Python records."""
        decoded = [column.tolist() for column in self.columns]
        if self.scalar:
            return decoded[0]
        return list(zip(*decoded))

    def __iter__(self):
        return iter(self.to_records())

    def __len__(self):
        return self._length

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.to_records()[index]
        if self.scalar:
            return _plain(self.columns[0][index])
        return tuple(_plain(column[index]) for column in self.columns)

    # -- accounting ----------------------------------------------------

    @property
    def nbytes(self):
        """Raw buffer bytes across all columns."""
        return self._length * 8 * len(self.columns)

    # -- transport -----------------------------------------------------

    def __reduce__(self):
        return (
            _rebuild,
            (
                self.kinds,
                self.scalar,
                [_column_bytes(column) for column in self.columns],
                self._length,
            ),
        )

    def __eq__(self, other):
        if isinstance(other, ColumnarPartition):
            return (
                self.kinds == other.kinds
                and self.scalar == other.scalar
                and self.to_records() == other.to_records()
            )
        if isinstance(other, list):
            return self.to_records() == other
        return NotImplemented

    def __ne__(self, other):
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __repr__(self):
        shape = "scalar" if self.scalar else "tuple[%d]" % len(self.columns)
        return "ColumnarPartition(%s %s, %d records, %d bytes)" % (
            shape, self.kinds, self._length, self.nbytes,
        )


def _plain(value):
    """A column element as the exact Python scalar that was encoded.

    numpy indexing yields ``np.int64``/``np.float64`` (the latter even
    *subclasses* ``float``, so an isinstance check would let it leak);
    ``array.array`` indexing already yields plain scalars.
    """
    if type(value) is int or type(value) is float:
        return value
    return value.item()


def _rebuild(kinds, scalar, blobs, length):
    columns = [
        _decode_column(kind, data) for kind, data in zip(kinds, blobs)
    ]
    return ColumnarPartition(kinds, scalar, columns, length)


# Sanity: both storage backends serialize a record to exactly 8 bytes
# per column; ``struct`` spells out the invariant the codecs rely on.
assert struct.calcsize("<q") == struct.calcsize("<d") == 8
