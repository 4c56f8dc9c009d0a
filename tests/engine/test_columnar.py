"""Columnar partitions: value fidelity, transport, sizing."""

import pickle

from repro.engine.columnar import ColumnarPartition
from repro.engine.sizing import estimate_size


class TestEncoding:
    def test_int_scalars_roundtrip(self):
        records = [3, -7, 0, 2**62]
        part = ColumnarPartition.from_records(records)
        assert part is not None
        assert part.to_records() == records
        assert list(part) == records
        assert all(type(v) is int for v in part)

    def test_float_scalars_roundtrip(self):
        records = [1.5, -0.25, 0.0, 3e300]
        part = ColumnarPartition.from_records(records)
        assert part.to_records() == records
        assert all(type(v) is float for v in part)

    def test_tuple_records_roundtrip(self):
        records = [(1, 2.5), (3, -4.0), (0, 0.0)]
        part = ColumnarPartition.from_records(records)
        assert part.kinds == "if"
        assert part.to_records() == records
        assert all(type(r) is tuple for r in part)

    def test_one_tuples_stay_tuples(self):
        records = [(1,), (2,), (3,)]
        part = ColumnarPartition.from_records(records)
        assert part is not None
        assert not part.scalar
        assert part.to_records() == records

    def test_empty_list_is_not_encoded(self):
        assert ColumnarPartition.from_records([]) is None

    def test_bools_are_not_encoded(self):
        # True would decode as 1: a changed value, so refuse.
        assert ColumnarPartition.from_records([True, False]) is None
        assert ColumnarPartition.from_records([(1, True)]) is None

    def test_big_ints_are_not_encoded(self):
        assert ColumnarPartition.from_records([1, 2**70]) is None

    def test_mixed_columns_are_not_encoded(self):
        assert ColumnarPartition.from_records([1, 2.0]) is None
        assert ColumnarPartition.from_records([1, "x"]) is None
        assert ColumnarPartition.from_records([(1, 2), (3, 4.0)]) is None

    def test_ragged_tuples_are_not_encoded(self):
        assert ColumnarPartition.from_records([(1, 2), (3,)]) is None

    def test_non_list_is_not_encoded(self):
        assert ColumnarPartition.from_records((1, 2)) is None
        assert ColumnarPartition.from_records(iter([1])) is None


class TestAccess:
    def test_len_and_getitem(self):
        part = ColumnarPartition.from_records([10, 20, 30])
        assert len(part) == 3
        assert part[1] == 20
        assert type(part[1]) is int
        assert part[-1] == 30

    def test_slice_returns_list(self):
        part = ColumnarPartition.from_records([10, 20, 30, 40])
        assert part[1:3] == [20, 30]

    def test_tuple_getitem(self):
        part = ColumnarPartition.from_records([(1, 2.0), (3, 4.0)])
        assert part[0] == (1, 2.0)
        assert type(part[0][0]) is int
        assert type(part[0][1]) is float

    def test_equality(self):
        records = [1, 2, 3]
        a = ColumnarPartition.from_records(records)
        b = ColumnarPartition.from_records(records)
        assert a == b
        assert a == records
        assert a != [1, 2]


class TestTransport:
    def test_pickle_roundtrip(self):
        records = [(i, i * 0.5) for i in range(100)]
        part = ColumnarPartition.from_records(records)
        clone = pickle.loads(pickle.dumps(part))
        assert isinstance(clone, ColumnarPartition)
        assert clone.to_records() == records
        assert clone.kinds == part.kinds

    def test_pickle_is_compact_for_floats(self):
        # 8 raw bytes per value vs pickle's 9-byte BINFLOAT opcodes
        # (small *ints* pickle tighter than 8 bytes; floats are the
        # transport-win case).
        records = [float(i) for i in range(1000)]
        columnar = len(
            pickle.dumps(ColumnarPartition.from_records(records))
        )
        boxed = len(pickle.dumps(records))
        assert columnar < boxed


class TestSizing:
    def test_nbytes_counts_buffers(self):
        part = ColumnarPartition.from_records([(i, 0.0) for i in range(50)])
        assert part.nbytes == 50 * 8 * 2

    def test_estimator_uses_buffer_bytes(self):
        # No special case in the estimator: a column's buffer is what
        # ``sys.getsizeof`` says it is.
        records = list(range(10_000))
        part = ColumnarPartition.from_records(records)
        assert estimate_size(part) < estimate_size(records)
        assert estimate_size(part) >= part.nbytes
