"""Reporting extra CPU work done inside UDFs.

The engine's cost model counts records flowing through operators.  A UDF
that loops internally (for example the outer-parallel workaround running a
whole sequential K-means on one group inside a single ``map`` call) does
work the operator counts cannot see.  Such UDFs wrap their result in
:class:`Weighted`, and the executor credits the declared work units (in
records processed) to the running task before unwrapping.
"""


class Weighted:
    """A UDF result annotated with the records of work spent producing it.

    Attributes:
        value: The actual result the operator should emit.
        work: Number of record-equivalents of CPU work the UDF performed.
    """

    __slots__ = ("value", "work")

    def __init_subclass__(cls, **kwargs):
        # Task bodies find wrapped results by exact class, a vector at
        # a time in C; a subclass would flow on as a record.
        raise TypeError("Weighted cannot be subclassed")

    def __init__(self, value, work):
        if work < 0:
            raise ValueError("work must be non-negative")
        self.value = value
        self.work = work

    def __repr__(self):
        return "Weighted(%r, work=%d)" % (self.value, self.work)


def unwrap(result, task_work):
    """Unwrap a possibly-:class:`Weighted` result, crediting its work.

    Args:
        result: The raw UDF return value.
        task_work: A single-element list accumulating extra work for the
            current task (mutated in place).
    """
    if isinstance(result, Weighted):
        task_work[0] += result.work
        return result.value
    return result


def unwrap_all(results):
    """Unwrap a vector of UDF results, some of them :class:`Weighted`.

    Returns ``(values, work)``: the results in order with every
    wrapper replaced by its value, and the summed work they declared.
    """
    values = []
    work = 0
    for result in results:
        if result.__class__ is Weighted:
            work += result.work
            result = result.value
        values.append(result)
    return values, work
