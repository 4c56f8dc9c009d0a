"""Driver-to-executor broadcast variables.

Mirrors Spark broadcasts: the driver ships a read-only value to every
executor.  The engine charges the broadcast volume to the current job and
raises a simulated OOM when the value cannot fit in executor memory, which
is how the paper's broadcast joins fail for large InnerScalars (Sec. 9.6).
"""

from ..errors import SimulatedOutOfMemory


class Broadcast:
    """A handle to a broadcast value.

    Attributes:
        value: The broadcast payload, readable from any UDF.
    """

    __slots__ = ("value", "num_records")

    def __init__(self, value, num_records):
        self.value = value
        self.num_records = num_records

    def __repr__(self):
        return "Broadcast(records=%d)" % self.num_records


def broadcast_footprint(num_records, config, meta=False):
    """``(needed, limit)`` in bytes for broadcasting ``num_records``
    records (meta-scale ones when ``meta``).

    A broadcast lives deserialized on every executor (shared across
    that machine's tasks) and must also pass through the driver, so the
    limit is the smaller of the two.  The payload fits when ``needed <=
    limit``; the plan lint's NPL303 reads the same pair.
    """
    record_bytes = (
        config.result_record_bytes if meta else config.bytes_per_record
    )
    return (
        config.materialized_bytes(num_records, record_bytes),
        min(config.executor_memory_limit_bytes, config.driver_memory_bytes),
    )


def check_broadcast_fits(num_records, config, what="broadcasting dataset",
                         meta=False):
    """Raise :class:`SimulatedOutOfMemory` unless the payload fits
    (:func:`broadcast_footprint`)."""
    needed, limit = broadcast_footprint(num_records, config, meta)
    if needed > limit:
        raise SimulatedOutOfMemory(what, needed, limit)
