"""Serial vs process-pool parity: same plan, same results, same trace.

The acceptance bar for the task runtime: every program -- including the
paper's task library, unmodified -- must produce identical collected
results and an identical trace shape whether its tasks run inline or on
a pool of worker processes.
"""

import pytest

from repro.data import grouped_edges, visits_log
from repro.engine import (
    BackendParityError,
    EngineContext,
    assert_backend_parity,
    laptop_config,
    trace_signature,
)
from repro.tasks import bounce_rate as br
from repro.tasks import pagerank as pr


def wordcount(ctx):
    text = "the quick brown fox jumps over the lazy dog the end".split()
    counts = (
        ctx.bag_of(text)
        .map(lambda w: (w, 1))
        .reduce_by_key(lambda a, b: a + b)
    )
    return sorted(counts.collect())


def narrow_chain(ctx):
    return sorted(
        ctx.bag_of(range(200))
        .map(lambda x: x * 3)
        .filter(lambda x: x % 2 == 0)
        .flat_map(lambda x: [x, -x])
        .collect()
    )


def grouping(ctx):
    records = [(i % 7, i) for i in range(100)]
    groups = ctx.bag_of(records).group_by_key()
    return sorted(
        (key, sorted(values)) for key, values in groups.collect()
    )


def joined(ctx):
    left = ctx.bag_of([(i % 5, i) for i in range(40)])
    right = ctx.bag_of([(i % 5, -i) for i in range(20)])
    return sorted(left.join(right).collect())


def bounce_rate_task(ctx):
    visits = ctx.bag_of(
        visits_log(num_days=4, total_visits=200, seed=3)
    )
    return sorted(br.bounce_rate_nested(visits).collect())


def pagerank_task(ctx):
    edges = [
        edge for _gid, edge in grouped_edges(
            num_groups=1, total_edges=60, seed=7
        )
    ]
    ranks = pr.pagerank_parallel(ctx, edges, iterations=3)
    return sorted((v, round(rank, 12)) for v, rank in ranks.items())


PROGRAMS = [
    wordcount,
    narrow_chain,
    grouping,
    joined,
    bounce_rate_task,
    pagerank_task,
]


class TestParity:
    @pytest.mark.parametrize(
        "program", PROGRAMS, ids=[fn.__name__ for fn in PROGRAMS]
    )
    def test_program_is_backend_invariant(self, program):
        result = assert_backend_parity(program, num_workers=2)
        assert result  # every program returns a non-empty result

    def test_mismatching_results_are_reported(self):
        runs = []

        def unstable(ctx):
            runs.append(ctx)
            return len(runs)  # 1 on the first backend, 2 on the second

        with pytest.raises(BackendParityError, match="different results"):
            assert_backend_parity(unstable, num_workers=2)


class TestTraceSignature:
    def test_repeated_serial_runs_have_equal_signatures(self):
        signatures = []
        for _ in range(2):
            ctx = EngineContext(laptop_config(backend="serial"))
            wordcount(ctx)
            signatures.append(trace_signature(ctx.trace))
        assert signatures[0] == signatures[1]

    def test_signature_ignores_measured_time(self):
        ctx = EngineContext(laptop_config(backend="serial"))
        wordcount(ctx)
        before = trace_signature(ctx.trace)
        ctx.trace.jobs[-1].stages[-1].credit_task_seconds([12.5])
        ctx.trace.jobs[-1].stages[-1].task_retries += 1
        assert trace_signature(ctx.trace) == before
