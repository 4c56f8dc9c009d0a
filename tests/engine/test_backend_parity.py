"""Serial vs process-pool parity: same plan, same results, same trace.

The acceptance bar for the task runtime: every program -- including the
paper's task library, unmodified -- must produce identical collected
results and an identical trace shape whether its tasks run inline or on
a pool of worker processes.  The programs here go through the
``backend`` row of the differential harness (``tests/programs.py``).
"""

import random

import pytest

from repro.data import grouped_edges, visits_log
from repro.engine import EngineContext, laptop_config
from repro.tasks import bounce_rate as br
from repro.tasks import pagerank as pr
from tests.programs import (
    library_programs, results_equivalent, run_choice, trace_signature,
)


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
        reference, _chosen = run_choice(
            "backend", program, program.__name__
        )
        assert reference.result  # every program returns a non-empty result

    def test_mismatching_results_are_reported(self):
        runs = []

        def unstable(ctx):
            runs.append(ctx)
            return len(runs)  # 1 on the first run, 2 on the second

        with pytest.raises(AssertionError, match="different results"):
            run_choice("backend", unstable, "unstable")


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
        ctx.trace.jobs[-1].stages[-1].credit_task_seconds([12.5], [0])
        ctx.trace.jobs[-1].stages[-1].task_retries += 1
        assert trace_signature(ctx.trace) == before

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize(
        "overrides",
        [{"backend": "serial"}, {"backend": "process", "num_workers": 2}],
        ids=["serial", "process"],
    )
    def test_a_fault_plan_leaves_the_signature_alone(self, overrides, seed):
        # Until its kill fires, a pending plan dispatches -- and
        # credits -- every task of every set, the empty ones as
        # explicit zeros; the signature reads the tasks with records.
        ((_name, program),) = library_programs(["bounce-rate-flat"])

        def run(kill):
            with EngineContext(laptop_config(**overrides)) as ctx:
                if kill:
                    ctx.fault_injector.kill_task(
                        task_index=random.Random(seed).randrange(16),
                        operator="FlatMap+Map",
                    )
                result = program(ctx)
                assert ctx.fault_injector.pending == 0
                assert ctx.trace.task_retries == int(kill)
                return result, ctx.trace

        result, faulty = run(kill=True)
        clean_result, clean = run(kill=False)
        assert results_equivalent(result, clean_result)
        assert trace_signature(faulty) == trace_signature(clean)
        zeros = [
            stage for job in faulty.jobs for stage in job.stages
            if 0 in stage.task_records.amounts
        ]
        assert zeros, "the plan credited no explicit zero"
