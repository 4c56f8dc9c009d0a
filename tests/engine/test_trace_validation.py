"""Shuffle-stage accounting and the trace invariants of engine.validate.

The headline regression: a cogroup (and everything derived from it --
repartition joins, left-outer joins, subtract) must schedule exactly
*one* reduce stage that reads both sides' shuffle files.  The seed
executor left the right side's folded stage in the job, double-charging
every repartition join.
"""

import pytest

from repro.engine import (
    JobMetrics,
    TraceInvariantError,
    validate_job,
    validate_trace,
)


def keyed(n, tags=10, sign=1):
    return [("k%d" % (i % tags), sign * i) for i in range(n)]


class TestCogroupStageAccounting:
    def test_cogroup_schedules_exactly_one_reduce_stage(self, ctx):
        left = ctx.bag_of(keyed(30))
        right = ctx.bag_of(keyed(30, sign=-1))
        left.cogroup(right).collect()
        job = ctx.trace.jobs[-1]
        shuffles = [s for s in job.stages if s.kind == "shuffle"]
        assert len(shuffles) == 1

    def test_cogroup_of_two_30_record_bags_traces_60_and_60(self, ctx):
        left = ctx.bag_of(keyed(30))
        right = ctx.bag_of(keyed(30, sign=-1))
        left.cogroup(right).collect()
        job = ctx.trace.jobs[-1]
        stage = [s for s in job.stages if s.kind == "shuffle"][0]
        assert stage.total_records == 60
        assert stage.shuffle_read_records == 60
        assert job.total_shuffle_records == 60

    def test_repartition_join_not_double_charged(self, ctx):
        left = ctx.bag_of(keyed(30))
        right = ctx.bag_of(keyed(30, sign=-1))
        left.join(right).collect()
        job = ctx.trace.jobs[-1]
        shuffles = [s for s in job.stages if s.kind == "shuffle"]
        assert len(shuffles) == 1
        assert job.total_shuffle_records == 60

    def test_cogroup_results_unchanged(self, ctx):
        left = ctx.bag_of([("a", 1), ("b", 2), ("a", 3)])
        right = ctx.bag_of([("a", "x"), ("c", "y")])
        got = dict(left.cogroup(right).collect())
        assert sorted(got["a"][0]) == [1, 3]
        assert got["a"][1] == ["x"]
        assert got["b"] == ([2], [])
        assert got["c"] == ([], ["y"])

    def test_left_outer_and_subtract_share_the_layout(self, ctx):
        for op in ("left_outer_join", "subtract_by_key"):
            left = ctx.bag_of(keyed(20))
            right = ctx.bag_of(keyed(10))
            getattr(left, op)(right).collect()
            job = ctx.trace.jobs[-1]
            shuffles = [s for s in job.stages if s.kind == "shuffle"]
            assert len(shuffles) == 1
            assert job.total_shuffle_records == 30


class TestCoalesceStageKind:
    def test_coalesce_has_its_own_kind(self, ctx):
        bag = ctx.bag_of(range(20), num_partitions=8).coalesce(2)
        bag.collect()
        kinds = [stage.kind for stage in ctx.trace.jobs[-1].stages]
        assert kinds == ["input", "coalesce"]

    def test_coalesce_is_not_a_scheduled_stage(self, ctx):
        plain = ctx.bag_of(range(20), num_partitions=8)
        plain.collect()
        base = ctx.cost_breakdown().stage_overhead_s
        ctx.reset_trace()
        ctx.bag_of(range(20), num_partitions=8).coalesce(2).collect()
        assert ctx.cost_breakdown().stage_overhead_s == pytest.approx(
            base
        )


class TestValidateModule:
    def make_valid_job(self):
        job = JobMetrics(job_id=0, action="collect")
        inp = job.new_stage("input", origin="Parallelize")
        inp.task_records.extend([5, 5])
        red = job.new_stage("shuffle", origin="ReduceByKey")
        red.task_records.extend([4, 4])
        red.shuffle_read_records = 8
        red.shuffle_write_records = 8
        return job

    def test_valid_job_passes(self):
        validate_job(self.make_valid_job())

    def test_unknown_stage_kind_rejected(self):
        job = self.make_valid_job()
        job.stages[0].kind = "mystery"
        with pytest.raises(TraceInvariantError):
            validate_job(job)

    def test_negative_counts_rejected(self):
        job = self.make_valid_job()
        job.stages[1].task_records[0] = -1
        with pytest.raises(TraceInvariantError):
            validate_job(job)

    def test_narrow_stage_with_shuffle_volume_rejected(self):
        job = self.make_valid_job()
        job.stages[0].shuffle_read_records = 3
        with pytest.raises(TraceInvariantError):
            validate_job(job)

    def test_read_write_mismatch_rejected(self):
        # The double-count signature: a stage reading more than the map
        # side wrote for it.
        job = self.make_valid_job()
        job.stages[1].shuffle_read_records = 16
        with pytest.raises(TraceInvariantError):
            validate_job(job)

    def test_reads_beyond_upstream_writes_rejected(self):
        job = self.make_valid_job()
        job.stages[1].shuffle_read_records = 100
        job.stages[1].shuffle_write_records = 100
        with pytest.raises(TraceInvariantError):
            validate_job(job)

    def test_anonymous_shuffle_stage_rejected(self):
        # The seed's folded cogroup stage had no origin; a scheduled
        # reduce stage must name the wide operator that opened it.
        job = self.make_valid_job()
        job.stages[1].origin = ""
        with pytest.raises(TraceInvariantError):
            validate_job(job)

    def test_tasks_fewer_than_reads_rejected(self):
        job = self.make_valid_job()
        job.stages[1].task_records = [1, 1]
        with pytest.raises(TraceInvariantError):
            validate_job(job)


class TestValidationWiring:
    def test_every_executed_job_passes_validation(self, ctx):
        bag = ctx.bag_of(keyed(40))
        bag.reduce_by_key(lambda a, b: a + b).collect()
        bag.group_by_key().count()
        bag.cogroup(ctx.bag_of(keyed(12))).collect()
        bag.join(ctx.bag_of(keyed(8)), strategy="broadcast").collect()
        ctx.bag_of(range(9)).coalesce(2).union(
            ctx.bag_of(range(3))
        ).collect()
        validate_trace(ctx.trace)
        ctx.validate_trace()

    def test_executor_validates_every_job_eagerly(self, ctx, monkeypatch):
        from repro.engine import executor

        checked = []

        def recording(job):
            checked.append(job)
            return validate_job(job)

        monkeypatch.setattr(executor, "validate_job", recording)
        bag = ctx.bag_of(keyed(10))
        bag.reduce_by_key(lambda a, b: a + b).collect()
        bag.count()
        bag.map(lambda kv: kv[1]).reduce(lambda a, b: a + b)
        assert checked == ctx.trace.jobs and len(checked) == 3

    def test_an_invalid_job_fails_its_action(self, ctx, monkeypatch):
        from repro.engine import executor

        def corrupting(job):
            job.stages[0].shuffle_read_records = 1  # on an input stage
            return validate_job(job)

        monkeypatch.setattr(executor, "validate_job", corrupting)
        with pytest.raises(TraceInvariantError, match="narrow"):
            ctx.bag_of(range(4)).count()
