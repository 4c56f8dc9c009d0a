"""JobService: fairness, concurrency, caching, eviction, lifecycle."""

import gc
import json
import threading
import warnings

import pytest

from repro.engine import CostModel, laptop_config
from repro.engine.metrics import JobMetrics, StageMetrics
from repro.observe.report import RunReport, entry_from_jobs
from repro.serve import artifacts as artifacts_module
from repro.serve import service as service_module
from repro.serve import (
    AdmissionRejected,
    JobService,
    ServiceClient,
    TenantConfig,
    encode_program,
)


def _count_program(tag, n=50):
    def run(job):
        data = job.dataset(
            "shared:%d" % n, lambda ctx: ctx.bag_of(range(n))
        )
        return data.map(lambda x: x + 1).count(label=tag)

    return run


def _serve_counts(svc, n, tenant="alice"):
    """Serve ``n`` count jobs ``j0 .. j<n-1>`` one by one; their handles."""
    handles = []
    for i in range(n):
        handle = svc.submit(
            tenant, _count_program("j%d" % i), label="j%d" % i
        )
        assert handle.result(timeout=30) == 50
        handles.append(handle)
    return handles


def _reachable(root):
    """Every object ``root`` keeps alive (``gc.get_referents``, transitively)."""
    seen, stack = {}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) not in seen:
            seen[id(obj)] = obj
            stack.extend(gc.get_referents(obj))
    return list(seen.values())


@pytest.fixture
def service():
    svc = JobService(num_slots=1, seed=1)
    svc.add_tenant("alice", weight=2.0)
    svc.add_tenant("bob")
    svc.start()
    yield svc
    svc.shutdown(drain=False, timeout=10)


class _Gate:
    """A submitted job that parks the single worker slot until opened,
    so later submissions queue up and dequeue order is pure DRR."""

    def __init__(self, service, tenant="alice"):
        self.ready = threading.Event()
        self.open = threading.Event()

        def blocker(job):
            self.ready.set()
            assert self.open.wait(timeout=30)
            return "gate"

        self.handle = service.submit(tenant, blocker, label="gate")
        assert self.ready.wait(timeout=30)


class TestFairScheduling:
    def test_weighted_schedule_is_deterministic_and_exact(self, service):
        # Gate through bob: serving it spends bob's quantum and
        # advances the DRR cursor past him, so the asserted window
        # starts a fresh round at alice.
        gate = _Gate(service, tenant="bob")
        handles = []
        for i in range(4):
            handles.append(service.submit(
                "alice", _count_program("a%d" % i), label="a%d" % i
            ))
            handles.append(service.submit(
                "bob", _count_program("b%d" % i), label="b%d" % i
            ))
        gate.open.set()
        assert gate.handle.result(timeout=30) == "gate"
        for handle in handles:
            assert handle.result(timeout=30) == 50
        # seed=1 -> cycle [alice, bob]; weights 2:1 with unit costs
        # -> two alice jobs per bob job, starting after the gate.
        assert service.schedule() == [
            ("bob", "gate"),
            ("alice", "a0"), ("alice", "a1"), ("bob", "b0"),
            ("alice", "a2"), ("alice", "a3"), ("bob", "b1"),
            ("bob", "b2"), ("bob", "b3"),
        ]

    def test_no_tenant_starves(self, service):
        gate = _Gate(service)
        handles = [
            service.submit("alice", _count_program("a%d" % i),
                           label="a%d" % i)
            for i in range(6)
        ] + [service.submit("bob", _count_program("b0"), label="b0")]
        gate.open.set()
        for handle in handles:
            assert handle.result(timeout=30) == 50
        order = [label for _, label in service.schedule()]
        # bob's lone job runs within one DRR round of the backlog, not
        # after all of alice's.
        assert order.index("b0") <= order.index("a2")


class TestConcurrentClients:
    def test_many_threads_many_tenants(self):
        svc = JobService(num_slots=2, seed=1)
        tenants = ["t%d" % i for i in range(3)]
        for name in tenants:
            svc.add_tenant(name, max_pending=64)
        svc.start()
        try:
            results = {}
            lock = threading.Lock()

            def client_main(index):
                client = ServiceClient(svc, tenants[index % 3])
                got = [
                    client.run(
                        _count_program("c%d-j%d" % (index, j)),
                        label="c%d-j%d" % (index, j), timeout=60,
                    )
                    for j in range(3)
                ]
                with lock:
                    results[index] = got

            threads = [
                threading.Thread(target=client_main, args=(i,))
                for i in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert all(not t.is_alive() for t in threads)
            assert results == {i: [50, 50, 50] for i in range(6)}
            stats = svc.stats()
            for name in tenants:
                assert stats["tenants"][name]["completed"] == 6
                assert stats["tenants"][name]["failed"] == 0
            cache = stats["cache"]
            assert cache["misses"] == 1  # one build of the shared bag
            assert cache["hits"] == 17
        finally:
            svc.shutdown(timeout=30)

    def test_backend_parity(self):
        def run_on(backend):
            svc = JobService(
                config=laptop_config(backend=backend),
                num_slots=2, seed=1,
            )
            svc.add_tenant("alice")
            svc.add_tenant("bob")
            svc.start()
            try:
                handles = [
                    svc.submit(
                        ["alice", "bob"][i % 2],
                        _pagerankish(), label="j%d" % i,
                    )
                    for i in range(4)
                ]
                return [h.result(timeout=120) for h in handles]
            finally:
                svc.shutdown(timeout=60)

        serial = run_on("serial")
        process = run_on("process")
        assert serial == process
        assert len(set(map(str, serial))) == 1  # same job -> same answer


def _pagerankish():
    def run(job):
        edges = job.dataset(
            "edges",
            lambda ctx: ctx.bag_of(
                [(i % 7, (i * 3) % 7) for i in range(60)]
            ),
        )
        grouped = edges.group_by_key()
        return sorted(
            (k, len(v)) for k, v in grouped.collect()
        )

    return run


class TestAdmissionUnderLoad:
    def test_quota_rejection_is_typed_and_counted(self, service):
        gate = _Gate(service, tenant="bob")
        svc = service
        tight = TenantConfig("carol", max_pending=2)
        svc.add_tenant(tight)
        h1 = svc.submit("carol", _count_program("c0"), label="c0")
        h2 = svc.submit("carol", _count_program("c1"), label="c1")
        with pytest.raises(AdmissionRejected) as exc:
            svc.submit("carol", _count_program("c2"), label="c2")
        assert exc.value.reason == "tenant-quota"
        gate.open.set()
        assert h1.result(timeout=30) == 50
        assert h2.result(timeout=30) == 50
        assert svc.tenant_stats("carol").rejected == 1
        assert svc.tenant_stats("carol").submitted == 2

    def test_unknown_tenant_rejected(self, service):
        with pytest.raises(AdmissionRejected) as exc:
            service.submit("mallory", _count_program("m0"))
        assert exc.value.reason == "unknown-tenant"

    def test_submit_before_start_raises(self):
        svc = JobService()
        svc.add_tenant("alice")
        with pytest.raises(RuntimeError):
            svc.submit("alice", _count_program("x"))


class TestArtifactLifecycle:
    def test_pinned_artifacts_survive_in_job_pressure(self):
        # Budget fits one artifact; a job resolving two keeps both
        # pinned (transient overshoot), and only after the job ends is
        # the cache squeezed back under budget.
        svc = JobService(num_slots=1, seed=1,
                         cache_limit_bytes=6000)
        svc.add_tenant("alice")
        svc.start()
        try:
            observed = {}

            def two_artifacts(job):
                a = job.dataset(
                    "a", lambda ctx: ctx.bag_of(range(100))
                )
                b = job.dataset(
                    "b", lambda ctx: ctx.bag_of(range(100))
                )
                total = a.count() + b.count()
                svc.cache.charge("a")
                svc.cache.charge("b")
                observed["mid-job"] = svc.cache.keys()
                return total

            handle = svc.submit("alice", two_artifacts)
            assert handle.result(timeout=30) == 200
            assert sorted(observed["mid-job"]) == ["a", "b"]
            stats = svc.cache.stats()
            assert stats["evictions"] == 1
            assert len(svc.cache) == 1
        finally:
            svc.shutdown(timeout=30)

    def test_eviction_invalidates_adopted_layout(self):
        """Evicting a cached artifact drops its partitions and the
        layout they were built with, so a later job rebuilds the
        artifact with a full shuffle instead of reading either."""
        svc = JobService(num_slots=1, seed=1,
                         cache_limit_bytes=1 << 20)
        svc.add_tenant("alice")
        svc.start()
        try:
            def grouped_bag(ctx):
                return ctx.bag_of(
                    [(i % 8, i) for i in range(200)]
                ).group_by_key(4)

            def join_job(job):
                grouped = job.dataset("grouped", grouped_bag)
                other = job.ctx.bag_of(
                    [(k, k * 10) for k in range(8)]
                )
                joined = grouped.join(other, num_partitions=4)
                return sorted(
                    (k, len(g), v) for k, (g, v) in joined.collect()
                )

            warm_up = svc.submit("alice", join_job, label="warm-up")
            expected = warm_up.result(timeout=30)
            warm = svc.submit("alice", join_job, label="warm")
            assert warm.result(timeout=30) == expected
            # Warm: the artifact's cached layout is adopted.
            assert "adopt-left" in [
                d.choice for d in warm.accounting.decisions
            ]
            assert warm.accounting.shuffle_records_saved > 0
            node = svc.cache.entry("grouped").value.node
            assert node.layout is not None

            assert svc.cache.evict("grouped") is True
            assert node.materialized is None
            assert node.layout is None

            cold = svc.submit("alice", join_job, label="cold")
            assert cold.result(timeout=30) == expected
            # The artifact was rebuilt from scratch: full shuffle for
            # the group-by (no cached partitions to elide into).
            assert cold.accounting.shuffle_records > (
                warm.accounting.shuffle_records
            )
            assert svc.cache.stats()["evictions"] == 1
        finally:
            svc.shutdown(timeout=30)

    def test_an_artifact_is_measured_once_per_materialization(
        self, service, monkeypatch
    ):
        # Every job re-charges the artifacts it pinned; a bag whose
        # partitions are still the ones measured keeps its estimate,
        # and one materialized anew is measured again.
        measured = []
        estimate_size = artifacts_module.estimate_size

        def counted(obj):
            measured.append(obj)
            return estimate_size(obj)

        monkeypatch.setattr(artifacts_module, "estimate_size", counted)
        key = "shared:50"
        for handle in _serve_counts(service, 2):
            assert handle.accounting is not None
        assert len(measured) == 1
        entry = service.cache.entry(key)
        assert measured[0] is entry.value.node.materialized
        warm_bytes = entry.bytes
        assert warm_bytes > 0 and service.cache.charge(key) == warm_bytes
        assert len(measured) == 1

        assert service.cache.evict(key) is True
        _serve_counts(service, 2)
        assert len(measured) == 2
        rebuilt = service.cache.entry(key).value.node.materialized
        assert measured[1] is rebuilt and measured[1] is not measured[0]
        assert service.cache.entry(key).bytes == warm_bytes

    def test_broadcast_artifacts_are_cached(self, service):
        def uses_broadcast(job):
            table = job.broadcast(
                "lookup", lambda ctx: {i: i * i for i in range(100)}
            )
            data = job.dataset(
                "nums", lambda ctx: ctx.bag_of(range(100))
            )
            return data.map(lambda x: table.value[x]).sum()

        first = service.submit("alice", uses_broadcast)
        second = service.submit("bob", uses_broadcast)
        expected = sum(i * i for i in range(100))
        assert first.result(timeout=30) == expected
        assert second.result(timeout=30) == expected
        stats = service.cache.stats()
        assert stats["misses"] == 2  # one bag, one broadcast
        assert stats["hits"] == 2


class TestLifecycleAndReporting:
    def test_failed_job_reports_and_reraises(self, service):
        def boom(job):
            raise ValueError("intentional")

        handle = service.submit("alice", boom, label="boom")
        with pytest.raises(ValueError, match="intentional"):
            handle.result(timeout=30)
        assert handle.state == "failed"
        assert service.drain(timeout=30)
        assert service.tenant_stats("alice").failed == 1

    def test_a_failing_job_log_neither_hangs_a_client_nor_kills_the_slot(
        self, tmp_path, monkeypatch
    ):
        def refuse(self, record):
            raise OSError("job log refused")

        monkeypatch.setattr(service_module._JsonlJobLog, "write", refuse)
        svc = JobService(num_slots=1, seed=1, report_dir=str(tmp_path))
        svc.add_tenant("alice")
        svc.start()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                first = svc.submit("alice", _count_program("j0"),
                                   label="j0")
                assert first.result(timeout=30) == 50
                second = svc.submit("alice", _count_program("j1"),
                                    label="j1")
                assert second.result(timeout=30) == 50
            assert (first.state, second.state) == ("done", "done")
            messages = [
                str(w.message) for w in caught
                if issubclass(w.category, RuntimeWarning)
            ]
            assert len(messages) == 2
            assert "'j0'" in messages[0] and "'alice'" in messages[0]
            assert "job log refused" in messages[0]
        finally:
            svc.shutdown(timeout=30)

    def test_drain_then_submit_rejected(self, service):
        handle = service.submit("alice", _count_program("a0"))
        assert service.drain(timeout=30)
        assert handle.result(timeout=1) == 50
        with pytest.raises(AdmissionRejected) as exc:
            service.submit("alice", _count_program("a1"))
        assert exc.value.reason == "draining"

    def test_shutdown_without_drain_abandons_queued(self):
        svc = JobService(num_slots=1, seed=1)
        svc.add_tenant("alice")
        svc.start()
        gate = _Gate(svc)
        queued = svc.submit("alice", _count_program("later"),
                            label="later")
        gate.open.set()
        svc.shutdown(drain=False, timeout=30)
        with pytest.raises(AdmissionRejected) as exc:
            queued.result(timeout=5)
        assert exc.value.reason == "shutdown"

    def test_reports_written_per_tenant(self, tmp_path):
        svc = JobService(num_slots=1, seed=1,
                         report_dir=str(tmp_path))
        svc.add_tenant("alice")
        svc.add_tenant("bob")
        svc.start()
        for i in range(2):
            svc.submit("alice", _count_program("a%d" % i),
                       label="a%d" % i)
        svc.submit("bob", _count_program("b0"), label="b0")
        svc.shutdown(timeout=30)

        alice_log = (tmp_path / "alice.jsonl").read_text()
        records = [
            json.loads(line) for line in alice_log.splitlines()
        ]
        assert len(records) == 2
        assert all(r["status"] == "ok" for r in records)
        assert all(r["jobs"] >= 1 for r in records)
        report = json.loads(
            (tmp_path / "alice-report.json").read_text()
        )
        assert report["label"] == "serve:alice"
        (entry,) = report["entries"]
        assert entry["system"] == "serve"
        assert entry["totals"]["jobs"] == 2
        assert (tmp_path / "bob-report.json").exists()
        assert report["meta"]["stats"]["completed"] == 2

    def test_serialized_submission_round_trip(self, service):
        client = ServiceClient(service, "alice")
        payload = encode_program(_count_program("wire"))
        handle = client.submit_serialized(payload, label="wire")
        assert handle.result(timeout=30) == 50

    def test_named_program_submission(self, service):
        client = ServiceClient(service, "bob")
        result = client.run(
            "range-sum", n=100, timeout=60
        )
        assert result == sum(range(100))

    def test_context_manager(self):
        with JobService(num_slots=1, seed=1) as svc:
            svc.add_tenant("alice")
            handle = svc.submit("alice", _count_program("cm"))
            assert handle.result(timeout=30) == 50
        # Exiting shut the service down cleanly.
        with pytest.raises(AdmissionRejected):
            svc.submit("alice", _count_program("late"))

    def test_bounded_service_state_over_many_jobs(self):
        svc = JobService(num_slots=1, seed=1)
        svc.add_tenant("alice")
        svc.start()
        try:
            handles = _serve_counts(svc, 30)
            # The shared context's trace and decision log were
            # drained per job.
            assert svc.ctx.trace.num_jobs == 0
            assert len(svc.ctx.executor.decisions) == 0
            assert svc.tenant_stats("alice").completed == 30
            # What the report window keeps of a job is sized by its
            # stages: no metrics object, no per-task list (16 tasks a
            # stage here).
            jobs = [
                job for handle in handles
                for job in handle.accounting.jobs
            ]
            most_stages = max(len(job.stages) for job in jobs)
            assert most_stages < 16
            window = svc._recent_jobs["alice"]
            assert len(window) == len(jobs) == 30
            for obj in _reachable(window):
                assert not isinstance(obj, (JobMetrics, StageMetrics))
                if isinstance(obj, list):
                    assert len(obj) <= most_stages
            # ... and the report a tenant reads is the one the traces
            # give, key for key.
            entry = svc.tenant_report("alice").to_dict()["entries"][0]
            assert entry == entry_from_jobs(
                jobs, svc.ctx.cost_model, system="serve", x="alice"
            )
        finally:
            svc.shutdown(timeout=30)

    def test_report_window_keeps_the_last_engine_jobs(self, monkeypatch):
        monkeypatch.setattr(service_module, "REPORT_WINDOW", 4)
        svc = JobService(num_slots=1, seed=1)
        svc.add_tenant("alice")
        svc.start()
        try:
            _serve_counts(svc, 30)
            entry = svc.tenant_report("alice").entries[0]
            assert entry["totals"]["jobs"] == 4
            assert [job["label"] for job in entry["jobs"]] == [
                "j26", "j27", "j28", "j29",
            ]
        finally:
            svc.shutdown(timeout=30)

    def test_each_stage_is_costed_once_and_never_for_a_report(
        self, tmp_path, monkeypatch
    ):
        costed = []
        real = CostModel.stage_cost

        def counting(self, stage):
            costed.append(stage)
            return real(self, stage)

        monkeypatch.setattr(CostModel, "stage_cost", counting)
        svc = JobService(
            num_slots=1, seed=1, report_dir=str(tmp_path / "reports")
        )
        svc.add_tenant("alice")
        svc.start()
        try:
            (handle,) = _serve_counts(svc, 1)
            assert costed and len(costed) == handle.accounting.num_stages
            assert len(set(map(id, costed))) == len(costed)
            del costed[:]
            svc.tenant_report("alice")
            (path,) = svc.write_reports()
            assert costed == []
            assert RunReport.load(path).entries[0]["totals"]["jobs"] == 1
        finally:
            svc.shutdown(timeout=30)


class _Announced(threading.Event):
    """A handle's completion event that also says when a client has
    blocked on it (``JobHandle.result`` counts the waiter first)."""

    def __init__(self):
        super().__init__()
        self.waiting = threading.Event()

    def wait(self, timeout=None):
        self.waiting.set()
        return super().wait(timeout)


class _CountedWaits(threading.Event):
    """A handle's hand-off event that counts the slot's waits on it."""

    def __init__(self):
        super().__init__()
        self.waits = 0

    def wait(self, timeout=None):
        self.waits += 1
        return super().wait(timeout)


class TestCompletionHandOff:
    """The slot that completes a job lets one blocked client resume
    before it dequeues the next.  Each test raises the hand-off's bound
    (the interpreter's switch interval) far above any run time, so an
    order the handshake does not enforce would show as a hang, not as
    a flaky pass."""

    @pytest.fixture(autouse=True)
    def long_bound(self, monkeypatch):
        monkeypatch.setattr(
            service_module.sys, "getswitchinterval", lambda: 60.0
        )

    @pytest.fixture
    def svc(self):
        svc = JobService(num_slots=1, seed=1)
        svc.add_tenant("alice", max_pending=64)
        svc.start()
        yield svc
        svc.shutdown(drain=False, timeout=30)

    @pytest.mark.parametrize("fails", [False, True])
    def test_a_blocked_client_resumes_before_the_next_job(self, svc, fails):
        gate = _Gate(svc)
        handles = []

        def program(i):
            def run(job):
                resumed_first = i == 0 or handles[i - 1]._resumed.is_set()
                # Finish only once this job's client is blocked on it.
                assert handles[i]._event.waiting.wait(30)
                if fails:
                    raise ValueError(resumed_first)
                return resumed_first

            return run

        for i in range(24):
            handle = svc.submit("alice", program(i), label="j%d" % i)
            handle._event = _Announced()
            handles.append(handle)
        gate.open.set()
        seen = []
        for handle in handles:
            if fails:
                with pytest.raises(ValueError) as exc:
                    handle.result(timeout=30)
                seen.append(exc.value.args[0])
            else:
                seen.append(handle.result(timeout=30))
            assert handle._waiters == 0
        assert seen == [True] * 24

    def test_fire_and_forget_jobs_never_wait(self, svc):
        gate = _Gate(svc)
        handles = []
        for i in range(20):
            handle = svc.submit("alice", _count_program("f%d" % i))
            handle._resumed = _CountedWaits()
            handles.append(handle)
        gate.open.set()
        assert svc.drain(timeout=30)
        assert all(handle.done() for handle in handles)
        assert sum(handle._resumed.waits for handle in handles) == 0

    def test_an_expired_wait_leaves_no_waiter(self, svc):
        gate = _Gate(svc)
        handle = svc.submit("alice", _count_program("late"))
        with pytest.raises(TimeoutError):
            handle.result(timeout=0)
        assert handle._waiters == 0
        handle._resumed = _CountedWaits()
        gate.open.set()
        assert svc.drain(timeout=30)
        # Nobody was blocked on it when it finished: no hand-off.
        assert handle._resumed.waits == 0
        assert handle.result(timeout=0) == 50
        assert handle._waiters == 0

    def test_shutdown_without_drain_ends_every_blocked_waiter(self, svc):
        gate = _Gate(svc)
        handles = [gate.handle] + [
            svc.submit("alice", _count_program("q%d" % i))
            for i in range(6)
        ]
        outcomes = {}

        def client(index, handle):
            try:
                outcomes[index] = handle.result(timeout=30)
            except Exception as exc:  # noqa: BLE001 -- the outcome
                outcomes[index] = exc

        for handle in handles:
            handle._event = _Announced()
        clients = [
            threading.Thread(target=client, args=pair)
            for pair in enumerate(handles)
        ]
        for thread in clients:
            thread.start()
        for handle in handles:
            assert handle._event.waiting.wait(30)
        gate.open.set()
        svc.shutdown(drain=False, timeout=30)
        for thread in clients:
            thread.join(30)
        assert not any(thread.is_alive() for thread in clients)
        assert all(handle.done() for handle in handles)
        assert outcomes[0] == "gate"
        assert all(
            outcomes[i] == 50 or isinstance(outcomes[i], AdmissionRejected)
            for i in range(1, len(handles))
        )
        assert all(handle._waiters == 0 for handle in handles)
