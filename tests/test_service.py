"""Tests for the long-running conflict service (:mod:`repro.service`).

Most tests run a real :class:`ConflictService` on an ephemeral loopback
port and talk to it with :class:`ServiceClient` — the HTTP layer,
admission control, and drain ordering are exactly what is under test, so
nothing is mocked.  One test exercises the full ``repro serve`` SIGTERM
path as a subprocess.
"""

from __future__ import annotations

import json
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro import obs
from repro.conflicts.batch import BatchAnalyzer
from repro.conflicts.detector import ConflictDetector, DetectorConfig
from repro.obs.metrics import MetricsRegistry
from repro.obs.prometheus import validate_exposition
from repro.errors import (
    CacheCorruptWarning,
    ServiceError,
    ServiceOverloaded,
    ServiceProtocolError,
)
from repro.operations.ops import Delete, Insert, Read
from repro.resilience import faults
from repro.service import ConflictService, ServiceClient, ServiceConfig
from repro.service.admission import AdmissionController
from repro.service.config import DEFAULT_PORT
from repro.service.protocol import (
    catalogue_from_specs,
    detector_config_from,
    op_from_spec,
    op_to_spec,
)
from repro.service.state import ServiceState

CATALOGUE = {
    "titles": {"op": "read", "xpath": "bib/book/title"},
    "restock": {"op": "insert", "xpath": "bib/book", "xml": "<restock/>"},
    "purge": {"op": "delete", "xpath": "bib/book"},
}


def make_service(**overrides) -> ConflictService:
    overrides.setdefault("workers", 2)
    config = ServiceConfig(port=0, **overrides)
    service = ConflictService(config)
    service.start_background()
    return service


@pytest.fixture
def service():
    svc = make_service()
    yield svc
    svc.drain(snapshot=False)


@pytest.fixture
def client(service):
    with ServiceClient(port=service.port) as c:
        yield c


class TestProtocol:
    def test_op_specs_round_trip(self):
        for op in (Read("a/b//c"), Insert("a/b", "<x><y/></x>"), Delete("a//b")):
            rebuilt = op_from_spec(op_to_spec(op))
            assert type(rebuilt) is type(op)
            assert op_to_spec(rebuilt) == op_to_spec(op)

    def test_bad_specs_rejected(self):
        with pytest.raises(ServiceProtocolError, match="'op' and 'xpath'"):
            op_from_spec({"xpath": "a"})
        with pytest.raises(ServiceProtocolError, match="unknown op"):
            op_from_spec({"op": "move", "xpath": "a"})
        with pytest.raises(ServiceProtocolError, match="'xpath' must be"):
            op_from_spec({"op": "read", "xpath": 7})
        with pytest.raises(ServiceProtocolError, match="operation 'bad'"):
            catalogue_from_specs({"bad": []})

    def test_deadline_ms_becomes_deadline_s(self):
        config = detector_config_from(
            {"deadline_ms": 250},
            kind=ServiceConfig().kind,
            exhaustive_cap=5,
            default_deadline_ms=None,
        )
        assert config.deadline_s == pytest.approx(0.25)
        # Budget knobs are excluded from the cache fingerprint, so two
        # deadlines share one verdict-cache namespace.
        other = detector_config_from(
            {"deadline_ms": 9000},
            kind=ServiceConfig().kind,
            exhaustive_cap=5,
            default_deadline_ms=None,
        )
        assert config.fingerprint() == other.fingerprint()

    def test_bad_knobs_rejected(self):
        kwargs = dict(
            kind=ServiceConfig().kind, exhaustive_cap=5, default_deadline_ms=None
        )
        with pytest.raises(ServiceProtocolError, match="deadline_ms"):
            detector_config_from({"deadline_ms": -1}, **kwargs)
        with pytest.raises(ServiceProtocolError, match="'budget'"):
            detector_config_from({"budget": True}, **kwargs)
        with pytest.raises(ServiceProtocolError, match="unknown kind"):
            detector_config_from({"kind": "nope"}, **kwargs)


class TestNullKnobs:
    """A present knob must hold a value of its type: ``null`` is a 400 on
    every route that reads the knob, and only an absent knob means the
    default."""

    BODIES = {
        "check": {"first": CATALOGUE["titles"], "second": CATALOGUE["restock"]},
        "matrix": {"ops": CATALOGUE},
    }

    @pytest.mark.parametrize(
        "route,knob",
        [
            (route, knob)
            for route in ("check", "matrix")
            for knob in ("kind", "budget", "deadline_ms", "max_steps")
        ]
        + [("matrix", "index")],
    )
    def test_null_knob_is_400(self, route, knob):
        state = ServiceState(ServiceConfig(port=0))
        body = {**self.BODIES[route], knob: None}
        with pytest.raises(ServiceProtocolError, match=f"'{knob}'"):
            getattr(state, route)(body)
        assert getattr(state, route)(self.BODIES[route])["command"] == route


class TestConfigValidation:
    def test_rejects_nonsense(self):
        with pytest.raises(ServiceError):
            ServiceConfig(workers=0)
        with pytest.raises(ServiceError):
            ServiceConfig(queue_depth=0)
        with pytest.raises(ServiceError):
            ServiceConfig(port=-1)
        with pytest.raises(ServiceError):
            ServiceConfig(snapshot_interval_s=0)

    def test_default_port(self):
        assert ServiceConfig().port == DEFAULT_PORT


class TestCheck:
    def test_verdict_matches_direct_detector(self, client):
        reference = ConflictDetector().read_update(
            Read("bib/book/title"), Delete("bib/book")
        )
        result = client.check(
            {"op": "read", "xpath": "bib/book/title"},
            {"op": "delete", "xpath": "bib/book"},
        )
        assert result["verdict"] == reference.verdict.value
        assert result["degraded"] is False
        assert result["cached"] is False

    def test_accepts_live_operations(self, client):
        result = client.check(Read("a/b"), Insert("a", "<c/>"), witness=True)
        assert result["verdict"] in ("conflict", "no-conflict", "unknown")
        if result["verdict"] == "conflict":
            assert result["witness"] is not None

    def test_second_identical_check_is_cached(self, client):
        first = client.check(Read("x/y/z"), Delete("x/y"))
        again = client.check(Read("x/y/z"), Delete("x/y"))
        assert again["verdict"] == first["verdict"]
        assert again["cached"] is True
        assert again["method"] == "verdict-cache"

    def test_read_read_never_conflicts(self, client):
        result = client.check(Read("a//b"), {"op": "read", "xpath": "c"})
        assert result["verdict"] == "no-conflict"
        assert result["method"] == "read-read-trivial"

    def test_zero_deadline_degrades_to_unknown(self, client):
        result = client.check(
            Read("deadline/only/pair"), Delete("deadline/only"), deadline_ms=0
        )
        assert result["verdict"] == "unknown"
        assert result["reason"] == "timeout"
        assert result["degraded"] is True
        # Degraded verdicts are never cached: a real budget later must
        # get a chance to decide the pair for real.
        retry = client.check(Read("deadline/only/pair"), Delete("deadline/only"))
        assert retry["cached"] is False
        assert retry["degraded"] is False

    def test_bad_spec_raises_protocol_error(self, client):
        with pytest.raises(ServiceProtocolError, match="unknown op"):
            client.check({"op": "rename", "xpath": "a"}, {"op": "read", "xpath": "b"})

    def test_bad_xpath_is_client_error_not_500(self, client):
        with pytest.raises(ServiceProtocolError):
            client.check(
                {"op": "read", "xpath": "///"}, {"op": "delete", "xpath": "a/b"}
            )

    def test_overflowing_constant_is_400_on_both_routes(self, client):
        cheap = {"op": "read", "xpath": f"a/b[c < 1{'0' * 400}]"}
        purge = {"op": "delete", "xpath": "a/b"}
        with pytest.raises(ServiceProtocolError, match="out of range"):
            client.check(cheap, purge)
        with pytest.raises(ServiceProtocolError, match="out of range"):
            client._request("POST", "/v1/matrix", {"ops": {"cheap": cheap, "purge": purge}})
        assert client.healthz()["status"] == "ok"  # the connection survived


class TestMatrixAndSchedule:
    def test_matrix_matches_batch_analyzer(self, client):
        reference = BatchAnalyzer(DetectorConfig()).analyze(
            catalogue_from_specs(CATALOGUE)
        )
        result = client.matrix(CATALOGUE)
        assert result["stats"]["operations"] == 3
        assert result["verdicts"], "matrix returned no pairs"
        for entry in result["verdicts"]:
            reference_verdict = reference.verdict(entry["first"], entry["second"])
            assert entry["verdict"] == reference_verdict.value

    def test_schedule_covers_catalogue(self, client):
        result = client.schedule(CATALOGUE)
        names = [name for batch in result["batches"] for name in batch]
        assert sorted(names) == sorted(CATALOGUE)
        assert result["stats"]["batches"] == len(result["batches"])

    def test_matrix_carries_discharge_schema(self, client):
        spread = dict(CATALOGUE)
        spread["faraway"] = {"op": "delete", "xpath": "inv/item/stale"}
        result = client.matrix(spread)
        assert "discharged" in result["stats"]
        by_pair = {
            (e["first"], e["second"]): e["discharge"]
            for e in result["verdicts"]
        }
        # Disjoint root labels: the chain rule fires at position 0.
        pair = ("titles", "faraway")
        key = pair if pair in by_pair else pair[::-1]
        assert by_pair[key] == "index:chain"

    def test_matrix_index_toggle(self, client):
        spread = dict(CATALOGUE)
        spread["faraway"] = {"op": "delete", "xpath": "inv/item/stale"}
        default = client.matrix(spread)
        plain = client.matrix(spread, index=False)
        assert default["stats"]["discharged"] >= 1
        assert plain["stats"]["discharged"] == 0
        assert all(
            not e["discharge"].startswith("index:") for e in plain["verdicts"]
        )
        for on, off in zip(default["verdicts"], plain["verdicts"]):
            assert (on["first"], on["second"], on["verdict"]) == (
                off["first"],
                off["second"],
                off["verdict"],
            )

    @pytest.mark.parametrize("index", ["false", 0])
    def test_non_boolean_index_is_400(self, client, index):
        spread = dict(CATALOGUE)
        spread["faraway"] = {"op": "delete", "xpath": "inv/item/stale"}
        with pytest.raises(ServiceProtocolError, match="'index' must be a boolean"):
            client.matrix(spread, index=index)

    def test_missing_ops_is_400(self, client):
        with pytest.raises(ServiceProtocolError, match="'ops'"):
            client._request("POST", "/v1/matrix", {"operations": {}})


class TestHttpSurface:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["workers"] == 2

    def test_metrics_counters_grow(self, client):
        client.check(Read("m/a"), Delete("m/a/b"))
        snap_before = client.metrics()
        client.check(Read("m/a"), Delete("m/a/b"))  # cache hit
        client.check(Read("m/c"), Delete("m/c/d"))  # cache miss
        snap_after = client.metrics()
        before, after = snap_before["counters"], snap_after["counters"]
        key = "service.requests_total{route=check}"
        assert after[key] == before[key] + 2
        assert (
            after["service.verdict_cache_hits"]
            >= before.get("service.verdict_cache_hits", 0) + 1
        )
        assert after["service.verdict_cache_misses"] > 0
        assert after["service.admitted_total"] == after[key]
        # perfbench reads both histograms by name: one observation each
        # per admitted check.
        for name in ("service.queue_wait_ms", "service.exec_ms"):
            count_before = snap_before["histograms"][name]["count"]
            assert snap_after["histograms"][name]["count"] == count_before + 2

    def test_status_codes(self, service):
        import http.client

        def status(method, path, body=None):
            conn = http.client.HTTPConnection(
                "127.0.0.1", service.port, timeout=10
            )
            try:
                headers = {"Content-Type": "application/json"} if body else {}
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                response.read()
                return response.status
            finally:
                conn.close()

        assert status("GET", "/nope") == 404
        assert status("GET", "/v1/check") == 405
        assert status("POST", "/healthz", b"{}") == 405
        assert status("POST", "/v1/check", b"not json") == 400
        assert status("POST", "/v1/check", b"[1, 2]") == 400


class TestOverload:
    def test_queue_overflow_returns_429_and_admitted_work_completes(self):
        faults.install(faults.FaultInjector.parse("slow_decide:1.0:delay=0.3"))
        service = make_service(workers=1, queue_depth=1)
        try:
            total = 6
            barrier = threading.Barrier(total)
            outcomes: list[str] = []
            lock = threading.Lock()

            def fire(index: int) -> None:
                with ServiceClient(port=service.port, timeout=30.0) as c:
                    barrier.wait()
                    try:
                        result = c.check(
                            Read(f"load/p{index}/x"), Delete(f"load/p{index}")
                        )
                        outcome = f"ok:{result['verdict']}"
                    except ServiceOverloaded:
                        outcome = "429"
                with lock:
                    outcomes.append(outcome)

            threads = [
                threading.Thread(target=fire, args=(i,)) for i in range(total)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert len(outcomes) == total
            rejected = [o for o in outcomes if o == "429"]
            accepted = [o for o in outcomes if o.startswith("ok:")]
            # 1 worker + 1 queue slot against 6 simultaneous requests:
            # exactly 2 are admitted, and the overflow is rejected
            # immediately, never parked.
            assert len(accepted) == 2, outcomes
            assert len(rejected) == 4, outcomes
            for outcome in accepted:
                assert outcome.split(":", 1)[1] in (
                    "conflict", "no-conflict", "unknown"
                )
        finally:
            faults.uninstall()
            service.drain(snapshot=False)

    def test_healthz_still_answers_under_load(self):
        faults.install(faults.FaultInjector.parse("slow_decide:1.0:delay=0.5"))
        service = make_service(workers=1, queue_depth=1)
        try:
            started = threading.Event()

            def slow_check() -> None:
                with ServiceClient(port=service.port, timeout=30.0) as c:
                    started.set()
                    c.check(Read("busy/a/b"), Delete("busy/a"))

            thread = threading.Thread(target=slow_check)
            thread.start()
            started.wait(timeout=10)
            time.sleep(0.1)  # let the check reach the worker
            with ServiceClient(port=service.port, timeout=5.0) as c:
                assert c.healthz()["status"] == "ok"
            thread.join(timeout=30)
        finally:
            faults.uninstall()
            service.drain(snapshot=False)


class TestAdmissionController:
    def test_concurrent_runs_keep_both_bounds(self):
        """More threads than cores against 2 slots and 2 waiters, with a
        short switch interval: at most 2 decide at once, every request is
        admitted or rejected, and no admission leaks, so the full
        ``workers + queue_depth`` is admitted again afterwards."""
        registry = MetricsRegistry()
        admission = AdmissionController(2, 2, registry)
        lock = threading.Lock()
        running = {"now": 0, "peak": 0}
        outcomes: list[str] = []

        def decide() -> None:
            with lock:
                running["now"] += 1
                running["peak"] = max(running["peak"], running["now"])
            time.sleep(0.001)
            with lock:
                running["now"] -= 1

        def client() -> None:
            for _ in range(50):
                try:
                    admission.run(decide)
                    outcome = "ok"
                except ServiceOverloaded:
                    outcome = "429"
                with lock:
                    outcomes.append(outcome)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(outcomes) == 400
        assert running["peak"] <= 2
        snap = registry.snapshot()
        admitted = snap["counters"]["service.admitted_total"]
        assert admitted == outcomes.count("ok")
        assert snap["counters"].get(
            "service.rejected_total{reason=overload}", 0
        ) == outcomes.count("429")
        assert snap["gauges"]["service.queue_depth"] == 0

        release = threading.Event()
        blockers = [
            threading.Thread(
                target=admission.run, args=(lambda: release.wait(30),)
            )
            for _ in range(4)
        ]
        try:
            for t in blockers:
                t.start()
            deadline = time.monotonic() + 10
            while (
                registry.snapshot()["counters"]["service.admitted_total"]
                < admitted + 4
            ):
                assert time.monotonic() < deadline, "capacity leaked"
                time.sleep(0.01)
            with pytest.raises(ServiceOverloaded):
                admission.run(lambda: None)
        finally:
            release.set()
            for t in blockers:
                t.join(timeout=30)
        assert not any(t.is_alive() for t in blockers)


class TestDrain:
    def test_drain_finishes_inflight_then_rejects(self):
        faults.install(faults.FaultInjector.parse("slow_decide:1.0:delay=0.4"))
        service = make_service(workers=2, queue_depth=8)
        try:
            results: dict[int, dict] = {}
            lock = threading.Lock()
            launched = threading.Barrier(4)

            def fire(index: int) -> None:
                with ServiceClient(port=service.port, timeout=30.0) as c:
                    launched.wait()
                    result = c.check(
                        Read(f"drain/p{index}/x"), Delete(f"drain/p{index}")
                    )
                with lock:
                    results[index] = result

            threads = [
                threading.Thread(target=fire, args=(i,)) for i in range(3)
            ]
            for t in threads:
                t.start()
            launched.wait()
            time.sleep(0.15)  # let the requests be admitted
            service.drain(snapshot=False)
            for t in threads:
                t.join(timeout=60)
            # Every admitted request produced a real response.
            assert sorted(results) == [0, 1, 2]
            for result in results.values():
                assert result["verdict"] in ("conflict", "no-conflict", "unknown")
            # After drain the listener is gone (or answers 503 mid-close):
            # either way no new work is accepted.
            with pytest.raises(ServiceError):
                with ServiceClient(port=service.port, timeout=5.0) as c:
                    c.check(Read("late/a/b"), Delete("late/a"))
        finally:
            faults.uninstall()
            service.drain(snapshot=False)

    def test_drain_is_idempotent(self, service):
        service.drain(snapshot=False)
        service.drain(snapshot=False)


class TestPersistence:
    @pytest.fixture(autouse=True)
    def _no_env_faults(self, monkeypatch):
        """Exact snapshot-content assertions need uninjected writes.

        The CI fault job corrupts a fraction of cache snapshots
        (``cache_corrupt`` — salvage recovers the entries, which other
        tests rely on); here the *bytes on disk* are the subject, so the
        environment injector is removed for the duration.
        """
        monkeypatch.delenv(faults.ENV_SPEC, raising=False)
        faults.uninstall()
        yield
        faults.uninstall()

    def test_drain_writes_snapshot_and_restart_reuses_it(self, tmp_path):
        cache_path = tmp_path / "runs" / "cache.json"
        service = make_service(cache_path=str(cache_path))
        with ServiceClient(port=service.port) as c:
            c.check(Read("persist/a/b"), Delete("persist/a"))
        service.drain()
        assert cache_path.exists()
        payload = json.loads(cache_path.read_text())
        assert payload["version"] == 1
        assert payload["entries"]

        reborn = make_service(cache_path=str(cache_path))
        try:
            with ServiceClient(port=reborn.port) as c:
                result = c.check(Read("persist/a/b"), Delete("persist/a"))
            assert result["cached"] is True
        finally:
            reborn.drain(snapshot=False)

    def test_corrupt_snapshot_is_salvaged_on_boot(self, tmp_path):
        cache_path = tmp_path / "cache.json"
        analyzer = BatchAnalyzer(DetectorConfig())
        analyzer.analyze(catalogue_from_specs(CATALOGUE))
        analyzer.cache.save(cache_path)
        text = cache_path.read_text()
        cache_path.write_text(text[: int(len(text) * 0.7)])

        with pytest.warns(CacheCorruptWarning):
            service = make_service(cache_path=str(cache_path))
        try:
            with ServiceClient(port=service.port) as c:
                health = c.healthz()
            # The valid prefix survived; the service booted regardless.
            assert health["status"] == "ok"
            assert (tmp_path / "cache.json.bak").exists()
        finally:
            service.drain(snapshot=False)

    def test_malformed_snapshot_is_salvaged_on_boot(self, tmp_path):
        cache_path = tmp_path / "cache.json"
        analyzer = BatchAnalyzer(DetectorConfig())
        analyzer.analyze(catalogue_from_specs(CATALOGUE))
        entries = analyzer.cache.export()
        entries[-1]["verdict"] = "conflicu"  # parseable, but no verdict
        cache_path.write_text(json.dumps({"version": 1, "entries": entries}))

        with pytest.warns(CacheCorruptWarning):
            service = make_service(cache_path=str(cache_path))
        try:
            with ServiceClient(port=service.port) as c:
                health = c.healthz()
            assert health["status"] == "ok"
            assert len(service.state.cache) == len(entries) - 1
            assert (tmp_path / "cache.json.bak").exists()
        finally:
            service.drain(snapshot=False)

    def test_shard_mode_derives_per_shard_snapshot(self, tmp_path):
        base = tmp_path / "cache.json"
        service = make_service(cache_path=str(base), shard_id=2)
        try:
            with ServiceClient(port=service.port) as c:
                c.check(Read("shardmode/a/b"), Delete("shardmode/a"))
                health = c.healthz()
            assert health["shard_id"] == 2
            assert health["shard_generation"] == 0
        finally:
            service.drain()
        # The shard persists to <base>.shard2, never the shared base path.
        assert not base.exists()
        shard_path = tmp_path / "cache.json.shard2"
        assert shard_path.exists()
        assert json.loads(shard_path.read_text())["shard"] == 2

    def test_periodic_snapshot_thread_writes(self, tmp_path):
        cache_path = tmp_path / "cache.json"
        service = make_service(
            cache_path=str(cache_path), snapshot_interval_s=0.2
        )
        try:
            with ServiceClient(port=service.port) as c:
                c.check(Read("periodic/a/b"), Delete("periodic/a"))
            deadline = time.monotonic() + 10
            while not cache_path.exists() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert cache_path.exists(), "periodic snapshot never written"
        finally:
            service.drain(snapshot=False)


class TestServeSubprocess:
    def test_sigterm_drains_and_exits_cleanly(self, tmp_path):
        cache_path = tmp_path / "svc" / "cache.json"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--workers", "2", "--cache", str(cache_path),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", line)
            assert match, f"unparseable boot line: {line!r}"
            port = int(match.group(2))
            with ServiceClient(port=port) as c:
                result = c.check(Read("sub/a/b"), Delete("sub/a"))
                assert result["verdict"] in (
                    "conflict", "no-conflict", "unknown"
                )
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=30)
            assert code == 0
            rest = proc.stdout.read()
            assert "draining" in rest
            assert "stopped" in rest
            assert cache_path.exists()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)


# ----------------------------------------------------------------------
# Request correlation
# ----------------------------------------------------------------------

class TestRequestCorrelation:
    def test_client_id_reaches_body_spans_and_access_log(self, tmp_path):
        """The acceptance path: one client-supplied id shows up in the
        response body, the server's spans, and the access log."""
        access_path = str(tmp_path / "access.jsonl")
        ring = obs.RingBufferSink(capacity=10_000)
        obs.enable(ring)
        service = make_service(access_log_path=access_path)
        try:
            with ServiceClient(port=service.port, request_id="cli-abc.1") as c:
                result = c.check(
                    {"op": "read", "xpath": "bib/book/title"},
                    {"op": "delete", "xpath": "bib/book"},
                )
                assert result["request_id"] == "cli-abc.1"
                c.healthz()
        finally:
            service.drain(snapshot=False)
            obs.disable()
        tagged = [
            r for r in ring.spans() if r.get("request_id") == "cli-abc.1"
        ]
        names = {r["name"] for r in tagged}
        assert "service.http" in names        # handler thread
        assert "detector.dispatch" in names   # the decision, same thread
        records = [json.loads(line) for line in open(access_path)]
        (check_rec,) = [r for r in records if r["route"] == "check"]
        assert check_rec["request_id"] == "cli-abc.1"
        assert check_rec["status"] == 200
        assert check_rec["outcome"] == "ok"
        assert check_rec["verdict"] in ("conflict", "no-conflict", "unknown")
        assert check_rec["cached"] is False
        assert check_rec["queue_wait_ms"] >= 0.0
        assert check_rec["decide_ms"] >= 0.0
        assert check_rec["total_ms"] >= check_rec["decide_ms"]
        assert any(
            r["route"] == "healthz" and r["method"] == "GET" for r in records
        )

    def test_admitted_bad_request_still_logs_its_timings(self, tmp_path):
        """A bad XPath is admitted, then rejected while deciding: the 400
        keeps the queue wait and decide time of its admission."""
        access_path = str(tmp_path / "access.jsonl")
        service = make_service(access_log_path=access_path)
        try:
            with ServiceClient(port=service.port, request_id="bad-xp") as c:
                with pytest.raises(ServiceProtocolError):
                    c.check(
                        {"op": "read", "xpath": "///"},
                        {"op": "delete", "xpath": "a/b"},
                    )
        finally:
            service.drain(snapshot=False)
        records = [json.loads(line) for line in open(access_path)]
        (record,) = [r for r in records if r["request_id"] == "bad-xp"]
        assert record["status"] == 400
        assert record["outcome"] == "bad_request"
        assert record["queue_wait_ms"] >= 0.0
        assert record["decide_ms"] >= 0.0

    def test_server_mints_id_when_absent(self, client):
        result = client.check(
            {"op": "read", "xpath": "mint/a/b"},
            {"op": "delete", "xpath": "mint/a"},
        )
        assert re.fullmatch(r"[0-9a-f]{12}", result["request_id"])

    def test_per_call_id_beats_client_default(self, service):
        first = {"op": "read", "xpath": "beat/a/b"}
        second = {"op": "delete", "xpath": "beat/a"}
        with ServiceClient(port=service.port, request_id="default-id") as c:
            assert c.check(first, second, request_id="override-id")[
                "request_id"
            ] == "override-id"
            assert c.check(first, second)["request_id"] == "default-id"

    def test_degraded_verdict_still_carries_the_id(self, client):
        result = client.check(
            Read("deg/pair/x"), Delete("deg/pair"),
            deadline_ms=0, request_id="deg-1",
        )
        assert result["degraded"] is True
        assert result["request_id"] == "deg-1"

    def test_malformed_id_is_rejected_not_rewritten(self, client):
        with pytest.raises(ServiceProtocolError, match="request id"):
            client.check(
                {"op": "read", "xpath": "a/b"},
                {"op": "delete", "xpath": "a"},
                request_id="bad id!",
            )

    def test_malformed_header_on_get_is_400(self, service):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", service.port, timeout=10)
        try:
            conn.request("GET", "/healthz", headers={"X-Request-Id": "bad id!"})
            response = conn.getresponse()
            response.read()
            assert response.status == 400
        finally:
            conn.close()


# ----------------------------------------------------------------------
# /metrics content negotiation, introspection telemetry, size cap
# ----------------------------------------------------------------------

class TestMetricsExposition:
    def test_json_remains_the_default(self, client):
        snap = client.metrics()
        assert "counters" in snap and "histograms" in snap
        assert "uptime_s" in snap

    def test_prometheus_text_is_negotiated_and_valid(self, client):
        client.check(
            {"op": "read", "xpath": "expo/a/b"},
            {"op": "delete", "xpath": "expo/a"},
        )
        text = client.metrics_text()
        assert validate_exposition(text) == []
        assert "service_requests_total" in text
        assert "service_request_ms_bucket" in text
        assert 'le="+Inf"' in text
        # The JSON form's convenience fields become plain gauges.
        assert "service_uptime_s" in text

    def test_openmetrics_accept_also_yields_text(self, service):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", service.port, timeout=10)
        try:
            conn.request(
                "GET", "/metrics",
                headers={"Accept": "application/openmetrics-text"},
            )
            response = conn.getresponse()
            body = response.read().decode("utf-8")
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/plain")
            assert validate_exposition(body) == []
        finally:
            conn.close()

    def test_introspection_routes_are_instrumented(self, client):
        client.healthz()
        snap = client.metrics()
        counters = snap["counters"]
        assert counters.get("service.requests_total{route=healthz}", 0) >= 1
        assert counters.get("service.requests_total{route=metrics}", 0) >= 1
        assert "service.request_ms{route=healthz}" in snap["histograms"]


class TestMetricsSizeCap:
    def test_config_rejects_tiny_cap(self):
        with pytest.raises(ServiceError):
            ServiceConfig(max_metrics_bytes=10)

    def test_json_over_cap_is_500_and_prometheus_truncates(self):
        service = make_service(max_metrics_bytes=1024)
        try:
            with ServiceClient(port=service.port) as c:
                for index in range(6):
                    c.check(
                        {"op": "read", "xpath": f"cap/s{index}/x"},
                        {"op": "delete", "xpath": f"cap/s{index}"},
                    )
                with pytest.raises(ServiceError, match="max_metrics_bytes"):
                    c.metrics()
                text = c.metrics_text()
                assert text.endswith(
                    "# repro: exposition truncated at max_metrics_bytes\n"
                )
                # The cut lands on a line boundary: every retained sample
                # line still parses as "name{labels} value".
                for line in text.splitlines():
                    assert not line or line.startswith("#") or " " in line
        finally:
            service.drain(snapshot=False)
