"""The ``service-check`` workload: ``/v1/check`` under a closed loop.

The server is ``repro serve --workers 2`` in its own process (started via
``serve.py``); the load generator is this process, with 2 keep-alive
:class:`ServiceClient` connections each sending its next request only
after the previous reply (callers such as update pipelines wait for
their answer).  Each client repeats cycles of the whole hot set (verdict
cache hits after the warm-up) with one never-seen pair after every nine
hot requests (misses: compile, decide, cache insert); every third fresh
request asks for a witness.  Requests use ``budget=1``, the exhaustive
cap of every catalogue workload.

Correctness gate: every verdict must equal an in-process
:class:`ConflictDetector` answer computed at set-up, no answer may be
degraded, every returned witness must pass ``is_witness`` (Lemma 1), and
every non-200 response or transport error is a failure.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import threading
import time

import common
import workloads
from repro import ConflictDetector, Read, Verdict, is_witness, parse
from repro.errors import ReproError
from repro.service import ServiceClient
from repro.service.protocol import op_to_spec

CLIENTS = 2
SERVER_WORKERS = 2
#: Server start-ups timed per run.
SETUPS = 5
#: Fresh pairs generated per measured second (about 1.5x what is sent).
FRESH_PER_SECOND = 200
#: Load runs in bursts of this many seconds with slowdown probes between.
BURST_S = 2.0


def expected_verdicts(pairs: list) -> list[str]:
    """The in-process answer for each pair (the correctness expectation)."""
    detector = ConflictDetector(exhaustive_cap=1)
    return [detector.detect(first, second).verdict.value for first, second in pairs]


class Server:
    """One ``serve.py`` process; ``setup_s`` is spawn to first healthz."""

    def __init__(self) -> None:
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, f"{common.HERE}/serve.py", "--port", "0",
             "--workers", str(SERVER_WORKERS)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=common.child_env(),
        )
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])
        with ServiceClient(port=self.port, timeout=10.0) as client:
            for _ in range(2000):
                try:
                    client.healthz()
                    break
                except ReproError:
                    time.sleep(0.005)
            else:
                self.stop()
                raise RuntimeError("server never answered /healthz")
        self.setup_s = time.perf_counter() - start

    def command(self, command: str) -> dict:
        """Send one control command to ``serve.py``; returns its reply."""
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        while True:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("server exited")
            if line.startswith("perfbench "):
                return json.loads(line[len("perfbench "):])

    def stop(self) -> None:
        """SIGTERM (the server drains) and wait; idempotent."""
        if self.proc.returncode is not None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


def send(client: ServiceClient, request: tuple, records: list) -> None:
    key, first, second, witness = request
    start = time.perf_counter()
    try:
        response = client.check(first, second, budget=1, witness=witness)
    except ReproError as exc:
        response = {"error": str(exc)}
    records.append((key, time.perf_counter() - start, response))


class Loop:
    """One closed-loop client: its connection, offset and fresh pairs."""

    def __init__(self, port: int, hot: list, fresh: list, offset: int) -> None:
        self.client = ServiceClient(port=port, timeout=60.0)
        self.hot, self.fresh, self.offset = hot, fresh, offset
        self.used = 0

    def run(self, seconds: float, records: list) -> None:
        """Whole cycles until ``seconds`` have passed or fresh pairs run out.

        A cycle sends the hot set once, starting at ``offset``, with the
        next fresh pair after every ``HOT_PER_FRESH`` hot requests.
        """
        hot = self.hot
        per_cycle = len(hot) // workloads.HOT_PER_FRESH
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline and self.used + per_cycle <= len(self.fresh):
            for position in range(len(hot)):
                send(self.client, hot[(self.offset + position) % len(hot)], records)
                if position % workloads.HOT_PER_FRESH == workloads.HOT_PER_FRESH - 1:
                    send(self.client, self.fresh[self.used], records)
                    self.used += 1


def phase(port: int, hot: list, fresh: list, seconds: float) -> dict:
    """Both clients for ``seconds``, in bursts with slowdown probes between.

    Returns every record; every round trip divided by the slowdown
    around its burst (``common.slowdown``); and the median over bursts
    of throughput times that slowdown.
    """
    loops = [
        Loop(port, hot, fresh[index::CLIENTS], index * len(hot) // CLIENTS)
        for index in range(CLIENTS)
    ]
    records, scaled, rates = [], [], []
    deadline = time.perf_counter() + seconds
    slowdown = common.slowdown()
    try:
        while time.perf_counter() < deadline:
            burst = [[] for _ in loops]
            threads = [
                threading.Thread(
                    target=loop.run,
                    args=(min(BURST_S, deadline - time.perf_counter()), out),
                )
                for loop, out in zip(loops, burst)
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - start
            after = common.slowdown()
            factor, slowdown = (slowdown + after) / 2, after
            burst_records = [record for out in burst for record in out]
            if not burst_records:  # fresh pairs used up
                break
            records += burst_records
            scaled += [(key, rtt / factor) for key, rtt, _ in burst_records]
            rates.append(len(burst_records) / wall * factor)
    finally:
        for loop in loops:
            loop.client.close()
    return {"records": records, "scaled": scaled, "rps": common.median(rates)}


def server_means(before: dict, after: dict) -> dict:
    """Per-request means of the server's own histograms over a window."""

    def delta(key: str) -> tuple[float, int]:
        hist_a = before["histograms"].get(key, {"sum": 0.0, "count": 0})
        hist_b = after["histograms"].get(key, {"sum": 0.0, "count": 0})
        return hist_b["sum"] - hist_a["sum"], hist_b["count"] - hist_a["count"]

    def counter(name: str) -> int:
        return after["counters"].get(name, 0) - before["counters"].get(name, 0)

    out = {}
    for name, key in (("request", "service.request_ms{route=check}"),
                      ("queue", "service.queue_wait_ms"),
                      ("exec", "service.exec_ms")):
        total, count = delta(key)
        out[name] = total / count if count else 0.0
    hits = counter("service.verdict_cache_hits")
    misses = counter("service.verdict_cache_misses")
    out["cache_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    compile_hits = sum(
        after["counters"][k] - before["counters"].get(k, 0)
        for k in after["counters"] if k.startswith("compile.") and k.endswith(".hits")
    )
    compile_misses = sum(
        after["counters"][k] - before["counters"].get(k, 0)
        for k in after["counters"] if k.startswith("compile.") and k.endswith(".misses")
    )
    lookups = compile_hits + compile_misses
    out["compile_hit_rate"] = compile_hits / lookups if lookups else 0.0
    return out


def verify(records: list, pairs: dict, expected: dict) -> int:
    """Failures among ``records`` (wrong, degraded, errored, bad witness)."""
    failed = 0
    for key, _, response in records:
        if "verdict" not in response or response.get("degraded"):
            failed += 1
            continue
        if response["verdict"] != expected[key]:
            failed += 1
            continue
        witness = response.get("witness")
        if witness is not None:
            read, update = pairs[key]
            if not isinstance(read, Read):
                read, update = update, read
            if not is_witness(parse(witness["xml"]), read, update):
                failed += 1
    return failed


def run(seed: int, seconds: float, trace: bool) -> dict:
    hot_pairs, fresh_pairs = workloads.service_traffic(
        seed, int(FRESH_PER_SECOND * seconds) + 200
    )
    pairs = {("hot", i): pair for i, pair in enumerate(hot_pairs)}
    pairs.update({("fresh", i): pair for i, pair in enumerate(fresh_pairs)})
    expected = dict(zip(pairs, expected_verdicts(list(pairs.values()))))
    specs = {key: (op_to_spec(a), op_to_spec(b)) for key, (a, b) in pairs.items()}
    hot = [(key, *specs[key], False) for key in pairs if key[0] == "hot"]
    fresh = [
        (key, *specs[key], key[1] % workloads.WITNESS_EVERY == 0)
        for key in pairs if key[0] == "fresh"
    ]

    setups: list[float] = []
    server = None
    try:
        for _ in range(SETUPS):  # the last server started serves the load
            if server is not None:
                server.stop()
            before = common.slowdown()
            server = Server()
            setups.append(server.setup_s / ((before + common.slowdown()) / 2))
        with ServiceClient(port=server.port, timeout=60.0) as client:
            warm: list = []
            for request in hot:  # fills the verdict and compile caches
                send(client, request, warm)
            m0 = client.metrics()
            plain_fresh = fresh[: len(fresh) // 2] if trace else fresh
            plain = phase(
                server.port, hot, plain_fresh, seconds / 2 if trace else seconds
            )
            m1 = client.metrics()
            traced, covered = None, None
            if trace:
                server.command("trace-on")
                m2 = client.metrics()
                traced = phase(
                    server.port, hot, fresh[len(plain_fresh):], seconds / 2
                )
                m3 = client.metrics()
                covered = server.command("snap")["layers"]
                server.command("trace-off")
        rss_mb = common.vm_hwm_mb(server.proc.pid)
    finally:
        if server is not None:
            server.stop()

    records = plain["records"] + (traced["records"] if traced else [])
    failed = verify(warm + records, pairs, expected)
    attempted = len(warm) + len(records)
    rtts = [rtt for _, rtt in plain["scaled"]]
    answered = [record[2] for record in plain["records"] if "verdict" in record[2]]
    unknown = sum(r["verdict"] == Verdict.UNKNOWN.value for r in answered)
    e2e = {
        "setup_s": common.median(setups),
        "latency_ms": common.median(rtts) * 1000.0,
        "pairs_per_s": plain["rps"],
        "unknown_frac": unknown / max(1, len(answered)),
        "peak_rss_mb": rss_mb,
    }
    layers = {}
    if trace:
        means = server_means(m0, m1)
        raw_rtt_ms = sum(rtt for _, rtt, _ in plain["records"]) / len(plain["records"]) * 1000.0
        layers = {
            "service.queue_wait_ms": means["queue"],
            "service.exec_ms": means["exec"],
            "service.http_ms": means["request"] - means["queue"] - means["exec"],
            "service.wire_ms": raw_rtt_ms - means["request"],
            "service.cache_hit_rate": means["cache_hit_rate"],
            "check_p99_ms": common.percentile(rtts, 0.99) * 1000.0,
            "check_miss_p50_ms": common.median(
                rtt for key, rtt in plain["scaled"] if key[0] == "fresh"
            ) * 1000.0,
        }
        # Span totals cover the traced phase; report them per cycle (the
        # hot set once plus its fresh pairs), which repeats exactly.
        requests = len(traced["records"])
        cycles = requests / (len(hot) + len(hot) // workloads.HOT_PER_FRESH)
        for name, value in covered.items():
            total = "p50" not in name and not name.endswith("rate")
            layers[name] = value / cycles if total else value
        traced_means = server_means(m2, m3)
        layers["compile.hit_rate"] = traced_means["compile_hit_rate"]
        # The service's exec time that no layer span covers, per request.
        layers["unattributed_ms"] = traced_means["exec"] - covered["covered_ms"] / requests
        layers["unattributed_frac"] = layers["unattributed_ms"] / (
            sum(rtt for _, rtt, _ in traced["records"]) / requests * 1000.0
        )
        layers.pop("covered_ms")
        layers["error_frac"] = failed / attempted
        layers["trace_overhead_frac"] = plain["rps"] / traced["rps"] - 1.0
    return {
        "attempted": attempted,
        "failed": failed,
        "end_to_end": e2e,
        "layers": layers,
        "samples": {"requests": len(plain["records"]),
                    "traced_requests": len(traced["records"]) if traced else 0},
    }
