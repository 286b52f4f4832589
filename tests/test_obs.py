"""Tests for the observability layer (:mod:`repro.obs`) and its hooks.

Covers the tracing spans (nesting, timing, sinks), the metrics registry
(counters/gauges/histograms, snapshot/reset), the engine instrumentation
(detector dispatch paths, general-engine search counters),
the backward-compatibility contract on ``ConflictReport.stats``, and the
``--stats`` / ``--trace`` CLI surface.
"""

from __future__ import annotations

import io
import json
import multiprocessing
import random
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cli import main
from repro.conflicts.detector import ConflictDetector
from repro.conflicts.general import decide_conflict
from repro.conflicts.semantics import Verdict
from repro.obs import trace as trace_module
from repro.obs.metrics import (
    BUCKETS_PER_DECADE,
    Histogram,
    bucket_bounds,
    bucket_index,
    histogram_delta,
    quantile_from_snapshot,
)
from repro.obs.report import exact_percentile
from repro.operations.ops import Delete, Insert, Read


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Every test starts and ends with tracing off, no bound request id,
    and global metrics clear."""
    obs.disable()
    obs.set_request_id(None)
    obs.reset_global_metrics()
    yield
    obs.disable()
    obs.set_request_id(None)
    obs.reset_global_metrics()


# ----------------------------------------------------------------------
# Tracing spans
# ----------------------------------------------------------------------

class TestSpans:
    def test_disabled_by_default_returns_noop(self):
        assert not obs.enabled()
        sp = obs.span("anything", a=1)
        assert sp is obs.span("something-else")  # the shared no-op singleton

    def test_noop_span_accepts_the_full_interface(self):
        with obs.span("x", a=1) as sp:
            sp.set("k", "v")  # must not raise and must not record

    def test_span_records_name_attrs_and_duration(self):
        with obs.tracing() as ring:
            with obs.span("unit.work", size=3) as sp:
                time.sleep(0.002)
                sp.set("late", True)
        (record,) = ring.spans()
        assert record["name"] == "unit.work"
        assert record["attrs"] == {"size": 3, "late": True}
        assert record["dur_ms"] >= 1.0
        assert record["depth"] == 0

    def test_span_nesting_depths(self):
        with obs.tracing() as ring:
            with obs.span("outer"):
                with obs.span("middle"):
                    with obs.span("inner"):
                        pass
        by_name = {r["name"]: r for r in ring.spans()}
        assert by_name["outer"]["depth"] == 0
        assert by_name["middle"]["depth"] == 1
        assert by_name["inner"]["depth"] == 2
        # Emission order is completion order: inner closes first.
        assert [r["name"] for r in ring.spans()] == ["inner", "middle", "outer"]

    def test_exception_inside_span_is_recorded_and_stack_unwound(self):
        with obs.tracing() as ring:
            with pytest.raises(ValueError):
                with obs.span("boom"):
                    raise ValueError("x")
            with obs.span("after"):
                pass
        records = ring.spans()
        assert records[0]["attrs"]["error"] == "ValueError"
        assert records[1]["depth"] == 0  # stack unwound despite the raise

    def test_tracing_context_restores_prior_state(self):
        assert not obs.enabled()
        with obs.tracing():
            assert obs.enabled()
            with obs.tracing():  # nested scope, still fine
                assert obs.enabled()
        assert not obs.enabled()
        assert obs.active_sinks() == ()

    def test_enable_disable_and_sinks(self):
        ring = obs.RingBufferSink()
        obs.enable(ring)
        assert obs.enabled()
        assert obs.active_sinks() == (ring,)
        with obs.span("one"):
            pass
        obs.disable()
        assert not obs.enabled()
        with obs.span("two"):
            pass
        assert [r["name"] for r in ring.spans()] == ["one"]

    def test_env_var_initialization(self, tmp_path):
        path = str(tmp_path / "envtrace.jsonl")
        trace_module._init_from_env(path)
        try:
            assert obs.enabled()
            with obs.span("from-env"):
                pass
        finally:
            obs.disable()
        lines = open(path).read().splitlines()
        assert json.loads(lines[0])["name"] == "from-env"

    def test_env_var_memory_mode(self):
        trace_module._init_from_env("1")
        try:
            assert obs.enabled()
            assert isinstance(obs.active_sinks()[0], obs.RingBufferSink)
        finally:
            obs.disable()

    def test_env_var_unset_is_noop(self):
        trace_module._init_from_env(None)
        trace_module._init_from_env("")
        assert not obs.enabled()


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------

class TestSinks:
    def test_jsonl_sink_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with obs.tracing(obs.JsonlSink(path)):
            with obs.span("alpha", n=1):
                with obs.span("beta", deep=True):
                    pass
        records = [json.loads(line) for line in open(path)]
        assert [r["name"] for r in records] == ["beta", "alpha"]
        assert records[0]["attrs"] == {"deep": True}
        assert records[1]["attrs"] == {"n": 1}
        for record in records:
            assert set(record) == {
                "name", "start", "dur_ms", "depth", "thread", "attrs"
            }

    def test_jsonl_sink_accepts_stream(self):
        buffer = io.StringIO()
        sink = obs.JsonlSink(buffer)
        sink.emit({"name": "x", "attrs": {}})
        sink.close()  # must not close a caller-owned stream
        assert json.loads(buffer.getvalue()) == {"name": "x", "attrs": {}}

    def test_ring_buffer_capacity(self):
        ring = obs.RingBufferSink(capacity=3)
        for index in range(5):
            ring.emit({"name": str(index)})
        assert [r["name"] for r in ring.spans()] == ["2", "3", "4"]
        assert len(ring) == 3
        ring.clear()
        assert ring.spans() == []


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------

class TestMetrics:
    def test_counter_inc_and_read(self):
        reg = obs.MetricsRegistry()
        reg.inc("q")
        reg.inc("q", 4)
        assert reg.counter("q") == 5
        assert reg.counter("absent") == 0

    def test_labeled_counters_are_distinct(self):
        reg = obs.MetricsRegistry()
        reg.inc("queries", path="linear")
        reg.inc("queries", path="general")
        reg.inc("queries", path="linear")
        assert reg.counter("queries", path="linear") == 2
        assert reg.counter("queries", path="general") == 1
        snap = reg.snapshot()["counters"]
        assert snap["queries{path=linear}"] == 2

    def test_metric_key_sorts_labels(self):
        assert obs.metric_key("m", {"b": 1, "a": 2}) == "m{a=2,b=1}"
        assert obs.metric_key("m") == "m"

    def test_gauges_and_histograms(self):
        reg = obs.MetricsRegistry()
        reg.set_gauge("depth", 3)
        reg.set_gauge("depth", 7)
        assert reg.gauge("depth") == 7
        assert reg.gauge("absent") is None
        for value in (2.0, 5.0, 3.0):
            reg.observe("latency", value)
        hist = reg.histogram("latency")
        # The summary keys are the pre-bucketing contract; buckets and
        # derived quantiles are the compatible superset on top.
        assert hist["count"] == 3
        assert hist["sum"] == 10.0
        assert hist["min"] == 2.0
        assert hist["max"] == 5.0
        assert sum(hist["buckets"].values()) == 3
        assert hist["p50"] is not None and hist["p99"] is not None

    def test_snapshot_is_detached_and_reset_clears(self):
        reg = obs.MetricsRegistry()
        reg.inc("c")
        snap = reg.snapshot()
        snap["counters"]["c"] = 999
        assert reg.counter("c") == 1
        reg.reset()
        assert reg.counter("c") == 0
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_merged_with_sums_counters(self):
        a, b = obs.MetricsRegistry(), obs.MetricsRegistry()
        a.inc("shared", 2)
        b.inc("shared", 3)
        b.inc("only-b")
        merged = a.merged_with(b)
        assert merged["counters"]["shared"] == 5
        assert merged["counters"]["only-b"] == 1


# ----------------------------------------------------------------------
# Engine instrumentation
# ----------------------------------------------------------------------

class TestDetectorInstrumentation:
    def test_per_path_query_counters(self):
        detector = ConflictDetector()
        detector.read_insert(Read("a/b"), Insert("a/c", "<b/>"))       # linear
        detector.read_insert(Read("a[b]/c"), Insert("a/c", "<c/>"))    # general
        detector.update_update(Insert("a/b", "<x/>"), Delete("a/b"))   # complex
        counters = detector.metrics()["counters"]
        assert counters["conflict.queries_total{path=linear}"] == 1
        assert counters["conflict.queries_total{path=general}"] == 1
        assert counters["conflict.queries_total{path=complex}"] == 1

    def test_detectors_have_isolated_registries(self):
        one, two = ConflictDetector(), ConflictDetector()
        one.read_delete(Read("a/b"), Delete("a/b"))
        assert two.metrics()["counters"] == {}

    def test_shared_registry_opt_in(self):
        shared = obs.MetricsRegistry()
        one = ConflictDetector(registry=shared)
        two = ConflictDetector(registry=shared)
        one.read_delete(Read("a/b"), Delete("a/b"))
        two.read_delete(Read("a/c"), Delete("a/c"))
        assert shared.counter("conflict.queries_total", path="linear") == 2

    def test_returned_witness_is_detached(self):
        """Mutating a returned witness must not change a repeat answer."""
        detector = ConflictDetector()
        query = (Read("a//b"), Delete("a//b"))
        first = detector.read_delete(*query)
        assert first.verdict is Verdict.CONFLICT and first.witness is not None
        size_before = first.witness.size
        first.witness.add_child(first.witness.root, "poison")
        second = detector.read_delete(*query)
        assert second.witness is not None
        assert second.witness.size == size_before
        assert "poison" not in second.witness.labels()

    def test_spans_cover_dispatch_and_algorithm(self):
        with obs.tracing() as ring:
            detector = ConflictDetector()
            detector.read_insert(Read("a/b"), Insert("a/c", "<b/>"))
        names = {r["name"] for r in ring.spans()}
        assert "detector.dispatch" in names
        assert "linear.read_insert" in names

    def test_general_path_search_counters_batch_to_global(self):
        # search.* counters are batched per query and always on;
        # embedding.evaluations is a gated per-inner-call instrument.
        with obs.tracing():
            detector = ConflictDetector(use_heuristics=False, exhaustive_cap=3)
            # Overlapping pair: the trunk prefilter cannot discharge it,
            # so the exhaustive search (and its counters) actually run.
            detector.read_insert(Read("a[b]/c"), Insert("a/c", "<e/>"))
        counters = obs.global_metrics().snapshot()["counters"]
        assert counters.get("search.candidates_checked", 0) > 0
        assert counters.get("embedding.evaluations", 0) > 0

    def test_search_counters_always_on(self):
        assert not obs.enabled()
        detector = ConflictDetector(use_heuristics=False, exhaustive_cap=3)
        detector.read_insert(Read("a[b]/c"), Insert("a/c", "<e/>"))
        counters = obs.global_metrics().snapshot()["counters"]
        assert counters.get("search.candidates_checked", 0) > 0

    def test_gated_instruments_silent_when_disabled(self):
        assert not obs.enabled()
        detector = ConflictDetector()
        detector.read_delete(Read("a//b"), Delete("a/b"))
        counters = obs.global_metrics().snapshot()["counters"]
        assert "nfa.built" not in counters
        assert "embedding.evaluations" not in counters

    def test_nfa_counters(self):
        # Explicit NFAs are built only by the subset-simulation test oracle.
        from repro.patterns.xpath import parse_xpath
        from tests.oracles import nfa_product_word

        with obs.tracing():
            nfa_product_word(parse_xpath("a//b"), parse_xpath("a/b"), weak=True)
        counters = obs.global_metrics().snapshot()["counters"]
        assert counters.get("nfa.built", 0) >= 1
        assert counters.get("nfa.states_built", 0) >= counters["nfa.built"]

    def test_bitkernel_counters(self):
        # The default bitset kernel builds mask tables instead of NFAs.
        with obs.tracing():
            detector = ConflictDetector()
            detector.read_delete(Read("a//b"), Delete("a/b"))
        counters = obs.global_metrics().snapshot()["counters"]
        assert counters.get("bitkernel.tables_built", 0) >= 1
        assert "nfa.built" not in counters


class TestStatsBackwardCompat:
    """``ConflictReport.stats`` keys are a stable contract across the refactor."""

    GENERAL_KEYS = {"candidates_checked", "heuristic_candidates", "cap_used", "bound"}

    def test_general_conflict_report_keys(self):
        report = decide_conflict(Read("a[b]//c"), Insert("a/c", "<c/>"))
        assert report.verdict is Verdict.CONFLICT
        assert self.GENERAL_KEYS <= set(report.stats)

    def test_general_unknown_report_keys(self):
        # Overlapping pair with no witness at cap 2: survives the trunk
        # prefilter, heuristics find nothing, and the truncated cap yields
        # UNKNOWN with the full stats payload.
        report = decide_conflict(
            Read("a[b]//c"), Insert("a/b", "<x/>"), exhaustive_cap=2
        )
        assert self.GENERAL_KEYS <= set(report.stats)
        assert report.stats["cap_used"] == 2
        assert report.stats["bound"] > 2

    def test_heuristics_disabled_report_keys(self):
        report = decide_conflict(
            Read("a[b]//c"), Insert("a/c", "<c/>"), use_heuristics=False
        )
        assert self.GENERAL_KEYS <= set(report.stats)
        assert report.stats["heuristic_candidates"] == 0


# ----------------------------------------------------------------------
# Disabled-mode overhead
# ----------------------------------------------------------------------

class TestDisabledOverhead:
    def test_noop_span_is_cheap(self):
        """The disabled span path must stay within a few microseconds."""
        assert not obs.enabled()
        iterations = 50_000

        start = time.perf_counter()
        for _ in range(iterations):
            with obs.span("hot.loop", k=1):
                pass
        per_call = (time.perf_counter() - start) / iterations
        # Generous CI-safe bound; the real figure is ~0.5 µs
        # (benchmarks/bench_obs.py measures it precisely).
        assert per_call < 50e-6

    def test_disabled_tracing_emits_nothing(self):
        ring = obs.RingBufferSink()
        obs.enable(ring)
        obs.disable()
        with obs.span("invisible"):
            pass
        assert ring.spans() == []


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------

class TestCliObservability:
    def test_check_stats_breakdown(self, capsys):
        code = main(
            ["check", "--read", "a/*/A", "--insert", "a/B", "--xml", "<C/>",
             "--stats"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "--- stats ---" in out
        assert "path: linear" in out
        assert "detector.dispatch" in out
        assert "conflict.queries_total{path=linear}" in out

    def test_check_stats_general_path(self, capsys):
        code = main(
            ["check", "--read", "a[b]//c", "--insert", "a/c", "--xml", "<c/>",
             "--stats"]
        )
        assert code == 1  # conflict
        out = capsys.readouterr().out
        assert "path: general" in out
        assert "general.heuristic" in out

    def test_stats_min_ms_filters_spans(self, capsys):
        code = main(
            ["check", "--read", "a/b", "--insert", "a/c", "--stats",
             "--stats-min-ms", "10000"]
        )
        assert code in (0, 1)
        out = capsys.readouterr().out
        assert "(none)" in out  # nothing takes ten seconds

    def test_trace_writes_jsonl(self, tmp_path, capsys):
        path = str(tmp_path / "out.jsonl")
        code = main(
            ["check", "--read", "a/*/A", "--insert", "a/B", "--xml", "<C/>",
             "--trace", path]
        )
        assert code == 0
        records = [json.loads(line) for line in open(path)]
        names = {r["name"] for r in records}
        assert "detector.dispatch" in names        # dispatch phase
        assert "linear.read_insert" in names       # algorithm phase
        for record in records:
            assert isinstance(record["dur_ms"], float)
            assert isinstance(record["attrs"], dict)

    def test_trace_and_stats_together(self, tmp_path, capsys):
        path = str(tmp_path / "both.jsonl")
        code = main(
            ["commute", "--insert1", "a/b", "--delete2", "a/b",
             "--stats", "--trace", path]
        )
        assert code in (0, 1, 2)
        out = capsys.readouterr().out
        assert "path: complex" in out
        assert open(path).read().strip()

    def test_tracing_state_restored_after_cli_run(self, capsys):
        main(["check", "--read", "a/b", "--insert", "a/c", "--stats"])
        capsys.readouterr()
        assert not obs.enabled()

    def test_commands_without_flags_stay_quiet(self, capsys):
        code = main(["check", "--read", "a/b", "--insert", "a/c"])
        assert code in (0, 1)
        assert "--- stats ---" not in capsys.readouterr().out


# ----------------------------------------------------------------------
# Bucketed histograms: quantile error bound, lossless merges
# ----------------------------------------------------------------------

class TestHistograms:
    def test_bucket_bounds_contain_the_value(self):
        for value in (1e-4, 0.5, 1.0, 1.26, 3.7, 10.0, 123.4, 9.9e6):
            lower, upper = bucket_bounds(bucket_index(value))
            assert lower <= value * (1 + 1e-12)
            assert value <= upper * (1 + 1e-12)

    def test_non_positive_values_share_the_zero_bucket(self):
        hist = Histogram()
        hist.observe(0.0)
        hist.observe(-4.0)
        assert list(hist.buckets.values()) == [2]
        assert bucket_bounds(next(iter(hist.buckets))) == (0.0, 0.0)

    def test_empty_histogram_has_no_quantiles(self):
        assert Histogram().quantile(0.5) is None
        assert quantile_from_snapshot(None, 0.5) is None
        assert quantile_from_snapshot({}, 0.5) is None

    def test_quantile_rejects_out_of_range_q(self):
        hist = Histogram()
        hist.observe(1.0)
        with pytest.raises(ValueError):
            hist.quantile(1.5)
        with pytest.raises(ValueError):
            hist.quantile(-0.1)

    def test_single_value_quantiles_are_exact(self):
        hist = Histogram()
        hist.observe(3.25)
        for q in (0.0, 0.5, 0.95, 1.0):
            assert hist.quantile(q) == 3.25

    def test_quantile_error_within_one_bucket(self):
        """Acceptance bound: every quantile is within one bucket width
        (a factor of 10**(1/BUCKETS_PER_DECADE)) of the exact nearest-rank
        percentile, and never below it."""
        rng = random.Random(1234)
        values = [rng.lognormvariate(1.0, 1.5) for _ in range(5000)]
        hist = Histogram()
        for value in values:
            hist.observe(value)
        width = 10.0 ** (1.0 / BUCKETS_PER_DECADE)
        for q in (0.5, 0.9, 0.95, 0.99):
            exact = exact_percentile(values, q)
            approx = hist.quantile(q)
            assert exact <= approx <= exact * width * (1 + 1e-9)

    def test_absorb_matches_observing_everything_in_one_histogram(self):
        rng = random.Random(7)
        values = [rng.uniform(0.01, 50.0) for _ in range(400)]
        whole, left, right = Histogram(), Histogram(), Histogram()
        for position, value in enumerate(values):
            whole.observe(value)
            (left if position % 2 else right).observe(value)
        left.absorb(right)
        assert left.count == whole.count
        assert left.buckets == whole.buckets
        assert left.min == whole.min and left.max == whole.max
        assert left.sum == pytest.approx(whole.sum)
        for q in (0.5, 0.95, 0.99):
            assert left.quantile(q) == whole.quantile(q)

    def test_absorb_accepts_snapshot_form(self):
        a, b = Histogram(), Histogram()
        for value in (1.0, 2.0, 3.0):
            a.observe(value)
        for value in (10.0, 20.0):
            b.observe(value)
        a.absorb(b.snapshot())
        assert a.count == 5
        assert a.max == 20.0
        assert sum(a.buckets.values()) == 5

    def test_legacy_summary_snapshot_folds_at_the_mean(self):
        hist = Histogram()
        hist.absorb({"count": 4, "sum": 8.0, "min": 1.0, "max": 3.0})
        assert hist.count == 4
        assert hist.sum == 8.0
        assert hist.min == 1.0 and hist.max == 3.0
        assert hist.buckets == {bucket_index(2.0): 4}

    def test_histogram_delta_roundtrip(self):
        hist = Histogram()
        for value in (1.0, 5.0):
            hist.observe(value)
        base = hist.snapshot()
        for value in (2.0, 5.0, 80.0):
            hist.observe(value)
        delta = histogram_delta(hist.snapshot(), base)
        assert delta["count"] == 3
        rebuilt = Histogram.from_snapshot(base)
        rebuilt.absorb(delta)
        assert rebuilt.buckets == hist.buckets
        assert rebuilt.count == hist.count
        assert rebuilt.min == hist.min and rebuilt.max == hist.max

    def test_histogram_delta_none_when_unchanged(self):
        hist = Histogram()
        hist.observe(1.0)
        snap = hist.snapshot()
        assert histogram_delta(snap, snap) is None
        assert histogram_delta(snap, None) is not None

    def test_quantile_from_snapshot_matches_live_registry(self):
        reg = obs.MetricsRegistry()
        for value in (1.0, 4.0, 9.0, 16.0):
            reg.observe("lat", value, path="linear")
        snap = reg.snapshot()["histograms"]["lat{path=linear}"]
        for q in (0.5, 0.95, 0.99):
            assert quantile_from_snapshot(snap, q) == reg.quantile(
                "lat", q, path="linear"
            )


# ----------------------------------------------------------------------
# Absorb algebra (property-based)
# ----------------------------------------------------------------------

_metric_names = st.sampled_from(["a", "b", "c{path=linear}", "d{path=general}"])

# Integer-valued observations keep float sums exact (every partial sum is
# an integer well under 2**53), so snapshots compare *equal* regardless of
# absorb order — the algebra holds exactly, not just approximately.
_registry_specs = st.fixed_dictionaries({
    "counters": st.lists(
        st.tuples(_metric_names, st.integers(0, 100)), max_size=8
    ),
    "observations": st.lists(
        st.tuples(_metric_names, st.integers(0, 10**6)), max_size=30
    ),
})


def _registry_snapshot(spec: dict) -> dict:
    reg = obs.MetricsRegistry()
    for name, value in spec["counters"]:
        reg.inc(name, value)
    for name, value in spec["observations"]:
        reg.observe(name, float(value))
    return reg.snapshot()


def _absorbed(*snapshots: dict) -> dict:
    reg = obs.MetricsRegistry()
    for snap in snapshots:
        reg.absorb(snap)
    return reg.snapshot()


class TestAbsorbProperties:
    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(_registry_specs, _registry_specs)
    def test_absorb_is_commutative(self, spec_a, spec_b):
        a, b = _registry_snapshot(spec_a), _registry_snapshot(spec_b)
        assert _absorbed(a, b) == _absorbed(b, a)

    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(_registry_specs, _registry_specs, _registry_specs)
    def test_absorb_is_associative(self, spec_a, spec_b, spec_c):
        a, b, c = (
            _registry_snapshot(s) for s in (spec_a, spec_b, spec_c)
        )
        assert _absorbed(_absorbed(a, b), c) == _absorbed(a, _absorbed(b, c))

    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(_registry_specs)
    def test_absorb_into_empty_is_identity(self, spec):
        snap = _registry_snapshot(spec)
        assert _absorbed(snap) == snap


# ----------------------------------------------------------------------
# Sink thread-safety and the close race
# ----------------------------------------------------------------------

class TestSinkConcurrency:
    def test_concurrent_jsonl_writers_emit_whole_lines(self, tmp_path):
        path = str(tmp_path / "conc.jsonl")
        sink = obs.JsonlSink(path)

        def hammer(tag):
            for index in range(200):
                sink.emit({"name": tag, "i": index})

        threads = [
            threading.Thread(target=hammer, args=(f"t{n}",)) for n in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        sink.close()
        records = [json.loads(line) for line in open(path)]
        assert len(records) == 800
        for n in range(4):
            assert sum(1 for r in records if r["name"] == f"t{n}") == 200

    def test_concurrent_ring_buffer_writers(self):
        ring = obs.RingBufferSink(capacity=10_000)

        def hammer(tag):
            for index in range(200):
                ring.emit({"name": tag, "i": index})

        threads = [
            threading.Thread(target=hammer, args=(f"t{n}",)) for n in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(ring) == 800

    def test_emit_after_close_is_dropped_silently(self, tmp_path):
        path = str(tmp_path / "closed.jsonl")
        sink = obs.JsonlSink(path)
        sink.emit({"name": "before"})
        sink.close()
        sink.emit({"name": "after"})   # must neither raise nor write
        sink.close()                   # idempotent
        records = [json.loads(line) for line in open(path)]
        assert [r["name"] for r in records] == ["before"]

    def test_span_close_races_disable_without_raising(self, tmp_path):
        """``obs.disable()`` closes the sink while worker threads are
        mid-``Span.__exit__``; emission must be dropped, never raised."""
        path = str(tmp_path / "race.jsonl")
        obs.enable(obs.JsonlSink(path))
        errors = []
        stop = threading.Event()

        def worker():
            try:
                while not stop.is_set():
                    with obs.span("race.unit"):
                        pass
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(3)]
        for thread in threads:
            thread.start()
        time.sleep(0.05)
        obs.disable()
        stop.set()
        for thread in threads:
            thread.join()
        assert errors == []


# ----------------------------------------------------------------------
# Request-id binding and propagation
# ----------------------------------------------------------------------

class TestRequestContext:
    def test_bind_nest_and_restore(self):
        assert obs.current_request_id() is None
        with obs.request_context("outer"):
            assert obs.current_request_id() == "outer"
            with obs.request_context("inner"):
                assert obs.current_request_id() == "inner"
            assert obs.current_request_id() == "outer"
        assert obs.current_request_id() is None

    def test_none_binding_clears_within_scope(self):
        obs.set_request_id("sticky")
        with obs.request_context(None):
            assert obs.current_request_id() is None
        assert obs.current_request_id() == "sticky"

    def test_spans_carry_request_id_only_when_bound(self):
        with obs.tracing() as ring:
            with obs.span("bare"):
                pass
            with obs.request_context("req-1"):
                with obs.span("tagged"):
                    pass
        bare, tagged = ring.spans()
        assert "request_id" not in bare
        assert tagged["request_id"] == "req-1"

    def test_request_id_does_not_cross_threads(self):
        seen = []
        with obs.request_context("main-thread"):
            thread = threading.Thread(
                target=lambda: seen.append(obs.current_request_id())
            )
            thread.start()
            thread.join()
        assert seen == [None]


class TestRequestIdAcrossPool:
    """The id bound when a pool is built reaches worker-side spans under
    both start methods (explicit initargs transport, not inheritance)."""

    CATALOGUE = {
        "titles": Read("bib/book/title"),
        "quantities": Read("//quantity"),
        "restock": Insert("bib/book", "<restock/>"),
        "purge": Delete("bib/book"),
        "strip-markers": Delete("bib/book/restock"),
    }

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_request_id_survives_start_method(self, method, tmp_path, monkeypatch):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{method} start method unavailable on this platform")
        from repro.conflicts.batch import BatchAnalyzer

        trace_path = str(tmp_path / f"pool-{method}.jsonl")
        # Spawned workers re-create tracing from the environment at import;
        # forked workers inherit the parent's append-mode sink.  Either way
        # every process writes JSON lines into the same file.
        monkeypatch.setenv("REPRO_TRACE", trace_path)
        monkeypatch.setenv("REPRO_START_METHOD", method)
        obs.enable(obs.JsonlSink(trace_path))
        try:
            with obs.request_context("req-ff"):
                analyzer = BatchAnalyzer(jobs=2)
                analyzer.analyze(self.CATALOGUE)
        finally:
            obs.disable()
        if analyzer.metrics()["counters"].get("batch.pool_failures"):
            pytest.skip("process pool unavailable in this environment")
        records = [json.loads(line) for line in open(trace_path)]
        dispatch = [r for r in records if r["name"] == "detector.dispatch"]
        assert len(dispatch) >= 4
        assert all(r.get("request_id") == "req-ff" for r in dispatch)


# ----------------------------------------------------------------------
# repro report
# ----------------------------------------------------------------------

class TestReportCli:
    def _trace_one_check(self, tmp_path, capsys):
        trace = str(tmp_path / "trace.jsonl")
        code = main(
            ["check", "--read", "a/b/c", "--delete", "a/b", "--trace", trace]
        )
        assert code in (0, 1)
        capsys.readouterr()
        return trace

    def test_report_renders_tables_from_trace(self, tmp_path, capsys):
        trace = self._trace_one_check(tmp_path, capsys)
        assert main(["report", trace]) == 0
        out = capsys.readouterr().out
        assert "per-phase latency" in out
        assert "detector.dispatch" in out
        assert "detector paths" in out
        assert "p95" in out

    def test_report_json_is_complete_and_skips_junk(self, tmp_path, capsys):
        trace = self._trace_one_check(tmp_path, capsys)
        access = tmp_path / "access.jsonl"
        access.write_text(
            json.dumps(
                {
                    "type": "access", "ts": 0.0, "request_id": "r1",
                    "method": "POST", "route": "check", "status": 200,
                    "total_ms": 1.5, "queue_wait_ms": 0.2, "outcome": "ok",
                    "verdict": "conflict", "cached": False, "degraded": False,
                }
            )
            + "\nnot json\n"
        )
        assert main(["report", trace, str(access), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) >= {
            "records", "phases", "detectors", "routes", "request_ids"
        }
        assert report["records"]["skipped"] == 1
        assert report["records"]["access"] == 1
        assert report["routes"]["check"]["count"] == 1
        assert report["routes"]["check"]["verdicts"] == {"conflict": 1}
        assert report["request_ids"]["access_with_id"] == 1
        assert "detector.dispatch" in report["phases"]
        dispatch = report["phases"]["detector.dispatch"]
        assert dispatch["count"] == 1
        assert dispatch["p50_ms"] <= dispatch["p99_ms"] <= dispatch["max_ms"]
