"""Tests for the resilience layer: budgets, quarantine, fault injection.

Covers the four legs of ``repro.resilience``:

* cooperative :class:`Budget` semantics and their thread-local scoping;
* detector degradation to ``UNKNOWN`` with a machine-readable reason
  (and the invariant that degraded verdicts are never cached);
* the batch engine's chunk hardening — injected worker crashes drive the
  retry / split / quarantine machinery while every healthy pair still
  matches the serial reference matrix, and in-worker deadline budgets
  degrade pairs without hanging the pool;
* durable verdict-cache snapshots: fsync'd atomic saves and salvage of
  corrupt files (with ``.bak`` preservation and a typed warning).
"""

from __future__ import annotations

import json
import os
import time
import warnings

import pytest

from repro import Budget, BudgetExceeded, budget_scope, current_budget
from repro.conflicts.batch import (
    BatchAnalyzer,
    VerdictCache,
    _preferred_context,
    op_key,
    reference_matrix,
)
from repro.conflicts.detector import ConflictDetector, DetectorConfig
from repro.conflicts.semantics import Verdict
from repro.errors import (
    CacheCorrupt,
    CacheCorruptWarning,
    ConflictEngineError,
    InjectedFault,
)
from repro.operations.ops import Delete, Insert, Read
from repro.resilience import faults
from repro.resilience.budget import checkpoint


@pytest.fixture(autouse=True)
def _clean_faults():
    """Every test starts and ends with no installed fault injector."""
    faults.uninstall()
    yield
    faults.uninstall()


def small_catalogue() -> dict:
    return {
        "titles": Read("bib/book/title"),
        "prices": Read("bib//price"),
        "purge": Delete("bib/book[author]"),
        "restock": Insert("bib/book", "<note>x</note>"),
        "trim": Delete("bib//title"),
    }


def poison_catalogue() -> dict:
    """A catalogue whose ``poison`` operation carries a distinctive label.

    Canonical pair keys embed the operands' pattern forms, so a fault
    rule with ``only=poisonlabel`` fires exactly for the poison pairs.
    """
    ops = small_catalogue()
    ops["poison"] = Delete("bib/poisonlabel/entry")
    return ops


class TestBudget:
    def test_step_limit_trips_after_allowance(self):
        budget = Budget(max_steps=3)
        for _ in range(3):
            budget.check()
        with pytest.raises(BudgetExceeded) as info:
            budget.check("unit.loop")
        assert info.value.reason == "step_limit"
        assert info.value.steps == 4
        assert "unit.loop" in str(info.value)

    def test_deadline_trips(self):
        budget = Budget(deadline_s=0.0)
        time.sleep(0.002)
        with pytest.raises(BudgetExceeded) as info:
            budget.check()
        assert info.value.reason == "timeout"
        assert info.value.elapsed_s > 0.0

    def test_exceeded_is_non_raising(self):
        budget = Budget(max_steps=0)
        assert budget.exceeded() is None
        budget.steps = 1
        assert budget.exceeded() == "step_limit"
        assert Budget(deadline_s=3600).exceeded() is None

    def test_unlimited_budget_never_trips(self):
        budget = Budget()
        for _ in range(10_000):
            budget.check()
        assert budget.exceeded() is None
        assert budget.remaining_s() is None

    def test_rejects_negative_knobs(self):
        with pytest.raises(ValueError):
            Budget(deadline_s=-1.0)
        with pytest.raises(ValueError):
            Budget(max_steps=-1)

    def test_scope_arms_and_restores(self):
        assert current_budget() is None
        outer = Budget(max_steps=100)
        with budget_scope(outer):
            assert current_budget() is outer
            inner = Budget(max_steps=5)
            with budget_scope(inner):
                assert current_budget() is inner
            assert current_budget() is outer
        assert current_budget() is None

    def test_none_scope_shadows_outer_budget(self):
        # A query configured without limits must not inherit a caller's
        # tighter budget.
        with budget_scope(Budget(max_steps=0)):
            with budget_scope(None):
                for _ in range(10):
                    checkpoint()  # would raise if the outer budget leaked

    def test_checkpoint_charges_current_budget(self):
        with budget_scope(Budget(max_steps=2)):
            checkpoint("a")
            checkpoint("b")
            with pytest.raises(BudgetExceeded):
                checkpoint("c")

    def test_checkpoint_without_budget_is_noop(self):
        checkpoint("nothing.armed")


class TestDetectorDegradation:
    def test_step_limit_degrades_to_unknown(self):
        detector = ConflictDetector(max_steps=1)
        report = detector.read_delete(Read("a[b]/c"), Delete("a/c"))
        assert report.verdict is Verdict.UNKNOWN
        assert report.reason == "step_limit"
        assert report.degraded
        assert report.method == "budget"

    def test_deadline_degrades_to_unknown(self):
        detector = ConflictDetector(deadline_s=0.0)
        report = detector.read_delete(Read("a[b]/c"), Delete("a/c"))
        assert report.verdict is Verdict.UNKNOWN
        assert report.reason == "timeout"

    def test_update_update_degrades(self):
        detector = ConflictDetector(max_steps=1)
        report = detector.update_update(
            Insert("a/b", "<c/>"), Delete("a/b")
        )
        assert report.verdict is Verdict.UNKNOWN
        assert report.reason == "step_limit"

    def test_unbudgeted_detector_never_degrades(self):
        detector = ConflictDetector()
        report = detector.read_delete(Read("a[b]/c"), Delete("a/c"))
        assert report.reason is None
        assert not report.degraded

    def test_degraded_verdicts_are_not_cached(self):
        cache = VerdictCache()
        budgeted = BatchAnalyzer(
            detector=ConflictDetector(max_steps=1), jobs=1, cache=cache
        )
        assert budgeted.analyze(small_catalogue()).degraded_pairs()
        # A degraded UNKNOWN reflects this run's budget, not the pair, so
        # it never reaches the shared verdict cache ...
        assert len(cache) == 0
        # ... which an unbudgeted run then fills with real verdicts.
        healthy = BatchAnalyzer(jobs=1, cache=cache)
        assert healthy.analyze(small_catalogue()).degraded_pairs() == []
        assert len(cache) > 0

    def test_budget_excluded_from_fingerprint(self):
        # Degraded verdicts are never cached, so budget knobs must not
        # split the cache key space.
        assert (
            DetectorConfig(max_steps=1, deadline_s=0.5).fingerprint()
            == DetectorConfig().fingerprint()
        )

    def test_budget_counter_incremented(self):
        detector = ConflictDetector(max_steps=1)
        detector.read_delete(Read("a[b]/c"), Delete("a/c"))
        counters = detector.metrics()["counters"]
        assert counters.get("conflict.budget_exceeded{reason=step_limit}") == 1

    def test_config_round_trips_budget_knobs(self):
        config = DetectorConfig(deadline_s=2.5, max_steps=777)
        detector = ConflictDetector(config=config)
        assert detector.config.deadline_s == 2.5
        assert detector.config.max_steps == 777


class TestFaultRules:
    def test_parse_grammar(self):
        injector = faults.FaultInjector.parse(
            "worker_crash:0.25:only=poison:first,"
            "slow_decide:delay=0.2,cache_corrupt:1:mode=truncate"
        )
        crash = injector.rule("worker_crash")
        assert crash.rate == 0.25
        assert crash.only == "poison"
        assert crash.first_attempt_only
        slow = injector.rule("slow_decide")
        assert slow.rate == 1.0 and slow.delay_s == 0.2
        corrupt = injector.rule("cache_corrupt")
        assert corrupt.mode == "truncate"

    def test_parse_rejects_unknown_fault(self):
        with pytest.raises(ConflictEngineError):
            faults.FaultInjector.parse("segfault_everything")

    def test_parse_rejects_bad_rate(self):
        with pytest.raises(ConflictEngineError):
            faults.FaultInjector.parse("worker_crash:1.5")

    def test_parse_rejects_unknown_option(self):
        with pytest.raises(ConflictEngineError):
            faults.FaultInjector.parse("worker_crash:1:explode")

    def test_spec_round_trips(self):
        spec = "cache_corrupt:mode=truncate,slow_decide:0.5:delay=0.2,worker_crash:0.25:only=poison:first"
        injector = faults.FaultInjector.parse(spec, seed=7)
        again = faults.FaultInjector.parse(injector.spec(), seed=7)
        assert again.spec() == injector.spec()
        for name in faults.KNOWN_FAULTS:
            assert again.rule(name) == injector.rule(name)

    def test_match_is_deterministic(self):
        a = faults.FaultInjector.parse("worker_crash:0.5", seed=42)
        b = faults.FaultInjector.parse("worker_crash:0.5", seed=42)
        keys = [f"pair-{i}" for i in range(64)]
        decisions_a = [a.match("worker_crash", k) is not None for k in keys]
        decisions_b = [b.match("worker_crash", k) is not None for k in keys]
        assert decisions_a == decisions_b
        assert any(decisions_a) and not all(decisions_a)
        # A different seed gives a different (but equally deterministic) draw.
        c = faults.FaultInjector.parse("worker_crash:0.5", seed=43)
        assert decisions_a != [
            c.match("worker_crash", k) is not None for k in keys
        ]

    def test_salt_makes_retries_independent(self):
        injector = faults.FaultInjector.parse("worker_crash:1:first")
        assert injector.match("worker_crash", "k", salt=0) is not None
        assert injector.match("worker_crash", "k", salt=1) is None

    def test_only_filter(self):
        injector = faults.FaultInjector.parse("worker_crash:1:only=poison")
        assert injector.match("worker_crash", "has-poison-inside") is not None
        assert injector.match("worker_crash", "healthy") is None

    def test_cluster_rules_parse_and_round_trip(self):
        spec = (
            "probe_flap:0.5:only=shard1,"
            "shard_hang:1:only=shard2|gen0:delay=1.5,"
            "shard_kill:1:only=shard0|gen0|matrix"
        )
        injector = faults.FaultInjector.parse(spec, seed=3)
        kill = injector.rule("shard_kill")
        assert kill.only == "shard0|gen0|matrix"
        hang = injector.rule("shard_hang")
        assert hang.only == "shard2|gen0" and hang.delay_s == 1.5
        flap = injector.rule("probe_flap")
        assert flap.rate == 0.5
        again = faults.FaultInjector.parse(injector.spec(), seed=3)
        for name in ("probe_flap", "shard_hang", "shard_kill"):
            assert again.rule(name) == injector.rule(name)

    def test_shard_kill_targets_one_generation(self):
        injector = faults.FaultInjector.parse(
            "shard_kill:1:only=shard1|gen0"
        )
        assert injector.match(
            "shard_kill", "shard1|gen0|check|a/b|c/d"
        ) is not None
        # The restarted incarnation (gen1) no longer matches: the drill
        # converges instead of crash-looping the replacement shard.
        assert injector.match("shard_kill", "shard1|gen1|check|a/b|c/d") is None
        assert injector.match("shard_kill", "shard0|gen0|check|a/b|c/d") is None

    def test_shard_hang_injection_sleeps_without_killing(self, monkeypatch):
        slept: list[float] = []
        monkeypatch.setattr("time.sleep", slept.append)
        faults.install(faults.FaultInjector.parse("shard_hang:1:delay=9.5"))
        try:
            faults.inject_shard_fault("shard0|gen0|check|x")
        finally:
            faults.uninstall()
        assert slept == [9.5]

    def test_env_loading(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_SPEC, "slow_decide:0.5:delay=0.01")
        monkeypatch.setenv(faults.ENV_SEED, "99")
        faults.uninstall()  # force a re-read of the patched environment
        injector = faults.current()
        assert injector is not None
        assert injector.seed == 99
        assert injector.rule("slow_decide").delay_s == 0.01

    def test_no_env_means_no_injector(self, monkeypatch):
        monkeypatch.delenv(faults.ENV_SPEC, raising=False)
        faults.uninstall()
        assert faults.current() is None
        assert faults.match("worker_crash", "anything") is None

    def test_inject_worker_fault_raises(self):
        faults.install(faults.FaultInjector.parse("worker_crash"))
        with pytest.raises(InjectedFault):
            faults.inject_worker_fault("any-key")


class TestBatchHardening:
    def test_poison_pair_quarantined_others_exact(self):
        """The issue's acceptance scenario, deterministic end to end.

        A seeded injector crashes every attempt at pairs involving the
        poison operation; the batch run must quarantine exactly those
        pairs as ``UNKNOWN`` with reason ``worker_crash`` and agree with
        the fault-free serial reference on every other pair.
        """
        ops = poison_catalogue()
        reference = reference_matrix(ops)
        faults.install(
            faults.FaultInjector.parse("worker_crash:1:only=poisonlabel", seed=5)
        )
        # Index off: the static index would (correctly) discharge some
        # poison pairs before they ever reach a worker, which is exactly
        # what tests/test_index.py pins; here we want every poison pair
        # to hit the crashing pool.
        analyzer = BatchAnalyzer(
            jobs=2, retries=1, retry_backoff_s=0.001, index=False
        )
        matrix = analyzer.analyze(ops)
        degraded = matrix.degraded_pairs()
        assert degraded, "poison pairs should have been quarantined"
        for first, second, reason in degraded:
            assert "poison" in (first, second)
            assert reason == "worker_crash"
        assert {("poison" in (a, b)) for a, b, _ in degraded} == {True}
        for a, b, verdict in reference.pairs():
            if "poison" in (a, b):
                assert matrix.verdict(a, b) is Verdict.UNKNOWN
                assert matrix.reason(a, b) == "worker_crash"
            else:
                assert matrix.verdict(a, b) is verdict
                assert matrix.reason(a, b) is None
        quarantine = analyzer.quarantine
        assert all(entry["reason"] == "worker_crash" for entry in quarantine)
        assert {(e["first"], e["second"]) for e in quarantine} == {
            (a, b) for a, b, _ in matrix.degraded_pairs()
        }
        counters = analyzer.metrics()["counters"]
        assert counters.get("batch.chunk_crashes", 0) > 0

    def test_first_attempt_crash_converges_to_reference(self):
        """Retry salting: a crash on attempt 0 only, so retries succeed
        and the final matrix is byte-for-byte the fault-free answer."""
        ops = small_catalogue()
        reference = reference_matrix(ops)
        faults.install(faults.FaultInjector.parse("worker_crash:1:first"))
        analyzer = BatchAnalyzer(jobs=2, retries=2, retry_backoff_s=0.001)
        matrix = analyzer.analyze(ops)
        assert matrix.degraded_pairs() == []
        assert analyzer.quarantine == []
        for a, b, verdict in reference.pairs():
            assert matrix.verdict(a, b) is verdict
        counters = analyzer.metrics()["counters"]
        assert counters.get("batch.chunk_crashes", 0) > 0

    def test_worker_deadline_degrades_without_hanging(self):
        """In-worker ``Budget(deadline_s=0)`` trips every non-trivial
        decision; the pool must drain promptly with reason ``timeout``."""
        ops = small_catalogue()
        config = DetectorConfig(deadline_s=0.0)
        analyzer = BatchAnalyzer(config, jobs=2)
        start = time.monotonic()
        matrix = analyzer.analyze(ops)
        assert time.monotonic() - start < 60
        degraded = matrix.degraded_pairs()
        assert degraded
        assert all(reason == "timeout" for _, _, reason in degraded)
        # The read-read pair is decided trivially, before any budget.
        assert matrix.verdict("titles", "prices") is Verdict.NO_CONFLICT
        assert matrix.reason("titles", "prices") is None

    def test_wedged_chunk_times_out_and_pool_recovers(self):
        """``slow_decide`` past ``chunk_timeout_s``: the pool is rebuilt,
        the stalled pairs are quarantined with reason ``timeout``, and
        unaffected pairs still decide correctly.

        The healthy operations are all *linear*, so their decisions run
        the PTIME path in milliseconds — well inside the chunk timeout —
        and only the injected stall can trip it.
        """
        ops = {
            "titles": Read("bib/book/title"),
            "prices": Read("bib//price"),
            "names": Read("bib/book/author/name"),
            "trim": Delete("bib//title"),
            "poison": Delete("bib/poisonlabel/entry"),
        }
        reference = reference_matrix(ops)
        faults.install(
            faults.FaultInjector.parse(
                "slow_decide:1:only=poisonlabel:delay=2.0"
            )
        )
        analyzer = BatchAnalyzer(
            jobs=2, retries=0, chunk_timeout_s=0.75, retry_backoff_s=0.001
        )
        matrix = analyzer.analyze(ops)
        degraded = matrix.degraded_pairs()
        assert degraded
        for first, second, reason in degraded:
            assert "poison" in (first, second)
            assert reason == "timeout"
        for a, b, verdict in reference.pairs():
            if "poison" not in (a, b):
                assert matrix.verdict(a, b) is verdict
        counters = analyzer.metrics()["counters"]
        assert counters.get("batch.chunk_timeouts", 0) > 0

    def test_degraded_verdicts_not_written_to_cache(self):
        ops = poison_catalogue()
        faults.install(
            faults.FaultInjector.parse("worker_crash:1:only=poisonlabel")
        )
        analyzer = BatchAnalyzer(jobs=2, retries=0, retry_backoff_s=0.001)
        matrix = analyzer.analyze(ops)
        assert matrix.degraded_pairs()
        fingerprint = analyzer.config.fingerprint()
        for a, b, _ in matrix.degraded_pairs():
            key = VerdictCache.pair_key(
                fingerprint,
                op_key(analyzer.operations[a]),
                op_key(analyzer.operations[b]),
            )
            assert analyzer.cache.get(key) is None
        # A healthy re-run (shared cache) decides the quarantined pairs.
        faults.uninstall()
        healthy = BatchAnalyzer(jobs=1, cache=analyzer.cache)
        again = healthy.analyze(ops)
        assert again.degraded_pairs() == []
        reference = reference_matrix(ops)
        for a, b, verdict in reference.pairs():
            assert again.verdict(a, b) is verdict

    def test_serial_path_records_reasons_too(self):
        ops = small_catalogue()
        analyzer = BatchAnalyzer(DetectorConfig(max_steps=1), jobs=1)
        matrix = analyzer.analyze(ops)
        degraded = matrix.degraded_pairs()
        assert degraded
        assert all(reason == "step_limit" for _, _, reason in degraded)
        assert analyzer.quarantine

    def test_negative_retries_rejected(self):
        with pytest.raises(ConflictEngineError):
            BatchAnalyzer(retries=-1)

    def test_remove_op_purges_degraded_pairs(self):
        ops = poison_catalogue()
        faults.install(
            faults.FaultInjector.parse("worker_crash:1:only=poisonlabel")
        )
        analyzer = BatchAnalyzer(jobs=2, retries=0, retry_backoff_s=0.001)
        analyzer.analyze(ops)
        assert analyzer.quarantine
        faults.uninstall()
        matrix = analyzer.remove_op("poison")
        assert analyzer.quarantine == []
        assert matrix.degraded_pairs() == []


class TestStartMethodOverride:
    def test_spawn_regression(self, monkeypatch):
        """Force ``spawn`` workers: verdicts must match the serial
        reference with zero pool failures (operands unpickled from the
        pool's initializer arguments, not inherited via fork)."""
        if "spawn" not in __import__("multiprocessing").get_all_start_methods():
            pytest.skip("spawn start method unavailable")
        ops = small_catalogue()
        reference = reference_matrix(ops)
        monkeypatch.setenv("REPRO_START_METHOD", "spawn")
        assert _preferred_context().get_start_method() == "spawn"
        analyzer = BatchAnalyzer(jobs=2)
        matrix = analyzer.analyze(ops)
        counters = analyzer.metrics()["counters"]
        assert counters.get("batch.pool_failures", 0) == 0
        for a, b, verdict in reference.pairs():
            assert matrix.verdict(a, b) is verdict

    def test_unavailable_method_is_an_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_START_METHOD", "threads-of-destiny")
        with pytest.raises(ConflictEngineError):
            _preferred_context()


def _break_third_entry(change):
    """A snapshot builder whose third entry is damaged by ``change``."""

    def build(entries: list[dict]) -> dict:
        broken = [dict(entry) for entry in entries]
        change(broken[2])
        return {"version": 1, "entries": broken}

    return build


#: Parseable snapshots of the wrong shape -> how many entries survive.
MALFORMED_SNAPSHOTS = {
    "top-level-list": (lambda entries: [{"version": 1, "entries": entries}], 0),
    "entries-not-a-list": (
        lambda entries: {"version": 1, "entries": {"first": entries[0]}},
        0,
    ),
    **{
        f"entry-without-{field}": (
            _break_third_entry(lambda entry, field=field: entry.pop(field)),
            2,
        )
        for field in ("config", "a", "b", "verdict")
    },
    "unknown-verdict": (
        _break_third_entry(lambda entry: entry.update(verdict="conflicu")),
        2,
    ),
}


class TestCacheDurability:
    def _populated_cache(self) -> VerdictCache:
        analyzer = BatchAnalyzer(jobs=1)
        analyzer.analyze(small_catalogue())
        assert len(analyzer.cache) > 2
        return analyzer.cache

    def test_save_is_atomic_and_loads_back(self, tmp_path):
        cache = self._populated_cache()
        path = tmp_path / "verdicts.json"
        cache.save(path)
        assert not (tmp_path / "verdicts.json.tmp").exists()
        loaded = VerdictCache.load(path)
        # Snapshots hold the decided verdicts; UNKNOWNs stay out.
        assert len(loaded) == len(cache.export())
        assert loaded.export() == cache.export()

    def test_truncated_snapshot_salvages_prefix(self, tmp_path):
        cache = self._populated_cache()
        path = tmp_path / "verdicts.json"
        cache.save(path)
        text = path.read_text()
        path.write_text(text[: int(len(text) * 0.7)])
        with pytest.warns(CacheCorruptWarning):
            salvaged = VerdictCache.load(path)
        assert 0 < len(salvaged) < len(cache)
        # The salvaged entries are a subset of the originals.
        original = {json.dumps(e, sort_keys=True) for e in cache.export()}
        for entry in salvaged.export():
            assert json.dumps(entry, sort_keys=True) in original
        assert (tmp_path / "verdicts.json.bak").read_text() == path.read_text()

    def test_garbage_suffix_salvages_everything(self, tmp_path):
        cache = self._populated_cache()
        path = tmp_path / "verdicts.json"
        cache.save(path)
        path.write_text(path.read_text() + "\x00not-json{{{")
        with pytest.warns(CacheCorruptWarning):
            salvaged = VerdictCache.load(path)
        assert len(salvaged) == len(cache.export())

    def test_strict_load_raises_typed_error(self, tmp_path):
        path = tmp_path / "verdicts.json"
        path.write_text('{"version": 1, "entries": [{"conf')
        with pytest.raises(CacheCorrupt):
            VerdictCache.load(path, strict=True)
        assert not (tmp_path / "verdicts.json.bak").exists()

    def test_unsupported_version_is_error_even_when_corrupt(self, tmp_path):
        path = tmp_path / "verdicts.json"
        path.write_text('{"version": 2, "entries": [{"conf')
        with pytest.raises(ConflictEngineError):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                VerdictCache.load(path)

    @pytest.mark.parametrize("shape", sorted(MALFORMED_SNAPSHOTS))
    def test_malformed_snapshot_salvages_valid_prefix(self, tmp_path, shape):
        build, kept = MALFORMED_SNAPSHOTS[shape]
        entries = self._populated_cache().export()
        path = tmp_path / "verdicts.json"
        path.write_text(json.dumps(build(entries)))
        with pytest.warns(CacheCorruptWarning):
            salvaged = VerdictCache.load(path)
        assert salvaged.export() == entries[:kept]
        assert (tmp_path / "verdicts.json.bak").read_text() == path.read_text()
        with pytest.raises(CacheCorrupt):
            VerdictCache.load(path, strict=True)

    def test_unsalvageable_snapshot_yields_empty_cache(self, tmp_path):
        path = tmp_path / "verdicts.json"
        path.write_text("complete garbage, no structure at all")
        with pytest.warns(CacheCorruptWarning):
            salvaged = VerdictCache.load(path)
        assert len(salvaged) == 0

    def test_injected_cache_corrupt_roundtrip(self, tmp_path):
        """The CI fault: every save corrupted (garbage mode), every load
        salvages all entries, so warm-start workflows stay correct."""
        cache = self._populated_cache()
        path = tmp_path / "verdicts.json"
        faults.install(faults.FaultInjector.parse("cache_corrupt"))
        cache.save(path)
        faults.uninstall()
        with pytest.warns(CacheCorruptWarning):
            loaded = VerdictCache.load(path)
        assert len(loaded) == len(cache.export())

    def test_injected_truncate_mode_loses_tail(self, tmp_path):
        cache = self._populated_cache()
        path = tmp_path / "verdicts.json"
        faults.install(
            faults.FaultInjector.parse("cache_corrupt:1:mode=truncate")
        )
        cache.save(path)
        faults.uninstall()
        with pytest.warns(CacheCorruptWarning):
            loaded = VerdictCache.load(path)
        assert len(loaded) < len(cache)


def step_limited_matrix(ops):
    return BatchAnalyzer(detector=ConflictDetector(max_steps=1)).analyze(ops)


class TestUnknownPropagation:
    def test_reason_flows_through_matrix_api(self):
        matrix = step_limited_matrix(small_catalogue())
        degraded = matrix.degraded_pairs()
        assert matrix.counts()["unknown"] >= len(degraded) > 0
        payload = matrix.to_dict()
        assert payload["stats"]["degraded"] == len(degraded)
        by_pair = {
            (entry["first"], entry["second"]): entry
            for entry in payload["verdicts"]
        }
        for a, b, reason in degraded:
            assert by_pair[(a, b)]["verdict"] == "unknown"
            assert by_pair[(a, b)]["reason"] == reason
        decided = [e for e in payload["verdicts"] if e["reason"] is None]
        assert decided, "healthy verdicts should carry reason=None"

    def test_degraded_pairs_schedule_conservatively(self):
        ops = small_catalogue()
        analyzer = BatchAnalyzer(detector=ConflictDetector(max_steps=1))
        analyzer.analyze(ops)
        batches = analyzer.schedule()
        placed = {name for batch in batches for name in batch}
        assert placed == set(ops)
        # Degraded (UNKNOWN) pairs must never share a batch.
        matrix = step_limited_matrix(ops)
        for batch in batches:
            for i, a in enumerate(batch):
                for b in batch[i + 1:]:
                    assert matrix.verdict(a, b) is Verdict.NO_CONFLICT

    def test_matrix_reason_is_symmetric(self):
        matrix = step_limited_matrix(small_catalogue())
        a, b, reason = matrix.degraded_pairs()[0]
        assert matrix.reason(a, b) == reason
        assert matrix.reason(b, a) == reason
        assert matrix.reason(a, a) is None


class TestCLIResilience:
    def _write_catalogue(self, tmp_path) -> str:
        path = tmp_path / "ops.json"
        path.write_text(
            json.dumps(
                {
                    "titles": {"op": "read", "xpath": "bib/book/title"},
                    "purge": {"op": "delete", "xpath": "bib/book[author]"},
                    "restock": {
                        "op": "insert",
                        "xpath": "bib/book",
                        "xml": "<note/>",
                    },
                }
            )
        )
        return str(path)

    def test_check_degraded_exit_code(self, capsys):
        from repro.cli import main

        code = main(
            ["check", "--read", "a[b]/c", "--delete", "a/c", "--max-steps", "1"]
        )
        assert code == 3
        out = capsys.readouterr().out
        assert "degraded: step_limit" in out

    def test_check_json_reason_field(self, capsys):
        from repro.cli import main

        code = main(
            [
                "check", "--read", "a[b]/c", "--delete", "a/c",
                "--timeout", "0", "--json",
            ]
        )
        assert code == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "unknown"
        assert payload["reason"] == "timeout"

    def test_check_healthy_reason_is_null(self, capsys):
        from repro.cli import main

        code = main(["check", "--read", "a/b", "--delete", "a/b", "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["reason"] is None

    def test_matrix_degraded_exit_and_json(self, tmp_path, capsys):
        from repro.cli import main

        ops = self._write_catalogue(tmp_path)
        code = main(["matrix", "--ops", ops, "--max-steps", "1", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 3
        assert payload["stats"]["degraded"] > 0
        assert payload["quarantine"]
        assert all(
            entry["reason"] == "step_limit" for entry in payload["quarantine"]
        )
        degraded = [e for e in payload["verdicts"] if e["reason"] is not None]
        assert degraded
        assert all(e["verdict"] == "unknown" for e in degraded)

    def test_matrix_conflict_beats_degraded_exit(self, tmp_path, capsys):
        from repro.cli import main

        ops = self._write_catalogue(tmp_path)
        # Without budgets the catalogue has a real conflict -> exit 1.
        assert main(["matrix", "--ops", ops]) == 1
        capsys.readouterr()

    def test_schedule_degraded_exit(self, tmp_path, capsys):
        from repro.cli import main

        ops = self._write_catalogue(tmp_path)
        code = main(
            ["schedule", "--ops", ops, "--max-steps", "1", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 3
        assert payload["stats"]["degraded"] > 0
        assert payload["quarantine"]

    def test_schedule_healthy_exit_zero(self, tmp_path, capsys):
        from repro.cli import main

        ops = self._write_catalogue(tmp_path)
        assert main(["schedule", "--ops", ops]) == 0
        capsys.readouterr()

    def test_matrix_retries_flag_accepted(self, tmp_path, capsys):
        from repro.cli import main

        ops = self._write_catalogue(tmp_path)
        assert main(["matrix", "--ops", ops, "--retries", "0"]) == 1
        capsys.readouterr()
