"""Tests for the batch conflict-analysis engine (:mod:`repro.conflicts.batch`)."""

from __future__ import annotations

import itertools
import json
import random

import pytest

from repro.compile.compiler import PatternCompiler
from repro.conflicts.api import AnalysisConfig, analyze
from repro.conflicts import batch
from repro.conflicts.batch import (
    BatchAnalyzer,
    CanonicalOp,
    ConflictMatrix,
    VerdictCache,
    op_key,
    reference_matrix,
)
from repro.conflicts.detector import ConflictDetector, DetectorConfig
from repro.conflicts.semantics import Verdict
from repro.errors import ConflictEngineError
from repro.obs.metrics import MetricsRegistry
from repro.operations.ops import Delete, Insert, Read

OPERATIONS = {
    "titles": Read("bib/book/title"),
    "quantities": Read("//quantity"),
    "restock": Insert("bib/book", "<restock/>"),
    "purge": Delete("bib/book"),
    "strip-markers": Delete("bib/book/restock"),
}


def assert_same_verdicts(matrix_a: ConflictMatrix, matrix_b: ConflictMatrix) -> None:
    assert sorted(matrix_a.names) == sorted(matrix_b.names)
    for a, b in itertools.combinations(matrix_a.names, 2):
        assert matrix_a.verdict(a, b) is matrix_b.verdict(a, b), (a, b)


class TestCanonicalOp:
    def test_structurally_identical_ops_share_a_key(self):
        one = CanonicalOp.from_operation(Insert("a/b", "<c><d/><e/></c>"))
        two = CanonicalOp.from_operation(Insert("a/b", "<c><e/><d/></c>"))
        assert one.key == two.key == op_key(Insert("a/b", "<c><e/><d/></c>"))

    def test_different_ops_differ(self):
        assert (
            CanonicalOp.from_operation(Read("a/b")).key
            != CanonicalOp.from_operation(Delete("a/b")).key
        )

    def test_rejects_non_operations(self):
        with pytest.raises(TypeError):
            CanonicalOp.from_operation("read a/b")
        with pytest.raises(TypeError):
            op_key("read a/b")


class TestVerdictCache:
    def _decided_cache(self):
        cache = VerdictCache()
        analyzer = BatchAnalyzer(cache=cache)
        analyzer.analyze(OPERATIONS)
        return cache

    def test_export_merge_roundtrip(self):
        cache = self._decided_cache()
        other = VerdictCache()
        added = other.merge(cache.export())
        assert added == len(cache) > 0
        assert other.merge(cache) == 0  # idempotent

    def test_save_load_roundtrip(self, tmp_path):
        cache = self._decided_cache()
        path = tmp_path / "verdicts.json"
        cache.save(path)
        loaded = VerdictCache.load(path)
        assert len(loaded) == len(cache)
        # A warm analyzer answers everything from the loaded cache.
        warm = BatchAnalyzer(cache=loaded)
        warm.analyze(OPERATIONS)
        counters = warm.metrics()["counters"]
        assert counters.get("batch.pairs_unique", 0) == 0

    def test_load_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99, "entries": []}')
        with pytest.raises(ConflictEngineError):
            VerdictCache.load(path)

    def test_save_creates_parent_directories(self, tmp_path):
        # A dated snapshot location must work on the first save, not
        # fail with FileNotFoundError until someone mkdirs it.
        cache = self._decided_cache()
        path = tmp_path / "runs" / "2026-08-07" / "verdicts.json"
        cache.save(path)
        assert len(VerdictCache.load(path)) == len(cache)

    def test_fingerprints_keep_configurations_apart(self):
        cache = VerdictCache()
        op_a = op_key(Insert("a/b", "<x/>"))
        op_b = op_key(Insert("a/c", "<y/>"))
        key_small = VerdictCache.pair_key(
            DetectorConfig(exhaustive_cap=2).fingerprint(), op_a, op_b
        )
        key_large = VerdictCache.pair_key(
            DetectorConfig(exhaustive_cap=6).fingerprint(), op_a, op_b
        )
        assert key_small != key_large
        cache.put(key_small, Verdict.UNKNOWN)
        assert cache.get(key_large) is None

    def test_snapshots_leave_unknown_verdicts_out(self, tmp_path):
        # An UNKNOWN records what one engine could not decide, not a fact
        # about the pair: a snapshot must not pin it for later engines.
        purge = Delete("bib/book/stale")
        restock = Insert("inv/item", "<note>x</note>")
        key = VerdictCache.pair_key(
            DetectorConfig().fingerprint(),
            CanonicalOp.from_operation(purge).key,
            CanonicalOp.from_operation(restock).key,
        )
        decided = VerdictCache.pair_key(
            DetectorConfig().fingerprint(),
            CanonicalOp.from_operation(purge).key,
            CanonicalOp.from_operation(Insert("bib/book", "<stale/>")).key,
        )
        cache = VerdictCache()
        cache.put(key, Verdict.UNKNOWN)
        cache.put(decided, Verdict.CONFLICT)
        assert [entry["verdict"] for entry in cache.export()] == ["conflict"]
        # A snapshot written before unknowns were left out still holds one.
        config, key_a, key_b = key
        path = tmp_path / "verdicts.json"
        path.write_text(json.dumps({
            "version": 1,
            "shard": None,
            "entries": [{
                "config": list(config),
                "a": list(key_a),
                "b": list(key_b),
                "verdict": "unknown",
            }],
        }))
        loaded = VerdictCache.load(path)
        assert key not in loaded
        matrix = BatchAnalyzer(cache=loaded).analyze(
            {"purge": purge, "restock": restock}
        )
        assert matrix.verdict("purge", "restock") is Verdict.NO_CONFLICT


class TestBatchAnalyzer:
    def test_matches_reference_matrix(self):
        reference = reference_matrix(OPERATIONS)
        batch = BatchAnalyzer().analyze(OPERATIONS)
        assert_same_verdicts(reference, batch)

    def test_accepts_pair_iterables(self):
        matrix = BatchAnalyzer().analyze(list(OPERATIONS.items()))
        assert sorted(matrix.names) == sorted(OPERATIONS)

    def test_duplicate_names_rejected(self):
        pairs = [("op", Read("a/b")), ("op", Delete("a/b"))]
        with pytest.raises(ConflictEngineError):
            BatchAnalyzer().analyze(pairs)

    def test_dedup_decides_unique_pairs_once(self):
        catalogue = {f"r{i}": Read("bib/book/title") for i in range(4)}
        catalogue["purge"] = Delete("bib/book")
        analyzer = BatchAnalyzer()
        analyzer.analyze(catalogue)
        counters = analyzer.metrics()["counters"]
        # 4 read/read pairs are trivial; the 4 read-vs-delete pairs
        # collapse to one unique decision.
        assert counters["batch.pairs_total"] == 10
        assert counters["batch.pairs_trivial"] == 6
        assert counters["batch.pairs_unique"] == 1
        assert counters["batch.pairs_decided"] == 1

    def test_add_op_decides_only_new_row(self):
        analyzer = BatchAnalyzer()
        analyzer.analyze(OPERATIONS)
        before = analyzer.metrics()["counters"]["batch.pairs_total"]
        analyzer.add_op("audit", Read("bib//price"))
        counters = analyzer.metrics()["counters"]
        assert counters["batch.pairs_total"] - before == len(OPERATIONS)
        assert counters["batch.incremental_adds"] == 1
        assert "audit" in analyzer.matrix.names
        # The maintained matrix equals a from-scratch analysis.
        fresh = BatchAnalyzer().analyze(analyzer.operations)
        assert_same_verdicts(fresh, analyzer.matrix)

    def test_add_op_duplicate_name_rejected(self):
        analyzer = BatchAnalyzer()
        analyzer.analyze(OPERATIONS)
        with pytest.raises(ConflictEngineError):
            analyzer.add_op("titles", Read("x/y"))

    def test_remove_op(self):
        analyzer = BatchAnalyzer()
        analyzer.analyze(OPERATIONS)
        analyzer.remove_op("purge")
        assert "purge" not in analyzer.matrix.names
        assert all("purge" not in pair for pair in analyzer.matrix.pairs())
        fresh = BatchAnalyzer().analyze(analyzer.operations)
        assert_same_verdicts(fresh, analyzer.matrix)

    def test_remove_unknown_name_rejected(self):
        with pytest.raises(ConflictEngineError):
            BatchAnalyzer().remove_op("ghost")

    def test_rejected_add_op_leaves_the_analyzer_as_it_was(self):
        analyzer = BatchAnalyzer()
        analyzer.analyze({"r": Read("a/b"), "d": Delete("a/b")})
        with pytest.raises(TypeError):
            analyzer.add_op("x", "read a/b")
        assert list(analyzer.operations) == ["r", "d"]
        assert analyzer.matrix.names == ["r", "d"]
        with pytest.raises(ConflictEngineError):
            analyzer.remove_op("x")
        matrix = analyzer.add_op("x", Read("a/c"))
        assert list(matrix.pairs()) == list(
            reference_matrix(analyzer.operations).pairs()
        )

    def test_rejected_catalogue_leaves_the_previous_one(self):
        analyzer = BatchAnalyzer()
        analyzer.analyze({"r": Read("a/b"), "d": Delete("a/b")})
        with pytest.raises(TypeError):
            analyzer.analyze({"r2": Read("a/c"), "bad": 42})
        assert list(analyzer.operations) == ["r", "d"]
        assert analyzer.matrix.names == ["r", "d"]
        assert analyzer.matrix.verdict("r", "d") is Verdict.CONFLICT

    def test_shared_cache_across_analyzers(self):
        cache = VerdictCache()
        BatchAnalyzer(cache=cache).analyze(OPERATIONS)
        second = BatchAnalyzer(cache=cache)
        second.analyze(OPERATIONS)
        assert second.metrics()["counters"].get("batch.pairs_unique", 0) == 0

    def test_schedule_matches_functional_front(self):
        from repro.conflicts.api import analyze

        analyzer = BatchAnalyzer()
        analyzer.analyze(OPERATIONS)
        assert analyzer.schedule() == analyze(OPERATIONS, mode="schedule")


def two_shape_catalogue() -> dict:
    """Eight names over two shapes, every operation built separately."""
    ops = {f"title{index}": Read("bib/book/title") for index in range(5)}
    ops.update({f"purge{index}": Delete("bib/book") for index in range(3)})
    return ops


def recording_precompile(monkeypatch) -> list:
    """Record the key of every operation ``PatternCompiler.precompile``
    compiles from now on."""
    precompiled = []
    precompile = PatternCompiler.precompile

    def recording(compiler, op):
        precompiled.append(op_key(op))
        return precompile(compiler, op)

    monkeypatch.setattr(PatternCompiler, "precompile", recording)
    return precompiled


class TestPlanPerShape:
    """Names join canonical groups; each group is canonicalized and
    profiled once, and precompiled once when one of its pairs first
    reaches a decision."""

    def test_each_shape_is_profiled_and_precompiled_once(self, monkeypatch):
        profiled = []
        profile_pattern = batch.profile_pattern

        def counting(kind, pattern):
            profiled.append(kind)
            return profile_pattern(kind, pattern)

        monkeypatch.setattr(batch, "profile_pattern", counting)
        catalogue = two_shape_catalogue()
        analyzer = BatchAnalyzer()
        matrix = analyzer.analyze(catalogue)
        assert sorted(profiled) == ["Delete", "Read"]
        assert analyzer.metrics()["counters"]["batch.ops_precompiled"] == 2
        assert list(matrix.pairs()) == list(reference_matrix(catalogue).pairs())

    def test_matrix_remove_reports_the_group_it_empties(self):
        matrix = ConflictMatrix()
        group = matrix.add("a", "shape")
        matrix.add("b", "shape")
        assert matrix.remove("a") is None
        assert matrix.remove("b") == group
        assert matrix.group_ids() == []

    def test_removing_and_re_adding_a_whole_shape(self, monkeypatch):
        analyzer = BatchAnalyzer()
        analyzer.analyze(two_shape_catalogue())
        for name in ("purge0", "purge1", "purge2"):
            analyzer.remove_op(name)
        precompiled = recording_precompile(monkeypatch)
        matrix = analyzer.add_op("purge", Delete("bib/book"))
        assert list(matrix.pairs()) == list(
            reference_matrix(analyzer.operations).pairs()
        )
        # The emptied group went with its last member: the shape came
        # back as a new group, but its only pair is a verdict-cache hit,
        # so it reaches no decision and is not precompiled again.
        assert matrix.discharge_reason("title0", "purge") == "cached"
        assert precompiled == []
        assert analyzer.metrics()["counters"]["batch.ops_precompiled"] == 2

    def test_groups_that_reach_no_decision_are_not_precompiled(self, monkeypatch):
        precompiled = recording_precompile(monkeypatch)
        catalogue = {
            "titles": Read("bib/book/title"),
            "names": Read("bib/author/name"),
            "poison": Delete("bib/poisonlabel/entry"),
            "purge": Delete("bib/book"),
        }
        analyzer = BatchAnalyzer()
        matrix = analyzer.analyze(catalogue)
        # ``names`` pairs only with a read and with updates the index
        # discharges; every other group has a decided pair.
        assert matrix.discharge_reason("names", "poison") == "index:chain"
        assert matrix.discharge_reason("names", "purge") == "index:chain"
        assert matrix.discharge_reason("poison", "purge") == "decided"
        assert sorted(precompiled) == sorted(
            op_key(catalogue[name]) for name in ("titles", "poison", "purge")
        )
        assert analyzer.metrics()["counters"]["batch.ops_precompiled"] == 3

        # A warm analyzer sharing the verdict cache answers every pair
        # from it, so it precompiles nothing.
        precompiled.clear()
        warm = BatchAnalyzer(cache=analyzer.cache)
        assert list(warm.analyze(catalogue).pairs()) == list(matrix.pairs())
        assert precompiled == []
        assert warm.metrics()["counters"].get("batch.ops_precompiled", 0) == 0

    def test_every_operand_a_pool_ships_is_precompiled_first(self, monkeypatch):
        precompiled = recording_precompile(monkeypatch)
        shipped = []
        make_pool = BatchAnalyzer._make_pool

        def checking(analyzer, context, jobs, operands):
            keys = [key for _, key in operands]
            shipped.append(keys)
            assert set(keys) <= set(precompiled)
            return make_pool(analyzer, context, jobs, operands)

        monkeypatch.setattr(BatchAnalyzer, "_make_pool", checking)
        analyzer = BatchAnalyzer(jobs=2)
        matrix = analyzer.analyze(OPERATIONS)
        assert shipped
        assert len(precompiled) == len(set(precompiled))
        assert analyzer.metrics()["counters"]["batch.ops_precompiled"] == len(
            precompiled
        )
        assert_same_verdicts(matrix, reference_matrix(OPERATIONS))


def large_catalogue() -> dict:
    """513 names over seven shapes: one past the per-pair JSON listing."""
    ops = {f"r{index:03d}": Read(f"bib/book{index % 3}/title") for index in range(508)}
    ops["i"] = Insert("bib/book0", "<title/>")
    ops["d"] = Delete("bib/book1")
    ops["purge"] = Delete("bib/book2")
    ops["twin-a"] = Read("bib/twin")
    ops["twin-b"] = Read("bib/twin")
    return ops


class TestMaintenanceOfLargeCatalogues:
    """``add_op``/``remove_op`` past 512 names, where ``to_dict`` lists
    group pairs."""

    def test_remove_op_leaving_one_member_drops_its_self_pair(self):
        analyzer = BatchAnalyzer(DetectorConfig(exhaustive_cap=1), jobs=1)
        analyzer.analyze(large_catalogue())
        matrix = analyzer.remove_op("twin-b")
        assert "twin-b" not in matrix.to_dict()["names"]
        matrix = analyzer.add_op("extra", Read("bib/extra"))
        payload = matrix.to_dict()
        assert payload["sparse"] is True
        names = len(payload["names"])
        assert sum(e["multiplicity"] for e in payload["verdicts"]) == names * (names - 1) // 2
        assert all(e["first"] != e["second"] for e in payload["verdicts"])
        assert ["twin-a"] in payload["groups"]

    @pytest.mark.parametrize("twin", ["r000", "i"])
    def test_duplicate_add_op_changes_no_existing_pair(self, twin):
        ops = large_catalogue()
        analyzer = BatchAnalyzer(DetectorConfig(exhaustive_cap=1), jobs=1)
        matrix = analyzer.analyze(ops)

        def state(a: str, b: str) -> tuple:
            return matrix.verdict(a, b), matrix.reason(a, b), matrix.discharge_reason(a, b)

        before = {pair: state(*pair) for pair in itertools.combinations(ops, 2)}
        assert matrix.discharge_reason("i", "r000") == "decided"
        total = analyzer.metrics()["counters"]["batch.pairs_total"]
        analyzer.add_op("again", ops[twin])
        assert {pair: state(*pair) for pair in before} == before
        # Only the twin's group had no pair of its own to decide.
        added = analyzer.metrics()["counters"]["batch.pairs_total"] - total
        assert added == (1 if twin == "i" else 0)
        for other in ops:
            if other != twin:
                assert state("again", other) == state(twin, other)


class TestParallelEquivalence:
    def test_parallel_matches_serial_on_fixed_catalogue(self):
        serial = BatchAnalyzer(jobs=1).analyze(OPERATIONS)
        parallel = BatchAnalyzer(jobs=2).analyze(OPERATIONS)
        assert_same_verdicts(serial, parallel)

    def test_parallel_worker_metrics_absorbed(self):
        analyzer = BatchAnalyzer(jobs=2)
        analyzer.analyze(OPERATIONS)
        counters = analyzer.metrics()["counters"]
        if counters.get("batch.pool_failures"):
            pytest.skip("process pool unavailable in this environment")
        assert counters.get("batch.worker_chunks", 0) >= 1
        assert any(k.startswith("batch.worker_pairs{") for k in counters)
        assert analyzer.metrics()["gauges"]["batch.workers_used"] >= 1

    def test_serial_and_parallel_count_the_same_queries(self):
        """Serial decisions reach the analyzer's registry, as pool ones do."""
        queries = {}
        for jobs in (1, 2):
            registry = MetricsRegistry()
            config = AnalysisConfig(jobs=jobs, registry=registry)
            analyze(OPERATIONS, config=config)
            counters = registry.snapshot()["counters"]
            if counters.get("batch.pool_failures"):
                pytest.skip("process pool unavailable in this environment")
            queries[jobs] = {
                key: count
                for key, count in counters.items()
                if key.startswith("conflict.queries_total{")
            }
        assert queries[1]
        assert queries[1] == queries[2]

    def test_parallel_worker_histograms_absorbed(self):
        """Workers ship bucket-exact histogram deltas; the parent's
        ``conflict.decide_ms`` distribution covers pool-decided pairs."""
        analyzer = BatchAnalyzer(jobs=2)
        analyzer.analyze(OPERATIONS)
        metrics = analyzer.metrics()
        if metrics["counters"].get("batch.pool_failures"):
            pytest.skip("process pool unavailable in this environment")
        decide = {
            k: v for k, v in metrics["histograms"].items()
            if k.startswith("conflict.decide_ms{")
        }
        assert decide, "no decide-latency histograms crossed the pool"
        total = sum(h["count"] for h in decide.values())
        assert total >= BatchAnalyzer.MIN_PARALLEL_PAIRS
        for hist in decide.values():
            assert sum(hist["buckets"].values()) == hist["count"]
            assert hist["p50"] is not None

    @pytest.mark.parametrize("seed", range(4))
    def test_parallel_matches_serial_property(self, seed):
        """Identical verdict matrices, serial vs parallel, for every seed."""
        from repro.workloads.generators import (
            random_delete,
            random_insert,
            random_read,
        )

        rng = random.Random(seed)
        catalogue = {}
        for index in range(7):
            roll = rng.random()
            if roll < 0.4:
                catalogue[f"op{index}"] = random_read(3, ("a", "b"), seed=rng)
            elif roll < 0.7:
                catalogue[f"op{index}"] = random_insert(
                    2, alphabet=("a", "b"), seed=rng, linear=True
                )
            else:
                catalogue[f"op{index}"] = random_delete(
                    2, ("a", "b"), seed=rng, linear=True
                )
        config = DetectorConfig(exhaustive_cap=3)
        serial = BatchAnalyzer(config, jobs=1).analyze(catalogue)
        parallel = BatchAnalyzer(config, jobs=2).analyze(catalogue)
        reference = reference_matrix(catalogue, ConflictDetector(config=config))
        assert_same_verdicts(serial, parallel)
        assert_same_verdicts(reference, serial)
