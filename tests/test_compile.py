"""Tests for the compile-once layer (:mod:`repro.compile`).

Covers the LRU substrate, interning identity rules (monotonic idents,
generation bumps, per-interner ownership), the compiler's memo families,
verdicts across a compiler reset (the generation-aliasing regression),
a full batch round-trip under ``REPRO_START_METHOD=spawn`` (workers that
inherit no compile cache), and how detectors share or isolate a
compiler.
"""

from __future__ import annotations


import pytest

from repro.automata.matching import matching_alphabet, matching_word
from repro.compile import (
    MISS,
    LRUCache,
    PatternCompiler,
    PatternInterner,
    global_compiler,
    reset_global_compiler,
)
from repro.compile.intern import InternedPattern
from repro.conflicts.batch import (
    BatchAnalyzer,
    VerdictCache,
    reference_matrix,
)
from repro.conflicts.detector import ConflictDetector, DetectorConfig
from repro.conflicts.semantics import Verdict
from repro.obs.metrics import MetricsRegistry
from repro.operations.ops import Delete, Insert, Read
from repro.patterns.pattern import Axis
from repro.patterns.xpath import parse_xpath
from tests.oracles import nfa_profile


def pattern(xpath: str):
    return parse_xpath(xpath)


# ----------------------------------------------------------------------
# LRU substrate
# ----------------------------------------------------------------------


class TestLRUCache:
    def test_miss_returns_sentinel_not_none(self):
        cache = LRUCache(4)
        assert cache.get("absent") is MISS
        cache.put("nothing", None)
        assert cache.get("nothing") is None  # None is a real cached value

    def test_hit_miss_counters(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("b") is MISS
        assert (cache.hits, cache.misses, cache.evictions) == (1, 1, 0)

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" is now LRU
        cache.put("c", 3)
        assert "b" not in cache and "a" in cache and "c" in cache
        assert cache.evictions == 1

    def test_put_refreshes_existing_key_without_evicting(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh, not insert: "b" survives
        cache.put("c", 3)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.get("a") == 10

    def test_registry_family_counters(self):
        registry = MetricsRegistry()
        cache = LRUCache(1, registry, family="compile.test")
        cache.get("x")
        cache.put("x", 1)
        cache.get("x")
        cache.put("y", 2)  # evicts x
        snap = registry.snapshot()["counters"]
        assert snap["compile.test.misses"] == 1
        assert snap["compile.test.hits"] == 1
        assert snap["compile.test.evictions"] == 1

    def test_clear_preserves_traffic_counters(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1
        assert cache.stats()["size"] == 0
        assert cache.stats()["maxsize"] == 4

    def test_rejects_non_positive_maxsize(self):
        with pytest.raises(ValueError):
            LRUCache(0)


# ----------------------------------------------------------------------
# Interning identity
# ----------------------------------------------------------------------


class TestPatternInterner:
    def test_canonically_equal_patterns_share_one_handle(self):
        interner = PatternInterner(16)
        first = interner.intern(pattern("a/b//c"))
        second = interner.intern(pattern("a/b//c"))
        assert first is second
        assert len(interner) == 1

    def test_intern_is_idempotent_on_own_handles(self):
        interner = PatternInterner(16)
        handle = interner.intern(pattern("a//b"))
        assert interner.intern(handle) is handle

    def test_interned_copy_is_isolated_from_caller_mutation(self):
        interner = PatternInterner(16)
        original = pattern("a/b")
        handle = interner.intern(original)
        original.add_child(original.output, "mutant", Axis.CHILD)
        assert handle.pattern.canonical_form() == handle.key

    def test_precomputed_attributes(self):
        interner = PatternInterner(16)
        handle = interner.intern(pattern("a//*/c"))
        assert handle.labels == frozenset({"a", "c"})
        assert handle.is_linear
        assert handle.spine_len == 3
        assert handle.size == 3

    def test_idents_are_monotonic_across_evictions(self):
        interner = PatternInterner(1)
        a_old = interner.intern(pattern("a"))
        b = interner.intern(pattern("b"))  # evicts "a"
        a_new = interner.intern(pattern("a"))  # re-interned, fresh ident
        assert (a_old.ident, b.ident, a_new.ident) == (0, 1, 2)
        assert a_old != a_new  # a stale key can only miss, never alias

    def test_reset_bumps_generation_and_invalidates_handles(self):
        interner = PatternInterner(16)
        before = interner.intern(pattern("a/b"))
        interner.reset()
        after = interner.intern(pattern("c/d"))
        assert interner.generation == 1
        # Same ident slot, different generation: never equal, never aliased.
        assert before.ident == after.ident == 0
        assert before != after
        assert hash(before) != hash(after)
        # A pre-reset handle is re-interned from its canonical form.
        revived = interner.intern(before)
        assert revived.generation == 1
        assert revived.key == before.key

    def test_identities_never_cross_interners(self):
        left = PatternInterner(16).intern(pattern("a"))
        right = PatternInterner(16).intern(pattern("a"))
        assert left.ident == right.ident and left.key == right.key
        assert left != right

    def test_equality_against_foreign_types(self):
        handle = PatternInterner(16).intern(pattern("a"))
        assert handle != "a"
        assert (handle == 42) is False


# ----------------------------------------------------------------------
# The compiler's memo families
# ----------------------------------------------------------------------


class TestPatternCompiler:
    def test_trunk_is_interned_and_memoized(self):
        comp = PatternCompiler()
        p = pattern("a/b[c]/d")
        first = comp.trunk(p)
        second = comp.trunk(p)
        assert first is second
        assert isinstance(first, InternedPattern)
        assert first.key == p.trunk().canonical_form()

    def test_spine_prefixes_and_suffixes_match_uncached(self):
        comp = PatternCompiler()
        p = pattern("a//b/*/c")
        spine = p.spine()
        for index, node in enumerate(spine):
            cached_pre = comp.as_pattern(comp.spine_prefix(p, index))
            plain_pre = p.seq_root_to(node)
            assert cached_pre.canonical_form() == plain_pre.canonical_form()
            cached_suf = comp.as_pattern(comp.spine_suffix(p, index))
            plain_suf = p.seq(node, p.output)
            assert cached_suf.canonical_form() == plain_suf.canonical_form()

    def test_bitset_automata_are_built_once(self):
        comp = PatternCompiler()
        p = pattern("a//b")
        strong = comp.bitset_automaton(p, weak=False)
        weak = comp.bitset_automaton(p, weak=True)
        assert strong is comp.bitset_automaton(p, weak=False)
        assert weak is comp.bitset_automaton(p, weak=True)
        assert strong is not weak
        assert not strong.accepts(["a", "b", "z"])
        assert weak.accepts(["a", "b", "z"])
        assert comp.stats()["compile.bitmask"]["size"] == 2

    def test_alphabet_matches_matching_alphabet(self):
        comp = PatternCompiler()
        left, right = pattern("a//b"), pattern("c/*")
        expected = matching_alphabet(left, right)
        assert comp.alphabet(left, right) == expected
        assert comp.alphabet(comp.intern(left), comp.intern(right)) == expected

    def test_matching_word_agrees_with_module_level_and_is_cached(self):
        comp = PatternCompiler()
        left, right = pattern("a//b"), pattern("a/*/b")
        for weak in (False, True):
            expected = matching_word(left, right, weak)
            got = comp.matching_word(left, right, weak)
            assert got == expected
            again = comp.matching_word(left, right, weak)
            assert again == got
            if got is not None:
                assert again is not got  # hits return a defensive copy
        assert comp.stats()["compile.match"]["hits"] >= 2

    def test_negative_matching_results_are_cached(self):
        comp = PatternCompiler()
        left, right = pattern("a/b"), pattern("c/d")
        assert comp.matching_word(left, right, weak=False) is None
        assert comp.matching_word(left, right, weak=False) is None
        assert comp.stats()["compile.match"]["hits"] == 1
        assert not comp.match(left, right, weak=False)

    def test_matching_profile_agrees_with_raw_dp(self):
        """The memoized one-pass profile equals per-prefix NFA products."""
        comp = PatternCompiler()
        trunk, read = pattern("a/b/c"), pattern("a//c")
        strong, weak = comp.matching_profile(trunk, read)
        assert (strong, weak) == nfa_profile(trunk, read)
        assert comp.matching_profile(trunk, read) == (strong, weak)
        assert comp.stats()["compile.profile"]["hits"] == 1

    def test_edge_scan_computes_once_per_pair(self):
        comp = PatternCompiler()
        read, trunk = pattern("a//b"), pattern("a/b")
        calls = []
        value = comp.edge_scan("tag", read, trunk, lambda: calls.append(1) or 3)
        again = comp.edge_scan("tag", read, trunk, lambda: calls.append(1) or 9)
        assert value == again == 3
        assert len(calls) == 1
        # A different tag is a different memo entry.
        assert comp.edge_scan("other", read, trunk, lambda: 5) == 5

    def test_reset_clears_memos_and_bumps_generation(self):
        comp = PatternCompiler()
        p = pattern("a/b")
        before = comp.intern(p)
        comp.trunk(p)
        comp.reset()
        assert comp.generation == 1
        assert comp.intern(p) != before
        assert comp.stats()["compile.derived"]["size"] == 0

    def test_stats_lists_every_family(self):
        families = set(PatternCompiler().stats())
        assert families == {
            "compile.intern", "compile.bitmask", "compile.match",
            "compile.profile", "compile.derived", "compile.edge",
        }


# ----------------------------------------------------------------------
# Sharing: the global compiler and private per-detector compilers
# ----------------------------------------------------------------------


class TestConfigurationKnobs:
    def test_global_compiler_is_a_singleton_until_reset(self):
        first = global_compiler()
        assert global_compiler() is first
        generation = first.generation
        reset_global_compiler()
        assert global_compiler() is first
        assert first.generation == generation + 1

    def test_detector_private_size_gets_private_compiler(self):
        registry = MetricsRegistry()
        private = PatternCompiler(maxsize=32, registry=registry)
        detector = ConflictDetector(compiler=private)
        assert detector.compiler is private
        assert private is not global_compiler()
        detector.read_delete(Read(pattern("a//b")), Delete(pattern("a/b")))
        assert registry.snapshot()["counters"]["compile.intern.misses"] >= 1

    def test_detector_default_shares_the_global_compiler(self):
        assert ConflictDetector().compiler is global_compiler()


# ----------------------------------------------------------------------
# Verdicts across compile-cache generations (the aliasing bug)
# ----------------------------------------------------------------------


class TestDetectorCacheKeyGenerations:
    def test_compiler_reset_cannot_alias_detector_entries(self):
        """Regression: interned idents restart after a reset.

        Before generations were part of interned identity, pattern pairs
        interned *after* a compiler reset reused idents 0, 1, ... and
        collided with keys minted before the reset, silently serving the
        wrong pair's verdict.  The compiler's memos still key on interned
        identity, so verdicts after a reset must stay exact.
        """
        compiler = PatternCompiler(maxsize=64)
        detector = ConflictDetector(compiler=compiler)
        conflicting = detector.read_delete(
            Read(pattern("a//b")), Delete(pattern("a/b"))
        )
        assert conflicting.verdict is Verdict.CONFLICT

        compiler.reset()
        # These operands now intern to the same fresh idents the first
        # pair held before the reset; the key must still be distinct.
        disjoint = detector.read_delete(
            Read(pattern("x/y")), Delete(pattern("p/q"))
        )
        assert disjoint.verdict is Verdict.NO_CONFLICT

        # And the first pair, re-asked post-reset, is recomputed correctly.
        recomputed = detector.read_delete(
            Read(pattern("a//b")), Delete(pattern("a/b"))
        )
        assert recomputed.verdict is Verdict.CONFLICT


# ----------------------------------------------------------------------
# Batch round-trip under spawn (satellite: worker seeding equivalence)
# ----------------------------------------------------------------------

SPAWN_OPS = {
    "titles": Read(parse_xpath("bib/book/title")),
    "prices": Read(parse_xpath("bib//price")),
    "cheap-titles": Read(parse_xpath("bib/book[price < 10]/title")),
    "restock": Insert(parse_xpath("bib/book"), "<restock/>"),
    "tag": Insert(parse_xpath("bib//author"), "<tagged/>"),
    "annotate": Insert(parse_xpath("bib/book"), "<note>x</note>"),
    "purge": Delete(parse_xpath("bib/book")),
    # A second name with an existing shape: it joins purge's group.
    "purge-again": Delete(parse_xpath("bib/book")),
}

#: Canonical groups of SPAWN_OPS (one shape appears twice).
SPAWN_GROUPS = len(SPAWN_OPS) - 1

# The spawn tests exercise operand shipping, not search depth: a small
# exhaustive cap keeps the NP-side update-update pairs cheap while still
# deciding every pair the same way on both sides of the comparison.
SPAWN_CONFIG = DetectorConfig(exhaustive_cap=4)


class TestSpawnRoundTrip:
    def test_spawn_workers_receive_seeded_compilers(self, monkeypatch):
        """A spawn pool (no inherited memory) must match the reference.

        Workers unpickle each group's operation (value tests and subtree
        text included) and compile it on first use, so verdict equality
        here proves shipping preserves every operand.
        """
        monkeypatch.setenv("REPRO_START_METHOD", "spawn")
        cache = VerdictCache()
        analyzer = BatchAnalyzer(SPAWN_CONFIG, jobs=2, cache=cache)
        matrix = analyzer.analyze(SPAWN_OPS)

        reference = reference_matrix(
            SPAWN_OPS,
            ConflictDetector(exhaustive_cap=4, compiler=PatternCompiler()),
        )
        assert list(matrix.pairs()) == list(reference.pairs())
        assert len(cache) > 0
        assert (
            analyzer.metrics()["counters"].get("batch.ops_precompiled")
            == SPAWN_GROUPS
        )

        # A second analyzer sharing the verdict cache answers everything
        # from it — no pool, same matrix.
        warm = BatchAnalyzer(SPAWN_CONFIG, jobs=2, cache=cache)
        assert list(warm.analyze(SPAWN_OPS).pairs()) == list(matrix.pairs())

    def test_fork_and_spawn_agree(self, monkeypatch):
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable on this platform")
        monkeypatch.setenv("REPRO_START_METHOD", "fork")
        forked = BatchAnalyzer(SPAWN_CONFIG, jobs=2).analyze(SPAWN_OPS)
        monkeypatch.setenv("REPRO_START_METHOD", "spawn")
        spawned = BatchAnalyzer(SPAWN_CONFIG, jobs=2).analyze(SPAWN_OPS)
        reference = reference_matrix(
            SPAWN_OPS,
            ConflictDetector(exhaustive_cap=4, compiler=PatternCompiler()),
        )
        assert list(forked.pairs()) == list(spawned.pairs())
        assert list(spawned.pairs()) == list(reference.pairs())
