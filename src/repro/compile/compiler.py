"""The compile-once layer for the hot PTIME decision path.

Batch workloads repeat a small set of unique patterns across thousands
of pairs, yet the Section 4 decision procedures re-derive the same
artifacts — the update trunk ``SEQ_{ROOT(D)}^{O(D)}``, the patterns'
matching automata, weak/strong intersection products, per-edge cut-edge
scans — on every call.  :class:`PatternCompiler` owns those artifacts:

* patterns are canonicalized and **interned** once
  (:mod:`repro.compile.intern`), giving every downstream memo a
  constant-time key;
* each unique linear pattern is compiled once per weak/strong side to a
  bit-parallel matcher (:class:`repro.automata.bitkernel.BitsetAutomaton`
  over an alphabet-independent
  :class:`~repro.automata.bitkernel.MaskTable`), so every product or
  profile question becomes bitwise AND/OR/shift loops;
* trunk extraction, spine prefixes/suffixes (each derived on first
  use), leaf chains, matching words (intersection products), matching
  profiles, and cut-edge scans are memoized in bounded LRU caches
  (:mod:`repro.compile.cache`), with
  ``compile.<family>.{hits,misses,evictions}`` counters in the metrics
  registry.

This is the engine's one decision path.  Its independent test oracles —
the eager NFA product (:class:`repro.automata.nfa.NFA`) and brute-force
witness search checked by Lemma 1 — live in the differential suite
(``tests/test_differential.py``), not here.

Process-global sharing: :func:`global_compiler` returns one process-wide
instance (counters land in :func:`repro.obs.global_metrics`); a detector
that needs a private cache takes one explicitly
(``ConflictDetector(compiler=PatternCompiler(...))``).
"""

from __future__ import annotations

from collections.abc import Callable

from repro.automata.bitkernel import (
    BitsetAutomaton,
    MaskTable,
    bitset_matching_profile,
    joint_shortest_word_bits,
    spine_spec,
)
from repro.compile.cache import MISS, LRUCache
from repro.compile.intern import InternedPattern, PatternInterner
from repro.obs import enabled as obs_enabled
from repro.obs import global_metrics, span
from repro.obs.metrics import MetricsRegistry
from repro.patterns.pattern import TreePattern, fresh_label

__all__ = [
    "DEFAULT_CACHE_SIZE",
    "PatternCompiler",
    "global_compiler",
    "reset_global_compiler",
]

#: Default entries per memo family (intern table, mask tables, words, ...).
DEFAULT_CACHE_SIZE = 1024

#: Union of the two pattern handles the compiler accepts everywhere.
PatternLike = TreePattern | InternedPattern


class PatternCompiler:
    """Interning, automaton compilation, and decision-artifact memos."""

    def __init__(
        self,
        maxsize: int = DEFAULT_CACHE_SIZE,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self._interner = PatternInterner(maxsize, registry)
        self._bitmask = LRUCache(maxsize, registry, family="compile.bitmask")
        self._match = LRUCache(maxsize, registry, family="compile.match")
        self._profile = LRUCache(maxsize, registry, family="compile.profile")
        self._derived = LRUCache(maxsize, registry, family="compile.derived")
        self._edge = LRUCache(maxsize, registry, family="compile.edge")

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------

    @property
    def generation(self) -> int:
        """Intern-table generation (bumped by every :meth:`reset`)."""
        return self._interner.generation

    def intern(self, pattern: PatternLike) -> InternedPattern:
        """Intern ``pattern``: the constant-time key of every memo family."""
        return self._interner.intern(pattern)

    @staticmethod
    def as_pattern(handle: PatternLike) -> TreePattern:
        """The raw :class:`TreePattern` behind either kind of handle."""
        return handle.pattern if isinstance(handle, InternedPattern) else handle

    def reset(self) -> None:
        """Drop every compiled artifact and start a fresh generation.

        Outstanding :class:`InternedPattern` keys become permanently
        stale (they compare unequal to everything minted afterwards), so
        downstream caches keyed on them can never serve aliased entries.
        """
        self._interner.reset()
        for cache in self._caches():
            cache.clear()

    def _caches(self) -> list[LRUCache]:
        return [
            self._interner.cache, self._bitmask,
            self._match, self._profile, self._derived, self._edge,
        ]

    def stats(self) -> dict[str, dict[str, int]]:
        """Per-family ``{hits, misses, evictions, size, maxsize}``."""
        return {cache.family: cache.stats() for cache in self._caches()}

    # ------------------------------------------------------------------
    # Derived patterns: trunk, spine prefixes and suffixes, leaf chains
    # ------------------------------------------------------------------

    def _derive(self, key: tuple, build: Callable[[], object]):  # type: ignore[no-untyped-def]
        """The ``compile.derived`` entry ``key``; ``build`` runs on miss only."""
        hit = self._derived.get(key)
        if hit is not MISS:
            return hit
        value = build()
        self._derived.put(key, value)
        return value

    def trunk(self, pattern: PatternLike) -> InternedPattern:
        """``SEQ_{ROOT(p)}^{O(p)}`` — interned and memoized."""
        p = self.intern(pattern)
        return self._derive(
            (p, "trunk"), lambda: self.intern(p.pattern.trunk())
        )

    def spine_prefix(self, read: PatternLike, index: int) -> InternedPattern:
        """``SEQ_ROOT(R)`` through the ``index``-th spine node.

        Derived on first use, one pattern per ``(read, index)``: a
        decision reads only the prefixes of the edges it reports.
        """
        r = self.intern(read)
        rp = r.pattern
        return self._derive(
            (r, "prefix", index),
            lambda: self.intern(rp.seq_root_to(rp.spine()[index])),
        )

    def spine_suffix(self, read: PatternLike, index: int) -> InternedPattern:
        """``SEQ`` from the ``index``-th spine node down to the output.

        Derived on first use, like :meth:`spine_prefix`.
        """
        r = self.intern(read)
        rp = r.pattern
        return self._derive(
            (r, "suffix", index),
            lambda: self.intern(rp.seq(rp.spine()[index], rp.output)),
        )

    def leaf_chains(self, read: PatternLike) -> tuple[InternedPattern, ...]:
        """``SEQ_ROOT(R)^ℓ`` for every leaf ``ℓ`` of ``read``, in preorder.

        The linear chains a branching read is decided by (the trunk
        prefilter and the chain rule of :mod:`repro.conflicts.general`).
        """
        r = self.intern(read)
        rp = r.pattern
        return self._derive(
            (r, "leaf_chains"),
            lambda: tuple(
                self.intern(rp.seq_root_to(node))
                for node in rp.preorder()
                if not rp.children(node)
            ),
        )

    # ------------------------------------------------------------------
    # Automata
    # ------------------------------------------------------------------

    def bitset_automaton(
        self, pattern: PatternLike, weak: bool
    ) -> BitsetAutomaton:
        """The pattern's bit-parallel matcher, per weak/strong side.

        The ``weak`` side matches ``L(p)·(.)*`` (the suffixed automaton of
        Definition 7's weak matching); the strong side matches ``L(p)``
        itself.  Mask tables are **alphabet independent** (a linear
        pattern's NFA only has any-symbol and single-label transitions),
        so the memo key is just ``(pattern, weak)`` — one artifact serves
        every alphabet the pattern ever meets, and its memoized subset
        steps warm across queries.  The weak side reuses the cached
        strong table (one extra sink state, not a rebuild).
        """
        p = self.intern(pattern)
        key = (p, weak)
        hit = self._bitmask.get(key)
        if hit is not MISS:
            return hit
        if weak:
            table = self.bitset_automaton(p, False).table.with_any_suffix()
        else:
            table = MaskTable.from_pattern(p.pattern)
        automaton = BitsetAutomaton(table)
        if obs_enabled():
            global_metrics().inc("bitkernel.tables_built")
        self._bitmask.put(key, automaton)
        return automaton

    def alphabet(
        self, left: PatternLike, right: PatternLike
    ) -> tuple[str, ...]:
        """``Σ_l ∪ Σ_{l'}`` plus one spare symbol (cf. ``matching_alphabet``)."""
        labels = self.intern(left).labels | self.intern(right).labels
        return tuple(sorted(labels | {fresh_label(labels)}))

    # ------------------------------------------------------------------
    # Matching (Definition 7) — the intersection-product memo
    # ------------------------------------------------------------------

    def matching_word(
        self, left: PatternLike, right: PatternLike, weak: bool
    ) -> list[str] | None:
        """The shortest weak/strong matching witness word, or ``None``.

        Same contract as :func:`repro.automata.matching.matching_word`
        (which delegates here via the global compiler), including the
        gated ``matching.word`` tracing span.
        """
        if not obs_enabled():
            return self._matching_word(left, right, weak)
        lp, rp = self.as_pattern(left), self.as_pattern(right)
        with span(
            "matching.word", left_size=lp.size, right_size=rp.size, weak=weak
        ) as sp:
            word = self._matching_word(left, right, weak)
            global_metrics().inc("matching.words_computed")
            sp.set("found", word is not None)
            return word

    def _matching_word(
        self, left: PatternLike, right: PatternLike, weak: bool
    ) -> list[str] | None:
        li, ri = self.intern(left), self.intern(right)
        key = (li, ri, weak)
        hit = self._match.get(key)
        if hit is not MISS:
            return None if hit is None else list(hit)
        word = joint_shortest_word_bits(
            self.bitset_automaton(li, False),
            self.bitset_automaton(ri, weak),
            self.alphabet(li, ri),
        )
        self._match.put(key, None if word is None else tuple(word))
        return word

    def match(self, left: PatternLike, right: PatternLike, weak: bool) -> bool:
        """Decision form of :meth:`matching_word` (sharing its memo)."""
        return self.matching_word(left, right, weak) is not None

    def matching_profile(
        self, trunk: PatternLike, read: PatternLike
    ) -> tuple[frozenset[int], frozenset[int]]:
        """Memoized weak/strong match status of every read-spine prefix.

        Returns ``(strong, weak)`` — the prefix lengths ``j`` (counted in
        nodes, ``1 <= j <= |spine(read)|``) such that the trunk matches
        ``SEQ_ROOT(R)`` through the ``j``-th spine node strongly resp.
        weakly (Definition 7).  One packed-frontier fixpoint
        (:func:`repro.automata.bitkernel.bitset_matching_profile`) answers
        every prefix at once — the dynamic program the paper's REMARK
        after Theorem 1 suggests in place of one product per read edge.
        """
        ti, ri = self.intern(trunk), self.intern(read)
        key = (ti, ri)
        hit = self._profile.get(key)
        if hit is not MISS:
            return hit
        ti.pattern.require_linear("update trunk")
        ri.pattern.require_linear("read pattern")
        strong, weak = bitset_matching_profile(
            spine_spec(ti.pattern), spine_spec(ri.pattern)
        )
        value = (frozenset(strong), frozenset(weak))
        self._profile.put(key, value)
        return value

    def edge_scan(
        self,
        tag: str,
        read: PatternLike,
        trunk: PatternLike,
        compute: Callable[[], object],
    ):  # type: ignore[no-untyped-def]
        """Memoized per-(read, trunk) edge-scan result.

        The conflict algorithms store their Lemma 3 / Lemma 6 edge scans
        here keyed by spine position (node *indices*, not node ids, so
        the memo transfers between structurally identical patterns).
        ``compute`` runs on miss only.
        """
        key = (tag, self.intern(read), self.intern(trunk))
        hit = self._edge.get(key)
        if hit is not MISS:
            return hit
        value = compute()
        self._edge.put(key, value)
        return value

    # ------------------------------------------------------------------
    # Batch interop: precompiling operand sets
    # ------------------------------------------------------------------

    def precompile(self, op) -> None:  # type: ignore[no-untyped-def]
        """Compile one operation's pattern-side artifacts up front.

        ``op`` is any :data:`repro.conflicts.batch.Operation`.  Its
        pattern is interned, and an update gets its trunk extracted.
        Spine prefixes and suffixes are left to the decisions that read
        them (:meth:`spine_prefix`).  Idempotent and cheap when already
        warm.
        """
        interned = self.intern(op.pattern)
        if type(op).__name__ != "Read":
            self.trunk(interned)


# ----------------------------------------------------------------------
# Process-global default instance
# ----------------------------------------------------------------------

_GLOBAL: PatternCompiler | None = None


def global_compiler() -> PatternCompiler:
    """The process-wide compiler (counters go to the global registry)."""
    global _GLOBAL
    if _GLOBAL is None:
        _GLOBAL = PatternCompiler(registry=global_metrics())
    return _GLOBAL


def reset_global_compiler() -> None:
    """Reset the process-wide compiler (tests, benchmark isolation).

    Bumps its intern generation, so memos keyed on interned identity
    can never serve entries minted before the reset.
    """
    if _GLOBAL is not None:
        _GLOBAL.reset()
