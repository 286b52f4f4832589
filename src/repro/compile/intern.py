"""Pattern canonicalization and interning.

:class:`~repro.patterns.pattern.TreePattern` is mutable and hashes by
its canonical form, a string as long as the pattern (memoized until the
next mutation), so it makes a poor memo key: every lookup hashes and
compares that string, and a caller mutating the pattern afterwards
would silently re-key the entry.  The interner fixes that by mapping
each *canonical form* to one immutable-by-contract
:class:`InternedPattern` whose identity is the triple
``(interner, generation, ident)`` — which hashes in constant time.

Identity rules (these are what make interned keys safe to embed in
longer-lived caches, e.g. the compiler's own memo tables):

* **idents are monotonic within a generation** — an entry evicted from
  the intern table and later re-interned receives a *fresh* ident, so a
  stale key held by a downstream cache can never alias the new entry;
* **reset bumps the generation** — :meth:`PatternInterner.reset` starts
  a new generation (and only then restarts the ident counter), so keys
  minted before a reset compare unequal to every key minted after it;
* **identities never cross interners** — the owning interner is part of
  equality, so keys from a detector-private compiler can never collide
  with keys from the process-global one.

The interned object carries a private :meth:`~TreePattern.copy` of the
pattern (callers may mutate their original after interning) plus the
precomputed label set, spine length, and linearity flag the compile
layer consults on every decision.
"""

from __future__ import annotations

import threading

from repro.compile.cache import MISS, LRUCache
from repro.obs.metrics import MetricsRegistry
from repro.patterns.pattern import TreePattern

__all__ = ["InternedPattern", "PatternInterner"]


class InternedPattern:
    """One canonical pattern with a constant-time cache identity.

    ``pattern`` is the interner's private copy — treat it as read-only.
    Equality and hashing use ``(owner, generation, ident)`` only; the
    canonical form is available as :attr:`key` for interop with
    string-keyed caches (e.g.
    :class:`repro.conflicts.verdict_cache.VerdictCache`).
    """

    __slots__ = ("pattern", "key", "ident", "generation", "owner",
                 "labels", "is_linear", "spine_len")

    def __init__(
        self,
        pattern: TreePattern,
        key: str,
        ident: int,
        generation: int,
        owner: "PatternInterner",
    ) -> None:
        self.pattern = pattern
        self.key = key
        self.ident = ident
        self.generation = generation
        self.owner = owner
        self.labels: frozenset[str] = frozenset(pattern.labels())
        self.is_linear: bool = pattern.is_linear
        self.spine_len: int = len(pattern.spine())

    @property
    def size(self) -> int:
        return self.pattern.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InternedPattern):
            return NotImplemented
        return (
            self.owner is other.owner
            and self.generation == other.generation
            and self.ident == other.ident
        )

    def __hash__(self) -> int:
        return hash((id(self.owner), self.generation, self.ident))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InternedPattern(gen={self.generation}, ident={self.ident}, "
            f"key={self.key!r})"
        )


class PatternInterner:
    """A bounded table mapping canonical forms to interned patterns."""

    def __init__(
        self, maxsize: int, registry: MetricsRegistry | None = None
    ) -> None:
        self._cache = LRUCache(maxsize, registry, family="compile.intern")
        self._generation = 0
        self._next_ident = 0
        # Interning must be atomic: two threads racing the same miss would
        # otherwise both read ``_next_ident`` and mint *duplicate* idents
        # for different patterns, aliasing downstream identity-keyed memos.
        # The conflict service shares one process-global compiler across
        # its handler threads, so this is a live concern, not a theoretical
        # one.  The lock is held only on the intern/reset paths — per-query
        # traffic, never inside a matching loop.
        self._lock = threading.Lock()

    @property
    def generation(self) -> int:
        """The current generation (bumped by every :meth:`reset`)."""
        return self._generation

    @property
    def cache(self) -> LRUCache:
        return self._cache

    def intern(self, pattern: "TreePattern | InternedPattern") -> InternedPattern:
        """The interned form of ``pattern`` (idempotent on interned input).

        A pattern interned by this interner in the current generation is
        returned as-is — even after eviction, its ident stays valid
        (monotonic idents never alias).  Anything else (a raw pattern, a
        pre-reset key, another interner's key) is (re-)interned from its
        canonical form.
        """
        if isinstance(pattern, InternedPattern):
            if pattern.owner is self and pattern.generation == self._generation:
                return pattern
            pattern = pattern.pattern
        key = pattern.canonical_form()
        with self._lock:
            hit = self._cache.get(key)
            if hit is not MISS:
                return hit
            interned = InternedPattern(
                pattern.copy(), key, self._next_ident, self._generation, self
            )
            self._next_ident += 1  # monotonic: an evicted key is never reissued
            self._cache.put(key, interned)
            return interned

    def reset(self) -> None:
        """Start a fresh generation, invalidating every outstanding key."""
        with self._lock:
            self._generation += 1
            self._next_ident = 0
            self._cache.clear()

    def __len__(self) -> int:
        return len(self._cache)
