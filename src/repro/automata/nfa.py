"""Nondeterministic finite automata over finite label alphabets.

Section 4.1 of the paper decides *weak* and *strong* matching of linear
patterns by building regular expressions from the patterns, intersecting
their languages, and testing emptiness.  This module supplies that
construction literally: a small explicit-transition NFA with product
construction, emptiness testing, and shortest-witness extraction.  The
engine decides on the bit-parallel kernel
(:mod:`repro.automata.bitkernel`); this NFA is the independent
subset-simulation oracle the test suite holds the kernel to, verdict for
verdict and witness word for witness word.

The alphabet is always finite here.  The paper justifies this (Section 4.1):
an infinite-alphabet witness can be relabeled into ``Σ_l ∪ Σ_{l'}``, because
only wildcard pattern nodes can map to symbols outside that set.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence

from repro.resilience.budget import checkpoint

__all__ = ["NFA"]


class NFA:
    """An NFA with integer states and explicit per-symbol transitions.

    States are created with :meth:`add_state`; transitions with
    :meth:`add_transition` (one symbol) or :meth:`add_any_transitions`
    (every symbol of the alphabet — the regex ``(.)``).
    """

    def __init__(self, alphabet: Iterable[str]) -> None:
        self.alphabet: tuple[str, ...] = tuple(sorted(set(alphabet)))
        if not self.alphabet:
            raise ValueError("NFA alphabet must be non-empty")
        self._transitions: list[dict[str, set[int]]] = []
        self.start: int | None = None
        self.accepting: set[int] = set()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_state(self, start: bool = False, accepting: bool = False) -> int:
        """Create a state; optionally mark it start and/or accepting."""
        state = len(self._transitions)
        self._transitions.append({})
        if start:
            self.start = state
        if accepting:
            self.accepting.add(state)
        return state

    def add_transition(self, source: int, symbol: str, target: int) -> None:
        """Add ``source --symbol--> target``."""
        if symbol not in self.alphabet:
            raise ValueError(f"symbol {symbol!r} not in alphabet")
        self._transitions[source].setdefault(symbol, set()).add(target)

    def add_any_transitions(self, source: int, target: int) -> None:
        """Add ``source --a--> target`` for every symbol ``a`` (regex ``(.)``)."""
        for symbol in self.alphabet:
            self._transitions[source].setdefault(symbol, set()).add(target)

    @property
    def state_count(self) -> int:
        """Number of states."""
        return len(self._transitions)

    def successors(self, state: int, symbol: str) -> set[int]:
        """States reachable from ``state`` on ``symbol``."""
        return self._transitions[state].get(symbol, set())

    # ------------------------------------------------------------------
    # Runs and decision procedures
    # ------------------------------------------------------------------

    def accepts(self, word: Sequence[str]) -> bool:
        """Standard subset-simulation acceptance test."""
        if self.start is None:
            raise ValueError("NFA has no start state")
        current = {self.start}
        for symbol in word:
            nxt: set[int] = set()
            for state in current:
                nxt |= self.successors(state, symbol)
            current = nxt
            if not current:
                return False
        return bool(current & self.accepting)

    def is_empty(self) -> bool:
        """True when the accepted language is empty (BFS reachability)."""
        return self.shortest_accepted_word() is None

    def shortest_accepted_word(self) -> list[str] | None:
        """The canonical shortest word in the language, or ``None`` when empty.

        BFS over *determinized subsets* with parent pointers, symbols in
        (sorted) alphabet order.  Determinizing makes each reachable
        subset correspond to exactly one word, so states are discovered
        in (length, lexicographic) order and the returned word is the
        (length, lex)-least accepted word — the same canonical witness
        the bitset kernel's
        :func:`repro.automata.bitkernel.joint_shortest_word_bits`
        produces.  (Per-state BFS cannot guarantee this: two states first
        reached by the *same* word may expand their successors in an
        order that inverts lexicographic order.)  The word is what the
        conflict algorithms turn into a witness chain, so canonicality
        here is what lets the test oracle demand the kernel's exact word.
        """
        if self.start is None:
            raise ValueError("NFA has no start state")
        start = frozenset({self.start})
        if self.start in self.accepting:
            return []
        parent: dict[frozenset[int], tuple[frozenset[int], str]] = {}
        queue: deque[frozenset[int]] = deque([start])
        seen = {start}
        while queue:
            subset = queue.popleft()
            for symbol in self.alphabet:
                targets: set[int] = set()
                for state in subset:
                    targets |= self.successors(state, symbol)
                if not targets:
                    continue
                frozen = frozenset(targets)
                if frozen in seen:
                    continue
                parent[frozen] = (subset, symbol)
                if targets & self.accepting:
                    word: list[str] = []
                    current = frozen
                    while current in parent:
                        current, sym = parent[current]
                        word.append(sym)
                    word.reverse()
                    return word
                seen.add(frozen)
                queue.append(frozen)
        return None

    # ------------------------------------------------------------------
    # Combinators
    # ------------------------------------------------------------------

    def intersect(self, other: "NFA") -> "NFA":
        """Product automaton recognizing ``L(self) ∩ L(other)``.

        The alphabets must agree; the matching layer guarantees this by
        constructing both automata over ``Σ_l ∪ Σ_{l'}``.
        """
        if self.alphabet != other.alphabet:
            raise ValueError("intersection requires identical alphabets")
        if self.start is None or other.start is None:
            raise ValueError("both NFAs need a start state")
        product = NFA(self.alphabet)
        index: dict[tuple[int, int], int] = {}

        def state_for(a: int, b: int) -> int:
            key = (a, b)
            if key not in index:
                index[key] = product.add_state(
                    start=(a == self.start and b == other.start),
                    accepting=(a in self.accepting and b in other.accepting),
                )
            return index[key]

        queue: deque[tuple[int, int]] = deque()
        state_for(self.start, other.start)
        queue.append((self.start, other.start))
        seen = {(self.start, other.start)}
        while queue:
            # Product construction is quadratic in states; a cooperative
            # budget checkpoint per expanded product state keeps
            # pathological intersections abortable (see repro.resilience).
            checkpoint("nfa.intersect")
            a, b = queue.popleft()
            source = state_for(a, b)
            for symbol in self.alphabet:
                for ta in self.successors(a, symbol):
                    for tb in other.successors(b, symbol):
                        target = state_for(ta, tb)
                        product.add_transition(source, symbol, target)
                        if (ta, tb) not in seen:
                            seen.add((ta, tb))
                            queue.append((ta, tb))
        return product

    def with_any_suffix(self) -> "NFA":
        """Automaton for ``L(self)·(.)*`` — used for *weak* matching.

        Adds a fresh accepting sink reachable from every accepting state on
        any symbol, with an any-symbol self-loop.
        """
        clone = NFA(self.alphabet)
        clone._transitions = [
            {symbol: set(targets) for symbol, targets in table.items()}
            for table in self._transitions
        ]
        clone.start = self.start
        clone.accepting = set(self.accepting)
        sink = clone.add_state(accepting=True)
        clone.add_any_transitions(sink, sink)
        for state in list(self.accepting):
            clone.add_any_transitions(state, sink)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NFA(states={self.state_count}, alphabet={len(self.alphabet)}, "
            f"accepting={len(self.accepting)})"
        )
