"""Bit-parallel automata kernel: the engine's one decision path.

The PTIME deciders of Section 4 bottom out in regular-language questions
over small alphabets — language-intersection reachability and the
joint shortest word.  This module represents NFA state sets as machine
integers: state ``i`` is bit ``1 << i``, a subset is one
arbitrary-precision ``int``, a nondeterministic step is an OR of
per-state target masks, and subset union/intersection are single
``|``/``&`` operations.  Python ints are unbounded, so automata spanning
64-bit word boundaries (63/64/65 states) need no special casing — the
word-boundary tests in ``tests/test_bitkernel.py`` pin this down.

Because a linear pattern's matching NFA (:func:`linear_pattern_nfa`) has
transitions that are either *any-symbol* (wildcards, descendant-gap
loops) or labeled by one fixed symbol, its transition relation is
**alphabet independent**: a :class:`MaskTable` stores one ``any_rows``
vector plus sparse per-label rows, and the row for a concrete symbol is
``any_rows[i] | label_rows[symbol].get(i, 0)``.  Tables are therefore
precomputed once per pattern at compile time (the ``compile.bitmask``
artifact family of :class:`repro.compile.PatternCompiler`) and reused
across every alphabet a pattern pair induces.  Batch pool workers
inherit the parent's tables under ``fork`` and build their own on first
use under ``spawn``.

Two decision loops run on the tables:

* :func:`guarded_product_word` — BFS over pairs of determinized subsets
  in sorted-alphabet order with parent pointers, ending at the first
  pair that meets a caller's goal and pruning one side's *dead* states,
  so it returns the (length, lexicographically) least such word.  With
  "both sides accept" as the goal it is :func:`joint_shortest_word_bits`,
  whose word of the intersection is the one
  :meth:`repro.automata.nfa.NFA.shortest_accepted_word` finds on the
  eager NFA product; the Section 6 commutation rules for linear updates
  (:mod:`repro.conflicts.complex`) give it their own goals;
* :func:`bitset_matching_profile` — the one-pass dynamic program of the
  REMARK after Theorem 1: the ``(i, j)`` reachability of "trunk consumed
  ``i`` spine nodes, read consumed ``j``" packed into one integer, with
  whole frontiers advanced per shift.

Every loop keeps a cooperative budget checkpoint
(:func:`repro.resilience.budget.checkpoint`), so armed deadlines and step
limits degrade decisions to ``UNKNOWN``.  The independent oracles this
kernel is held to — the eager NFA product and brute-force witness
search — live in ``tests/test_bitkernel.py`` and
``tests/test_differential.py``.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Sequence

from repro.patterns.pattern import WILDCARD, Axis, TreePattern
from repro.resilience.budget import checkpoint
from repro.xml.tree import NodeId, XMLTree

__all__ = [
    "MaskTable",
    "BitsetAutomaton",
    "spine_spec",
    "joint_shortest_word_bits",
    "guarded_product_word",
    "bitset_matching_profile",
]

#: Spine spec entry: ``(label_or_wildcard, incoming_edge_is_descendant)``.
SpineSpec = tuple[tuple[str, bool], ...]


def spine_spec(pattern: TreePattern) -> SpineSpec:
    """The linear pattern's spine as ``(label, is_descendant)`` pairs.

    This is the only view of a pattern the kernel needs — the same
    projection :func:`repro.automata.matching.match_dp` works from.
    """
    pattern.require_linear("bitset kernel operand")
    return tuple(
        (pattern.label(node), pattern.axis(node) is Axis.DESCENDANT)
        for node in pattern.spine()
    )


class MaskTable:
    """Alphabet-independent bitmask transition tables of one matching NFA.

    State ``i`` owns bit ``1 << i``.  ``any_rows[i]`` is the target mask
    of state ``i`` under *every* symbol (wildcard and descendant-gap
    edges); ``label_rows[label][i]`` adds the targets reached from ``i``
    on that specific label.  The full row for a concrete symbol is the OR
    of the two, so one table serves every alphabet.
    """

    def __init__(
        self,
        size: int,
        start: int,
        accepting: int,
        any_rows: Sequence[int],
        label_rows: dict[str, dict[int, int]],
    ) -> None:
        self.size = size
        self.start = start
        self.accepting = accepting
        self.any_rows = tuple(any_rows)
        self.label_rows = {
            label: dict(rows) for label, rows in label_rows.items()
        }

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_pattern(cls, pattern: TreePattern) -> "MaskTable":
        """The table of :func:`linear_pattern_nfa`, built without the NFA.

        State numbering mirrors the NFA builder exactly (target before
        the optional descendant-loop state), so ``from_pattern(p)`` and
        ``from_nfa(linear_pattern_nfa(p, alphabet))`` agree on every
        symbol of every alphabet — a pinned test property.
        """
        pattern.require_linear("bitset kernel operand")
        any_rows: list[int] = [0]
        label_rows: dict[str, dict[int, int]] = {}

        def add_state() -> int:
            any_rows.append(0)
            return len(any_rows) - 1

        def add_edge(source: int, label: str, target: int) -> None:
            if label == WILDCARD:
                any_rows[source] |= 1 << target
            else:
                rows = label_rows.setdefault(label, {})
                rows[source] = rows.get(source, 0) | (1 << target)

        current = 0
        accepting = 0
        spine = pattern.spine()
        for index, pnode in enumerate(spine):
            checkpoint("bitkernel.mask_build")
            label = pattern.label(pnode)
            target = add_state()
            if index == len(spine) - 1:
                accepting |= 1 << target
            if pattern.axis(pnode) is Axis.DESCENDANT:
                loop = add_state()
                any_rows[current] |= 1 << loop
                any_rows[loop] |= 1 << loop
                add_edge(loop, label, target)
            add_edge(current, label, target)
            current = target
        return cls(len(any_rows), 0, accepting, any_rows, label_rows)

    @classmethod
    def from_nfa(cls, nfa) -> "MaskTable":  # type: ignore[no-untyped-def]
        """The table of an explicit :class:`repro.automata.nfa.NFA`.

        No any-row compression is attempted — every transition lands in a
        per-label row.  Used by the test oracles to compare the bitset
        step against the set step on *arbitrary* automata, not just
        pattern-shaped ones.
        """
        if nfa.start is None:
            raise ValueError("cannot build masks for an NFA without a start")
        any_rows = [0] * nfa.state_count
        label_rows: dict[str, dict[int, int]] = {}
        for state in range(nfa.state_count):
            for symbol in nfa.alphabet:
                targets = nfa.successors(state, symbol)
                if not targets:
                    continue
                mask = 0
                for target in targets:
                    mask |= 1 << target
                rows = label_rows.setdefault(symbol, {})
                rows[state] = rows.get(state, 0) | mask
        accepting = 0
        for state in nfa.accepting:
            accepting |= 1 << state
        return cls(nfa.state_count, nfa.start, accepting, any_rows, label_rows)

    def with_any_suffix(self) -> "MaskTable":
        """The table for ``L(self)·(.)*`` — Definition 7's weak side.

        Mirrors :meth:`NFA.with_any_suffix`: a fresh accepting sink with
        an any-symbol self-loop, reachable from every accepting state on
        any symbol.
        """
        sink = self.size
        any_rows = list(self.any_rows) + [1 << sink]
        acc = self.accepting
        while acc:
            low = acc & -acc
            any_rows[low.bit_length() - 1] |= 1 << sink
            acc ^= low
        return MaskTable(
            self.size + 1,
            self.start,
            self.accepting | (1 << sink),
            any_rows,
            self.label_rows,
        )

    # ------------------------------------------------------------------
    # Rows
    # ------------------------------------------------------------------

    def rows(self, symbol: str | None) -> tuple[int, ...]:
        """The per-state target masks under one concrete symbol.

        ``None``, or any symbol without a label row, gets ``any_rows``.
        """
        labeled = self.label_rows.get(symbol)
        if not labeled:
            return self.any_rows
        return tuple(
            base | labeled.get(state, 0)
            for state, base in enumerate(self.any_rows)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MaskTable(size={self.size}, labels={len(self.label_rows)}, "
            f"accepting={bin(self.accepting)})"
        )


class BitsetAutomaton:
    """A :class:`MaskTable` plus memoized subset stepping.

    A lazily determinized view of the table's NFA: the working currency
    is the determinized subset-as-int, ``step`` ORs the target masks of
    every set bit and memoizes the result per ``(subset, symbol)``, so a
    compile-cached automaton warms across queries — repeated queries walk
    already-materialized transitions.
    """

    def __init__(self, table: MaskTable) -> None:
        self.table = table
        self.start_mask = 1 << table.start
        self.accepting = table.accepting
        self._rows: dict[str | None, tuple[int, ...]] = {}
        self._steps: dict[tuple[int, str | None], int] = {}

    def rows(self, symbol: str | None) -> tuple[int, ...]:
        rows = self._rows.get(symbol)
        if rows is None:
            rows = self.table.rows(symbol)
            self._rows[symbol] = rows
        return rows

    def step(self, subset: int, symbol: str | None) -> int:
        """The successor subset (``0`` is the dead state).

        ``symbol=None`` steps on the any-symbol rows alone, which is the
        step of every symbol without a label row of its own.
        """
        key = (subset, symbol)
        cached = self._steps.get(key)
        if cached is not None:
            return cached
        rows = self.rows(symbol)
        nxt = 0
        remaining = subset
        while remaining:
            low = remaining & -remaining
            nxt |= rows[low.bit_length() - 1]
            remaining ^= low
        self._steps[key] = nxt
        return nxt

    def accepts(self, word: Sequence[str]) -> bool:
        """Subset-simulation acceptance (the NFA-equivalence test hook)."""
        subset = self.start_mask
        for symbol in word:
            subset = self.step(subset, symbol)
            if not subset:
                return False
        return bool(subset & self.accepting)

    def select(self, tree: XMLTree, below: int | None = None) -> set[NodeId]:
        """The nodes of ``tree`` whose root-to-node label path is accepted.

        For the strong-side automaton of a linear pattern ``p`` without
        value tests this is ``[[p]](t)``: an embedding of a linear pattern
        is exactly a root-to-node path spelling a word of ``L(p)``.  One
        top-down walk (:meth:`XMLTree.fold_paths`) gives each node the
        subset ``step(parent_subset, label)``, selects it when the subset
        meets the accepting mask and skips its subtree when the subset is
        empty, so the cost is one memoized step per visited node.  Labels
        without a row of their own (document text, fresh witness labels)
        all step as ``None``, which keeps the step memo bounded by the
        pattern's labels rather than the documents'.

        ``below`` places ``tree`` as a subtree under a node whose path
        reached that subset — the nodes ``p`` selects in a copy of ``X``
        grafted there.  ``None`` (the default) reads ``tree`` as the
        whole document, from the start state.
        """
        label_rows = self.table.label_rows
        steps = self._steps

        def advance(subset: int, label: str) -> int:
            key = (subset, label if label in label_rows else None)
            below = steps.get(key)
            return self.step(*key) if below is None else below

        accepting = self.accepting
        start = self.start_mask if below is None else below
        return {
            node
            for node, subset in tree.fold_paths(start, advance)
            if subset & accepting
        }


# ----------------------------------------------------------------------
# The bitwise decision loops
# ----------------------------------------------------------------------


def joint_shortest_word_bits(
    left: BitsetAutomaton,
    right: BitsetAutomaton,
    alphabet: tuple[str, ...],
) -> list[str] | None:
    """A shortest word of ``L(left) ∩ L(right)``, or ``None`` when empty.

    BFS over pairs of determinized subsets, symbols tried in (sorted)
    alphabet order, parent pointers for reconstruction.  States are
    discovered in (length, lexicographic) order and the search stops at
    the first accepting discovery, so the result is the (length, lex)-least
    word — exactly the word the eager NFA product's
    :meth:`~repro.automata.nfa.NFA.shortest_accepted_word` returns, which
    the differential suite pins.  It is :func:`guarded_product_word`
    with "both sides accept" as the goal and nothing dead.
    """
    left_accepting, right_accepting = left.accepting, right.accepting
    return guarded_product_word(
        left,
        right,
        alphabet,
        lambda ls, rs: bool(ls & left_accepting and rs & right_accepting),
    )


def guarded_product_word(
    left: BitsetAutomaton,
    right: BitsetAutomaton,
    alphabet: tuple[str, ...],
    goal: Callable[[int, int], bool],
    dead: int = 0,
) -> list[str] | None:
    """A shortest word whose subset pair meets ``goal``, or ``None``.

    BFS over pairs of determinized subsets in alphabet order, with parent
    pointers for reconstruction; the first discovered pair meeting
    ``goal(left_subset, right_subset)`` ends the walk, so the word is the
    (length, lex)-least one.  A pair whose right subset meets the
    ``dead`` mask is pruned — no word through it is extended or returned
    — and so is a pair with an empty subset on either side, so ``goal``
    only ever sees live subsets and must be false on an empty one.  The
    reachable pairs are finite, so ``None`` is exact: no word of any
    length meets the goal.  A cooperative budget checkpoint per expanded
    pair keeps pathological products abortable.
    """
    shift = right.table.size
    left_start, right_start = left.start_mask, right.start_mask
    if right_start & dead:
        return None
    if goal(left_start, right_start):
        return []
    parent: dict[int, tuple[int, str]] = {}
    seen = {(left_start << shift) | right_start}
    queue: deque[tuple[int, int]] = deque([(left_start, right_start)])
    while queue:
        checkpoint("bitkernel.product")
        ls, rs = queue.popleft()
        source = (ls << shift) | rs
        for symbol in alphabet:
            lt = left.step(ls, symbol)
            if not lt:
                continue
            rt = right.step(rs, symbol)
            if not rt or rt & dead:
                continue
            target = (lt << shift) | rt
            if target in seen:
                continue
            parent[target] = (source, symbol)
            if goal(lt, rt):
                word: list[str] = []
                while target in parent:
                    target, symbol = parent[target]
                    word.append(symbol)
                word.reverse()
                return word
            seen.add(target)
            queue.append((lt, rt))
    return None


def bitset_matching_profile(
    left: SpineSpec, right: SpineSpec
) -> tuple[set[int], set[int]]:
    """Weak/strong match status of every read-spine prefix, in one pass.

    Returns ``(strong, weak)`` — the prefix lengths ``j`` (counted in
    nodes, ``1 <= j <= len(right)``) such that the ``left`` trunk matches
    the ``right`` read's spine through its ``j``-th node strongly resp.
    weakly (Definition 7).

    The DP state ``(i, j)`` — trunk consumed ``i`` spine nodes of a
    hypothetical witness chain, the read consumed ``j`` — becomes bit
    ``i * (n + 1) + j`` of a single integer, and one fixpoint round
    advances the *whole* frontier per symbol class with three shifts
    (both-consume ``<< n + 2``, left-only ``<< n + 1``, right-only
    ``<< 1``).  A side may skip a chain symbol only while its pending
    edge is a descendant edge (or it has finished).  ``strong[j]`` is
    recorded when a step consumes the final trunk node and the ``j``-th
    read node together; ``weak[j]`` adds every reachable ``(i, j)`` with
    the trunk unfinished, whose rest can always be completed below the
    read's ``j``-th node.  The state space is ``O(|trunk| · |read|)``.
    """
    m, n = len(left), len(right)
    width = n + 1

    def bit(i: int, j: int) -> int:
        return 1 << (i * width + j)

    # Whole-row / whole-column masks, built once: ``row[i]`` covers every
    # j at trunk position i, ``col_unit << j`` covers every i at read
    # position j.  Fit and gap vectors below are then O(m + n) ORs of
    # these instead of per-cell bit loops.
    full_row = (1 << width) - 1
    rows = [full_row << (i * width) for i in range(m + 1)]
    col_unit = ((1 << ((m + 1) * width)) - 1) // full_row  # bit j=0, every i

    # Static gap masks: positions whose *pending* edge is a descendant
    # edge may let the other side consume a chain symbol alone.
    left_gap_rows = 0
    for i in range(1, m):
        if left[i][1]:
            left_gap_rows |= rows[i]
    right_gap_cols = 0
    for j in range(1, n):
        if right[j][1]:
            right_gap_cols |= col_unit << j
    last_col = col_unit << n
    last_row = rows[m]

    # One transition-mask triple per symbol *class* — all labels sharing
    # a fit vector on both spines step identically, and the spare symbol
    # of the matching alphabet is exactly the wildcard-only class.
    labels = {spec[0] for spec in left if spec[0] != WILDCARD}
    labels |= {spec[0] for spec in right if spec[0] != WILDCARD}
    classes: dict[tuple[int, int], tuple[int, int, int]] = {}
    for symbol in tuple(sorted(labels)) + (None,):  # None: the spare class
        left_fit = 0  # rows whose next trunk node accepts this symbol
        for i in range(m):
            if left[i][0] == WILDCARD or left[i][0] == symbol:
                left_fit |= rows[i]
        right_fit = 0  # columns whose next read node accepts this symbol
        for j in range(n):
            if right[j][0] == WILDCARD or right[j][0] == symbol:
                right_fit |= col_unit << j
        key = (left_fit, right_fit)
        if key in classes:
            continue
        both = left_fit & right_fit
        left_only = left_fit & (last_col | right_gap_cols)
        right_only = right_fit & (last_row | left_gap_rows)
        classes[key] = (both, left_only, right_only)

    masks = tuple(classes.values())
    reach = bit(0, 0)
    frontier = reach
    while frontier:
        checkpoint("bitkernel.profile")
        advanced = 0
        for both, left_only, right_only in masks:
            advanced |= (frontier & both) << (width + 1)
            advanced |= (frontier & left_only) << width
            advanced |= (frontier & right_only) << 1
        frontier = advanced & ~reach
        reach |= frontier

    strong: set[int] = set()
    final_trunk_row = 0
    for j in range(width):
        final_trunk_row |= bit(m - 1, j)
    for both, _left_only, _right_only in masks:
        hits = reach & both & final_trunk_row
        while hits:
            low = hits & -hits
            strong.add(low.bit_length() - 1 - (m - 1) * width + 1)
            hits ^= low
    weak: set[int] = set(strong)
    unfinished = reach & ~last_row & ~col_unit
    while unfinished:
        low = unfinished & -unfinished
        weak.add((low.bit_length() - 1) % width)
        unfinished ^= low
    return strong, weak
