"""NFA subset simulation: the test oracle for the bitset decision kernel.

These helpers answer Definition 7's matching questions the way Section
4.1 states them — explicit NFAs, the eager product automaton, a BFS over
its determinized subsets — sharing nothing with the kernel but the
pattern model.  The other oracle, brute-force witness search checked by
Lemma 1, is :func:`repro.conflicts.general.find_witness_exhaustive`.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.automata.matching import linear_pattern_nfa, matching_alphabet
from repro.compile.compiler import PatternCompiler
from repro.operations.ops import Delete, Insert, Read
from repro.patterns.embedding import embeds_at
from repro.patterns.pattern import Axis, TreePattern


def nfa_product_word(
    left: TreePattern, right: TreePattern, weak: bool
) -> list[str] | None:
    """The shortest weak/strong matching word via the eager NFA product."""
    alphabet = matching_alphabet(left, right)
    left_nfa = linear_pattern_nfa(left, alphabet)
    right_nfa = linear_pattern_nfa(right, alphabet)
    if weak:
        right_nfa = right_nfa.with_any_suffix()
    return left_nfa.intersect(right_nfa).shortest_accepted_word()


def nfa_profile(
    trunk: TreePattern, read: TreePattern
) -> tuple[frozenset[int], frozenset[int]]:
    """The matching profile from one NFA product per read-spine prefix."""
    prefixes = [read.seq_root_to(node) for node in read.spine()]

    def lengths(weak: bool) -> frozenset[int]:
        return frozenset(
            length
            for length, prefix in enumerate(prefixes, 1)
            if nfa_product_word(trunk, prefix, weak) is not None
        )

    return lengths(False), lengths(True)


#: ``matches(left, right, weak)`` decides weak/strong matching; a word
#: or ``None`` serves too, since matching words are never empty.
Matcher = Callable[[TreePattern, TreePattern, bool], object]


def per_edge_read_delete(
    read: Read, delete: Delete, matches: Matcher = nfa_product_word
) -> bool:
    """Lemma 3 edge by edge, one matching question per read edge."""
    rp = read.pattern
    trunk = delete.pattern.trunk()
    spine = rp.spine()
    for upper, lower in zip(spine, spine[1:]):
        if rp.axis(lower) is Axis.DESCENDANT:
            prefix, weak = rp.seq_root_to(upper), True
        else:
            prefix, weak = rp.seq_root_to(lower), False
        if matches(trunk, prefix, weak):
            return True
    return False


def per_edge_read_insert(
    read: Read, insert: Insert, matches: Matcher = nfa_product_word
) -> bool:
    """Lemma 6 edge by edge: a matching prefix plus a suffix embedding in X."""
    rp = read.pattern
    trunk = insert.pattern.trunk()
    x = insert.subtree
    spine = rp.spine()
    for upper, lower in zip(spine, spine[1:]):
        descendant = rp.axis(lower) is Axis.DESCENDANT
        if not matches(trunk, rp.seq_root_to(upper), descendant):
            continue
        suffix = rp.seq(lower, rp.output)
        if descendant:
            if embeds_at(suffix, x, anywhere=True):
                return True
        elif embeds_at(suffix, x, root_at=x.root):
            return True
    return False


class NFAOracleCompiler(PatternCompiler):
    """The production compiler with every matching word and profile
    taken from the eager NFA product instead of the bitset kernel."""

    def _matching_word(self, left, right, weak):  # type: ignore[no-untyped-def]
        return nfa_product_word(self.as_pattern(left), self.as_pattern(right), weak)

    def matching_profile(self, trunk, read):  # type: ignore[no-untyped-def]
        return nfa_profile(self.as_pattern(trunk), self.as_pattern(read))
