"""Weak and strong matching of linear patterns (Definition 7 of the paper).

Two linear patterns ``l`` and ``l'`` *match weakly* when some tree admits
embeddings of both such that ``E1(O(l))`` is the same node as, or a
descendant of, ``E2(O(l'))``; they *match strongly* when the output images
can coincide.  Matching is the primitive from which Section 4 builds both
PTIME conflict algorithms: a read-delete conflict is a weak/strong match of
the deletion against a read prefix (Lemma 3), and a read-insert *cut edge*
requires a weak/strong match of the insertion against a read prefix
(Lemma 6).

Because a witness to a match can be taken to be a *chain* (the path from
the root to the deeper output image), matching reduces to non-emptiness of
the intersection of two regular languages over the finite alphabet
``Σ_l ∪ Σ_{l'}``:

* ``r(root) = sym(root)``;
* child edge:       ``r(n) = r(parent) · sym(n)``;
* descendant edge:  ``r(n) = r(parent) · (.)* · sym(n)``;

with ``sym(n)`` the node's label, or ``(.)`` for a wildcard.  Then ``l``
and ``l'`` match **strongly** iff ``L(r_l) ∩ L(r_{l'}) ≠ ∅`` and **weakly**
iff ``L(r_l) ∩ L(r_{l'} · (.)*) ≠ ∅``.  The paper states this equivalence
("the proof is omitted for space"); our test-suite cross-validates it
against an independently written dynamic-programming matcher
(:func:`match_dp`) and against brute-force tree search.

The matching word (shortest element of the intersection) is returned on
request — it is exactly the label sequence of the witness chain that the
conflict algorithms extend into a full conflict witness tree.
"""

from __future__ import annotations

from functools import lru_cache

from repro.automata.nfa import NFA
from repro.obs import enabled as obs_enabled
from repro.obs import global_metrics
from repro.patterns.pattern import WILDCARD, Axis, PNodeId, TreePattern, fresh_label
from repro.resilience.budget import checkpoint

__all__ = [
    "matching_alphabet",
    "linear_pattern_nfa",
    "match_strongly",
    "match_weakly",
    "matching_word",
    "match_dp",
]


def matching_alphabet(left: TreePattern, right: TreePattern) -> tuple[str, ...]:
    """The finite alphabet ``Σ_l ∪ Σ_{l'}`` (plus one spare symbol).

    The spare symbol keeps the alphabet non-empty for all-wildcard patterns
    and gives wildcards a label that collides with neither pattern — both
    facts the paper uses implicitly when restricting ``Σ``.
    """
    labels = left.labels() | right.labels()
    spare = fresh_label(labels)
    return tuple(sorted(labels | {spare}))


def linear_pattern_nfa(pattern: TreePattern, alphabet: tuple[str, ...]) -> NFA:
    """Build the NFA for the regular expression ``R(O(l))`` of a linear pattern.

    The automaton accepts exactly the label sequences of chains
    ``root .. node`` into which the pattern embeds with its output at the
    final node.
    """
    pattern.require_linear("matching operand")
    nfa = NFA(alphabet)
    current = nfa.add_state(start=True)
    spine = pattern.spine()
    for index, pnode in enumerate(spine):
        checkpoint("matching.nfa_build")
        axis = pattern.axis(pnode)
        accepting = index == len(spine) - 1
        target = nfa.add_state(accepting=accepting)
        if axis is Axis.DESCENDANT:
            # (.)* before the node's own symbol: loop state consuming
            # arbitrary symbols, plus the direct (zero-gap) edge.
            loop = nfa.add_state()
            nfa.add_any_transitions(current, loop)
            nfa.add_any_transitions(loop, loop)
            _symbol_transitions(nfa, loop, pattern, pnode, target)
        _symbol_transitions(nfa, current, pattern, pnode, target)
        current = target
    # Per-inner-call instrument: NFA builds run many times per query, so
    # the counters only tick while observability is switched on (see
    # docs/OBSERVABILITY.md, "always-on vs gated instruments").
    if obs_enabled():
        metrics = global_metrics()
        metrics.inc("nfa.built")
        metrics.inc("nfa.states_built", nfa.state_count)
    return nfa


def _symbol_transitions(
    nfa: NFA, source: int, pattern: TreePattern, pnode: PNodeId, target: int
) -> None:
    label = pattern.label(pnode)
    if label == WILDCARD:
        nfa.add_any_transitions(source, target)
    else:
        nfa.add_transition(source, label, target)


def match_strongly(left: TreePattern, right: TreePattern) -> bool:
    """Definition 7: can the two output images coincide on some tree?"""
    return matching_word(left, right, weak=False) is not None


def match_weakly(left: TreePattern, right: TreePattern) -> bool:
    """Definition 7: can ``O(left)`` land on or below ``O(right)``?"""
    return matching_word(left, right, weak=True) is not None


def matching_word(
    left: TreePattern, right: TreePattern, weak: bool
) -> list[str] | None:
    """The shortest witness chain for a (weak or strong) match, or ``None``.

    The returned list is the top-down label sequence of a chain tree ``W``
    such that ``left`` embeds in ``W`` with its output at the final node,
    and ``right`` embeds with its output at the final node (strong) or at
    some node of the chain at or above it (weak).

    Delegates to the process-global :class:`repro.compile.PatternCompiler`,
    which runs the bit-parallel product, memoizes it per interned pattern
    pair, and carries the gated ``matching.word`` span.
    """
    from repro.compile.compiler import global_compiler

    return global_compiler().matching_word(left, right, weak)


def match_dp(left: TreePattern, right: TreePattern, weak: bool) -> bool:
    """Independent dynamic-programming decision of weak/strong matching.

    Ablation/diagnostic twin of :func:`matching_word` that never builds an
    automaton.  State ``(i, j, gl, gr)``: ``i``/``j`` spine positions still
    to be placed for the two patterns, with ``gl``/``gr`` recording whether
    the pending edge into the next node is a descendant edge (a "gap" that
    may absorb extra chain nodes).  The chain is generated lazily symbol by
    symbol; memoization bounds the state space polynomially.
    """
    alphabet = matching_alphabet(left, right)
    left_spine = [
        (left.label(n), left.axis(n) is Axis.DESCENDANT) for n in left.spine()
    ]
    right_spine = [
        (right.label(n), right.axis(n) is Axis.DESCENDANT) for n in right.spine()
    ]

    @lru_cache(maxsize=None)
    def reachable(i: int, j: int, gap_l: bool, gap_r: bool) -> bool:
        """Can we extend the chain so both patterns finish appropriately?

        ``i``/``j`` nodes of each spine remain unplaced; ``gap_l``/``gap_r``
        say whether the next placement may skip chain nodes (descendant
        edge pending).  Both done -> strong success.  Left done only fails
        (left's output would sit above right's).  Right done -> weak asks
        only that left can still finish.
        """
        if i == len(left_spine):
            if j == len(right_spine):
                return True
            return False
        if j == len(right_spine) and weak:
            # Right has finished; any completion of left keeps left's
            # output at or below right's.  Left can always finish (its own
            # pattern is satisfiable on a chain).
            return True
        # Choose the next chain symbol and which spines consume it.
        for symbol in alphabet:
            left_can = i < len(left_spine) and (
                left_spine[i][0] in (WILDCARD, symbol)
            )
            right_can = j < len(right_spine) and (
                right_spine[j][0] in (WILDCARD, symbol)
            )
            # Both consume.
            if left_can and right_can:
                if reachable(
                    i + 1,
                    j + 1,
                    i + 1 < len(left_spine) and left_spine[i + 1][1],
                    j + 1 < len(right_spine) and right_spine[j + 1][1],
                ):
                    return True
            # Only left consumes; right must be in a gap (or already done
            # in weak mode, handled above).
            if left_can and j < len(right_spine) and gap_r:
                if reachable(
                    i + 1,
                    j,
                    i + 1 < len(left_spine) and left_spine[i + 1][1],
                    True,
                ):
                    return True
            # Only right consumes; left must be in a gap.
            if right_can and i < len(left_spine) and gap_l:
                if reachable(
                    i,
                    j + 1,
                    True,
                    j + 1 < len(right_spine) and right_spine[j + 1][1],
                ):
                    return True
        return False

    left.require_linear("matching operand")
    right.require_linear("matching operand")
    return reachable(0, 0, False, False)
