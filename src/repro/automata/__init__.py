"""Finite-automaton substrate and linear-pattern matching (Definition 7).

The matching questions run on the bit-parallel kernel
(:mod:`repro.automata.bitkernel`) behind the compile cache
(:class:`repro.compile.PatternCompiler`).  The explicit-transition
:class:`~repro.automata.nfa.NFA` and :func:`linear_pattern_nfa` remain as
the independent subset-simulation oracle the test suite holds the kernel
to, and :func:`match_dp` as an automaton-free cross-check.
"""

from repro.automata.bitkernel import (
    BitsetAutomaton,
    MaskTable,
    bitset_matching_profile,
    joint_shortest_word_bits,
    spine_spec,
)
from repro.automata.matching import (
    linear_pattern_nfa,
    match_dp,
    match_strongly,
    match_weakly,
    matching_alphabet,
    matching_word,
)
from repro.automata.nfa import NFA

__all__ = [
    "NFA",
    "MaskTable",
    "BitsetAutomaton",
    "joint_shortest_word_bits",
    "bitset_matching_profile",
    "spine_spec",
    "linear_pattern_nfa",
    "matching_alphabet",
    "matching_word",
    "match_strongly",
    "match_weakly",
    "match_dp",
]
