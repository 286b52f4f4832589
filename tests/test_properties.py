"""Property-based tests (hypothesis) for core invariants.

Strategies generate random unordered labeled trees and random patterns;
the properties are the load-bearing invariants of the paper's formalism:

* monotonicity of the positive pattern language under inserts/deletes,
* soundness of every reported conflict witness (Lemma 1 re-check),
* exactness of the linear commutation rules (checked witnesses, and no
  small tree refuting a commutation),
* canonical-form/isomorphism coherence,
* XPath round-tripping,
* matching implementations agreeing (NFA vs DP),
* Lemma 9's reparenting containment.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.automata.matching import match_dp, matching_word
from repro.conflicts.complex import (
    detect_update_update,
    find_commutativity_witness_exhaustive,
    is_commutativity_witness,
)
from repro.conflicts.linear import (
    detect_read_delete_linear,
    detect_read_insert_linear,
)
from repro.conflicts.semantics import (
    ConflictKind,
    Verdict,
    is_witness,
)
from repro.operations.ops import Delete, Insert, Read
from repro.patterns.embedding import evaluate, evaluate_bruteforce
from repro.patterns.pattern import WILDCARD, Axis, TreePattern
from repro.patterns.xpath import parse_xpath, to_xpath
from repro.xml.isomorphism import canonical_form, isomorphic
from repro.xml.tree import XMLTree

LABELS = ("a", "b", "c")


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

@st.composite
def trees(draw, max_nodes: int = 10) -> XMLTree:
    """Random labeled unordered tree with 1..max_nodes nodes."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    tree = XMLTree(draw(st.sampled_from(LABELS)))
    nodes = [tree.root]
    for _ in range(n - 1):
        parent = nodes[draw(st.integers(0, len(nodes) - 1))]
        nodes.append(tree.add_child(parent, draw(st.sampled_from(LABELS))))
    return tree


@st.composite
def linear_patterns(draw, max_len: int = 4) -> TreePattern:
    length = draw(st.integers(min_value=1, max_value=max_len))
    label_pool = LABELS + (WILDCARD,)
    pattern = TreePattern(draw(st.sampled_from(label_pool)))
    node = pattern.root
    for _ in range(length - 1):
        axis = draw(st.sampled_from((Axis.CHILD, Axis.DESCENDANT)))
        node = pattern.add_child(node, draw(st.sampled_from(label_pool)), axis)
    pattern.set_output(node)
    return pattern


@st.composite
def branching_patterns(draw, max_nodes: int = 5) -> TreePattern:
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    label_pool = LABELS + (WILDCARD,)
    pattern = TreePattern(draw(st.sampled_from(label_pool)))
    nodes = [pattern.root]
    for _ in range(n - 1):
        parent = nodes[draw(st.integers(0, len(nodes) - 1))]
        axis = draw(st.sampled_from((Axis.CHILD, Axis.DESCENDANT)))
        nodes.append(
            pattern.add_child(parent, draw(st.sampled_from(label_pool)), axis)
        )
    pattern.set_output(nodes[draw(st.integers(0, len(nodes) - 1))])
    return pattern


@st.composite
def linear_updates(draw):
    """A linear delete, or a linear insert whose tree may hold text."""
    pattern = draw(linear_patterns(max_len=3))
    if pattern.output != pattern.root and draw(st.booleans()):
        return Delete(pattern)
    subtree = draw(trees(max_nodes=2))
    if draw(st.booleans()):
        subtree.add_child(subtree.root, "#text:x")
    return Insert(pattern, subtree)


# ----------------------------------------------------------------------
# Tree / isomorphism properties
# ----------------------------------------------------------------------

class TestTreeProperties:
    @given(trees())
    def test_copy_is_equivalent(self, t):
        assert t.copy().equivalent(t)

    @given(trees())
    def test_validate_passes(self, t):
        t.validate()

    @given(trees())
    def test_canonical_form_invariant_under_copy(self, t):
        assert canonical_form(t) == canonical_form(t.copy())

    @given(trees(), st.sampled_from(LABELS))
    def test_adding_node_changes_form(self, t, label):
        before = canonical_form(t)
        t.add_child(t.root, label)
        assert canonical_form(t) != before

    @given(trees())
    def test_isomorphic_reflexive(self, t):
        assert isomorphic(t, t)

    @given(trees(max_nodes=6), trees(max_nodes=6))
    def test_isomorphism_agrees_with_canonical_forms(self, a, b):
        assert isomorphic(a, b) == (canonical_form(a) == canonical_form(b))


# ----------------------------------------------------------------------
# Pattern / evaluation properties
# ----------------------------------------------------------------------

class TestPatternProperties:
    @given(branching_patterns())
    def test_xpath_round_trip(self, p):
        assert parse_xpath(to_xpath(p)) == p

    @given(branching_patterns())
    def test_pattern_embeds_into_model(self, p):
        assert evaluate(p, p.model())

    @given(branching_patterns(max_nodes=4), trees(max_nodes=8))
    @settings(max_examples=60)
    def test_evaluator_matches_bruteforce(self, p, t):
        assert evaluate(p, t) == evaluate_bruteforce(p, t)

    @given(branching_patterns())
    def test_trunk_is_linear_prefix(self, p):
        trunk = p.trunk()
        assert trunk.is_linear
        assert trunk.size == len(p.spine())

    @given(branching_patterns(), trees(max_nodes=8))
    def test_trunk_evaluation_superset(self, p, t):
        """Dropping side branches can only widen the result (Lemma 4's core)."""
        assert evaluate(p, t) <= evaluate(p.trunk(), t)


# ----------------------------------------------------------------------
# Operation monotonicity
# ----------------------------------------------------------------------

class TestOperationProperties:
    @given(linear_patterns(), linear_patterns(max_len=3), trees(max_nodes=8))
    @settings(max_examples=60)
    def test_insert_monotone(self, read_p, ins_p, t):
        read = Read(read_p)
        insert = Insert(ins_p, XMLTree("c"))
        before = read.apply(t)
        after = read.apply(insert.apply(t).tree)
        assert after >= before

    @given(linear_patterns(), linear_patterns(max_len=3), trees(max_nodes=8))
    @settings(max_examples=60)
    def test_delete_antitone(self, read_p, del_p, t):
        if del_p.output == del_p.root:
            return  # not a legal deletion pattern
        read = Read(read_p)
        delete = Delete(del_p)
        before = read.apply(t)
        after = read.apply(delete.apply(t).tree)
        assert after <= before

    @given(linear_patterns(max_len=3), trees(max_nodes=8))
    def test_insert_preserves_original_ids(self, ins_p, t):
        insert = Insert(ins_p, XMLTree("x"))
        result = insert.apply(t)
        assert set(t.nodes()) <= set(result.tree.nodes())


# ----------------------------------------------------------------------
# Conflict-engine properties
# ----------------------------------------------------------------------

class TestConflictProperties:
    @given(linear_patterns(), linear_patterns(max_len=3))
    @settings(max_examples=60, deadline=None)
    def test_insert_witnesses_verify(self, read_p, ins_p):
        read = Read(read_p)
        insert = Insert(ins_p, XMLTree("c"))
        report = detect_read_insert_linear(read, insert)
        if report.verdict is Verdict.CONFLICT:
            assert report.witness is not None
            assert is_witness(report.witness, read, insert, ConflictKind.NODE)

    @given(linear_patterns(), linear_patterns(max_len=3))
    @settings(max_examples=60, deadline=None)
    def test_delete_witnesses_verify(self, read_p, del_p):
        if del_p.output == del_p.root:
            return
        read = Read(read_p)
        delete = Delete(del_p)
        report = detect_read_delete_linear(read, delete)
        if report.verdict is Verdict.CONFLICT:
            assert report.witness is not None
            assert is_witness(report.witness, read, delete, ConflictKind.NODE)

    @given(linear_patterns(), linear_patterns(max_len=3))
    @settings(max_examples=40, deadline=None)
    def test_node_conflict_implies_tree_conflict(self, read_p, upd_p):
        """Semantics hierarchy: node conflicts are tree conflicts."""
        read = Read(read_p)
        insert = Insert(upd_p, XMLTree("c"))
        node_v = detect_read_insert_linear(read, insert, ConflictKind.NODE).verdict
        tree_v = detect_read_insert_linear(read, insert, ConflictKind.TREE).verdict
        if node_v is Verdict.CONFLICT:
            assert tree_v is Verdict.CONFLICT

    @given(linear_patterns(max_len=3), linear_patterns(max_len=3))
    @settings(max_examples=40, deadline=None)
    def test_lemma2_tree_equals_value_for_linear(self, read_p, upd_p):
        read = Read(read_p)
        insert = Insert(upd_p, XMLTree("c"))
        tree_v = detect_read_insert_linear(read, insert, ConflictKind.TREE).verdict
        value_v = detect_read_insert_linear(read, insert, ConflictKind.VALUE).verdict
        assert tree_v == value_v


    @given(linear_updates(), linear_updates())
    @settings(max_examples=40, deadline=None)
    def test_linear_commutation_rules_are_exact(self, op1, op2):
        """Every CONFLICT carries a checked witness; no tree of up to 4
        nodes refutes a NO_CONFLICT."""
        report = detect_update_update(op1, op2, exhaustive_cap=None)
        if report.verdict is Verdict.CONFLICT:
            assert is_commutativity_witness(report.witness, op1, op2)
        elif report.verdict is Verdict.NO_CONFLICT:
            assert (
                find_commutativity_witness_exhaustive(op1, op2, max_size=4)
                is None
            )


# ----------------------------------------------------------------------
# Matching properties
# ----------------------------------------------------------------------

class TestMatchingProperties:
    @given(linear_patterns(), linear_patterns())
    @settings(max_examples=80, deadline=None)
    def test_nfa_agrees_with_dp(self, l, r):
        for weak in (False, True):
            assert (matching_word(l, r, weak=weak) is not None) == match_dp(
                l, r, weak=weak
            )

    @given(linear_patterns(), linear_patterns())
    @settings(max_examples=60, deadline=None)
    def test_strong_implies_weak(self, l, r):
        if matching_word(l, r, weak=False) is not None:
            assert matching_word(l, r, weak=True) is not None

    @given(linear_patterns())
    @settings(max_examples=40, deadline=None)
    def test_self_match_strong(self, l):
        assert matching_word(l, l, weak=False) is not None

    @given(linear_patterns(), linear_patterns())
    @settings(max_examples=40, deadline=None)
    def test_matching_word_realizes_match(self, l, r):
        word = matching_word(l, r, weak=False)
        if word is None:
            return
        chain = XMLTree(word[0])
        node = chain.root
        for label in word[1:]:
            node = chain.add_child(node, label)
        assert evaluate(l, chain) & evaluate(r, chain)
