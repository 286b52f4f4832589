"""Tests for update-update commutativity conflicts (Section 6)."""

from __future__ import annotations

import pytest

from repro.conflicts.complex import (
    detect_update_update,
    find_commutativity_witness_exhaustive,
    is_commutativity_witness,
)
from repro.conflicts.general import SearchStats
from repro.conflicts.semantics import Verdict
from repro.operations.ops import Delete, Insert
from repro.patterns.pattern import ValueTest
from repro.patterns.xpath import parse_xpath
from repro.xml.isomorphism import isomorphic
from repro.xml.tree import build_tree


class TestWitnessCheck:
    def test_identical_inserts_commute(self):
        """The paper's motivating point: identical inserts must not conflict
        under value semantics (reference semantics would false-positive)."""
        t = build_tree(("a", "b"))
        ins = Insert("a/b", "<x/>")
        other = Insert("a/b", "<x/>")
        assert not is_commutativity_witness(t, ins, other)

    def test_insert_enables_insert(self):
        t = build_tree(("a", "b"))
        first = Insert("a/b", "<c/>")
        second = Insert("a/b/c", "<d/>")
        # Order matters: second fires only after first created the c.
        assert is_commutativity_witness(t, first, second)

    def test_delete_then_insert_vs_insert_then_delete(self):
        t = build_tree(("a", "b"))
        delete = Delete("a/b")
        insert = Insert("a/b", "<c/>")
        # delete-first removes b so the insert is a no-op; insert-first
        # grafts c under b and then the delete removes both: results equal
        # (both end at bare a)?  insert(delete(t)) = a; delete(insert(t)) =
        # a.  Isomorphic -> not a witness.
        assert not is_commutativity_witness(t, delete, insert)

    def test_delete_insert_genuine_conflict(self):
        t = build_tree(("a", "b"))
        delete = Delete("a/b/c")  # only fires after the insert adds c
        insert = Insert("a/b", "<c/>")
        # insert-then-delete: c added then removed -> a(b).
        # delete-then-insert: delete no-op, insert adds c -> a(b(c)).
        assert is_commutativity_witness(t, insert, delete)

    def test_disjoint_updates_commute(self):
        t = build_tree(("a", "b", "d"))
        assert not is_commutativity_witness(
            t, Insert("a/b", "<x/>"), Insert("a/d", "<y/>")
        )

    def test_delete_delete_overlap_commutes(self):
        """Deletions commute even when nested (both orders yield the same)."""
        t = build_tree(("a", ("b", "c")))
        d1 = Delete("a/b")
        d2 = Delete("a/b/c")
        assert not is_commutativity_witness(t, d1, d2)


class TestExhaustiveSearch:
    def test_finds_insert_insert_conflict(self):
        first = Insert("a/b", "<c/>")
        second = Insert("a/b/c", "<d/>")
        witness = find_commutativity_witness_exhaustive(first, second, max_size=3)
        assert witness is not None
        assert is_commutativity_witness(witness, first, second)

    def test_no_witness_for_commuting_pair(self):
        first = Insert("a/b", "<x/>")
        second = Insert("a/d", "<y/>")
        witness = find_commutativity_witness_exhaustive(first, second, max_size=4)
        assert witness is None


class TestDetect:
    def test_conflict_detected(self):
        report = detect_update_update(
            Insert("a/b", "<c/>"), Insert("a/b/c", "<d/>")
        )
        assert report.verdict is Verdict.CONFLICT
        assert report.witness is not None

    def test_unknown_for_commuting_pair(self):
        """No witness-size bound is proved for branching updates, so the
        search cannot say NO."""
        report = detect_update_update(
            Insert("a[c]/b", "<x/>"), Insert("a[e]/d", "<y/>"), exhaustive_cap=3
        )
        assert report.verdict is Verdict.UNKNOWN
        assert report.notes

    def test_heuristic_path(self):
        # A branching insert keeps the pair off the exact linear rules.
        report = detect_update_update(
            Insert("a[e]/b", "<c/>"),
            Delete("a/b/c"),
            exhaustive_cap=None,
        )
        assert report.verdict in (Verdict.CONFLICT, Verdict.UNKNOWN)
        if report.verdict is Verdict.CONFLICT:
            assert report.method == "heuristic"


class TestSearchRootPruning:
    """The search skips candidates whose root a concrete root label rules
    out: neither update changes the root's label, so they are no witness."""

    def test_pruned_search_finds_the_unpruned_witness(self):
        first, second = Insert("a[e]/b", "<c/>"), Delete("a/b/c")
        full = SearchStats()
        expected = find_commutativity_witness_exhaustive(
            first, second, max_size=4, stats=full
        )
        report = detect_update_update(
            first, second, exhaustive_cap=4, use_heuristics=False
        )
        assert report.verdict is Verdict.CONFLICT
        assert report.method == "exhaustive"
        assert isomorphic(report.witness, expected)
        assert 0 < report.stats["candidates_checked"] < full.candidates_checked

    def test_different_concrete_roots_check_no_candidate(self):
        report = detect_update_update(
            Delete("a[c]/b"), Delete("x[d]/y"), exhaustive_cap=3
        )
        assert report.verdict is Verdict.UNKNOWN
        assert report.method == "exhaustive"
        assert report.stats["candidates_checked"] == 0

    def test_wildcard_root_prunes_nothing_of_its_own(self):
        first, second = Delete("*[c]/b"), Delete("*[d]/b")
        full = SearchStats()
        find_commutativity_witness_exhaustive(
            first, second, max_size=3, stats=full
        )
        report = detect_update_update(
            first, second, exhaustive_cap=3, use_heuristics=False
        )
        assert report.stats["candidates_checked"] == full.candidates_checked


class TestReductionStyleInstances:
    """Insert-insert conflicts built from containment instances (§6 remark)."""

    @pytest.mark.parametrize(
        "p,q,contained",
        [("a/b", "a//b", True), ("a//b", "a/b", False)],
    )
    def test_gadget_like_pair(self, p, q, contained):
        """I1 inserts a marker where p holds; I2 inserts where p' holds then
        reads... simplified: I2's pattern extends I1's marker, so conflict
        arises exactly when I1 can fire where I2's pattern then applies."""
        first = Insert(f"{p}", "<marker/>")
        second = Insert(f"{q}/marker", "<inner/>")
        witness = find_commutativity_witness_exhaustive(first, second, max_size=4)
        # first-then-second nests inner under marker; second-then-first
        # leaves inner out.  This requires p to fire somewhere q also
        # fires, which holds for both orientations here.
        assert witness is not None


def _with_value_test(xpath: str):
    """A linear pattern whose output node carries ``< 3`` (built by API)."""
    pattern = parse_xpath(xpath)
    pattern.set_value_test(pattern.output, ValueTest("<", 3))
    return pattern


class TestExactCommutationRules:
    """The linear rules decide exactly; each verdict is cross-checked."""

    @pytest.mark.parametrize(
        "first,second,method",
        [
            # The pairs that came back UNKNOWN before the rules existed.
            (Delete("bib/book/stale"), Delete("bib/book/stale"), "commute-identical"),
            (
                Insert("bib/book", "<note>x</note>"),
                Delete("inv/item/stale"),
                "commute-delete-insert",
            ),
            (Delete("a/b"), Delete("a//c"), "commute-delete-delete"),
            # The insertion point is itself deleted, so p_d never sees X.
            (Delete("a//b"), Insert("a/b", "<b/>"), "commute-delete-insert"),
            (Insert("a//b", "<b/>"), Insert("a//b", "<b/>"), "commute-identical"),
            (Insert("a/b", "<x/>"), Insert("a/d", "<y/>"), "commute-insert-insert"),
            (Insert("a/b", "<x/>"), Insert("a/b", "<y/>"), "commute-insert-insert"),
        ],
    )
    def test_commuting_pairs(self, first, second, method):
        for op1, op2 in ((first, second), (second, first)):
            report = detect_update_update(op1, op2, exhaustive_cap=None)
            assert report.verdict is Verdict.NO_CONFLICT
            assert report.method == method
        assert find_commutativity_witness_exhaustive(first, second, max_size=4) is None

    @pytest.mark.parametrize(
        "first,second,method",
        [
            (Insert("a/b", "<c/>"), Delete("a/b/c"), "commute-delete-insert"),
            (Insert("a", "<b><c/></b>"), Delete("a//c"), "commute-delete-insert"),
            (Insert("a/b", "<c/>"), Insert("a/b/c", "<d/>"), "commute-insert-insert"),
            (Insert("*", "<b/>"), Insert("a//b", "<c/>"), "commute-insert-insert"),
        ],
    )
    def test_conflicting_pairs_carry_checked_chain_witnesses(
        self, first, second, method
    ):
        report = detect_update_update(first, second, exhaustive_cap=None)
        assert report.verdict is Verdict.CONFLICT
        assert report.method == method
        assert is_commutativity_witness(report.witness, first, second)
        # The witness is the chain the walk found.
        assert all(
            len(report.witness.children(node)) <= 1
            for node in report.witness.nodes()
        )

    def test_branching_pair_takes_the_search(self):
        report = detect_update_update(
            Delete("a[c]/b"), Delete("a[d]/b"), exhaustive_cap=2
        )
        assert report.verdict is Verdict.UNKNOWN
        assert report.method == "exhaustive"

    def test_value_test_pair_takes_the_search_on_stripped_patterns(self):
        tested = Delete(_with_value_test("a/b"))
        report = detect_update_update(tested, Delete("a/c"), exhaustive_cap=2)
        assert report.verdict is Verdict.UNKNOWN
        assert report.method == "exhaustive"
        assert any("stripped" in note for note in report.notes)

    def test_identical_value_test_operations_commute(self):
        report = detect_update_update(
            Delete(_with_value_test("a/b")), Delete(_with_value_test("a/b"))
        )
        assert report.verdict is Verdict.NO_CONFLICT
        assert report.method == "commute-identical"
        assert not report.notes

    def test_identity_needs_isomorphic_subtrees(self):
        report = detect_update_update(
            Insert("a//b", "<b/>"), Insert("a//b", "<c/>"), exhaustive_cap=None
        )
        assert report.method == "commute-insert-insert"
        assert report.verdict is Verdict.CONFLICT
