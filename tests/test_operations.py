"""Unit tests for the update operations (:mod:`repro.operations.ops`)."""

from __future__ import annotations

import pytest

from repro.errors import OperationError
from repro.operations.ops import Delete, Insert, Read
from repro.patterns.xpath import parse_xpath
from repro.xml.isomorphism import isomorphic
from repro.xml.parser import parse
from repro.xml.tree import build_tree


class TestRead:
    def test_read_returns_node_ids(self):
        t = build_tree(("a", "b", "b"))
        result = Read("a/b").apply(t)
        assert result == set(t.children(t.root))

    def test_read_accepts_pattern_object(self):
        t = build_tree(("a", "b"))
        assert Read(parse_xpath("a/b")).apply(t) == {t.children(t.root)[0]}

    def test_read_subtrees(self):
        t = build_tree(("a", ("b", "c")))
        subtrees = Read("a/b").apply_subtrees(t)
        assert len(subtrees) == 1
        assert subtrees[0].size == 2

    def test_repr_shows_xpath(self):
        assert "a/b" in repr(Read("a/b"))


class TestInsert:
    def test_insert_at_each_point(self):
        t = build_tree(("a", "b", "b"))
        result = Insert("a/b", "<x/>").apply(t)
        assert len(result.points) == 2
        assert len(result.affected) == 2
        for b in result.points:
            labels = [result.tree.label(c) for c in result.tree.children(b)]
            assert labels == ["x"]

    def test_insert_copies_are_disjoint(self):
        t = build_tree(("a", "b", "b"))
        result = Insert("a/b", "<x><y/></x>").apply(t)
        assert len(result.affected) == 4  # two copies of a 2-node tree

    def test_insert_no_match_is_identity(self):
        t = build_tree(("a", "b"))
        result = Insert("a/z", "<x/>").apply(t)
        assert result.points == frozenset()
        assert result.tree.equivalent(t)

    def test_pure_apply_leaves_original_untouched(self):
        t = build_tree(("a", "b"))
        before = t.copy()
        Insert("a/b", "<x/>").apply(t)
        assert t.equivalent(before)

    def test_apply_in_place_mutates(self):
        t = build_tree(("a", "b"))
        Insert("a/b", "<x/>").apply_in_place(t)
        assert t.size == 3

    def test_ids_preserved_across_pure_apply(self):
        t = build_tree(("a", "b"))
        b = t.children(t.root)[0]
        result = Insert("a/b", "<x/>").apply(t)
        assert b in result.tree
        assert result.tree.label(b) == "b"

    def test_dirty_set_is_upward_closure_of_points(self):
        t = build_tree(("a", ("b", "c")))
        b = t.children(t.root)[0]
        c = t.children(b)[0]
        result = Insert("a/b/c", "<x/>").apply(t)
        assert result.dirty == frozenset({c, b, t.root})

    def test_insert_subtree_parsed_from_text(self):
        t = build_tree(("a", "b"))
        result = Insert("a/b", "<r><s/></r>").apply(t)
        b = t.children(t.root)[0]
        (grafted,) = result.tree.children(b)
        assert result.tree.label(grafted) == "r"

    @pytest.mark.parametrize("xpath", ["a", "a/b"])  # one point, two points
    def test_insert_tree_into_itself_in_place(self, xpath, prompt):
        """Every point receives a copy of the pre-update ``X``, as in apply."""
        t = build_tree(("a", "b", ("b", "c")))
        op = Insert(xpath, t)
        expected = op.apply(t)
        result = op.apply_in_place(t)
        assert result.tree is t
        assert result.points == expected.points
        assert len(expected.points) == (1 if xpath == "a" else 2)
        assert isomorphic(t, expected.tree)

    def test_insertion_points_computed_before_mutation(self):
        """Inserting nodes that themselves match must not cascade."""
        t = build_tree(("a", "b"))
        result = Insert("a//b", "<b/>").apply(t)
        # Only the original b is a point; the inserted b is not re-matched.
        assert len(result.points) == 1
        assert len(result.affected) == 1


class TestDelete:
    def test_delete_removes_subtrees(self):
        t = build_tree(("a", ("b", "c", "d"), "e"))
        result = Delete("a/b").apply(t)
        assert result.tree.size == 2
        assert len(result.affected) == 3

    def test_delete_root_pattern_rejected(self):
        with pytest.raises(OperationError):
            Delete("a")

    def test_nested_points_deleted_once(self):
        t = build_tree(("a", ("b", ("b", "c"))))
        result = Delete("a//b").apply(t)
        assert result.tree.size == 1
        assert len(result.points) == 2  # both bs selected
        result.tree.validate()

    def test_delete_no_match_is_identity(self):
        t = build_tree(("a", "b"))
        result = Delete("a/z").apply(t)
        assert result.tree.equivalent(t)

    def test_dirty_set_contains_parents_of_deletions(self):
        t = build_tree(("a", ("b", "c")))
        b = t.children(t.root)[0]
        result = Delete("a/b/c").apply(t)
        assert result.dirty == frozenset({b, t.root})

    def test_pure_apply_preserves_original(self):
        t = build_tree(("a", "b"))
        before = t.copy()
        Delete("a/b").apply(t)
        assert t.equivalent(before)

    def test_value_test_pattern(self, figure1_tree):
        """Figure 1 workload: delete low-stock books."""
        result = Delete("bib/book[.//quantity < 10]").apply(figure1_tree)
        assert len(result.points) == 1
        remaining_books = [
            n
            for n in result.tree.nodes()
            if result.tree.label(n) == "book"
        ]
        assert len(remaining_books) == 1


class TestPaperIntroInsert:
    def test_restock_example(self, figure1_tree):
        """``insert //book[.//quantity < 10], <restock/>`` from Section 1."""
        insert = Insert("//book[.//quantity < 10]", "<restock/>")
        result = insert.apply(figure1_tree)
        assert len(result.points) == 1
        (point,) = result.points
        labels = {result.tree.label(c) for c in result.tree.children(point)}
        assert "restock" in labels
        # The healthy book is untouched.
        books = [
            n for n in result.tree.nodes() if result.tree.label(n) == "book"
        ]
        untouched = [b for b in books if b not in result.points]
        assert len(untouched) == 1
        other_labels = {
            result.tree.label(c) for c in result.tree.children(untouched[0])
        }
        assert "restock" not in other_labels
