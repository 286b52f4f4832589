"""Unit tests for the XML tree substrate (:mod:`repro.xml.tree`)."""

from __future__ import annotations

import pytest

from repro.errors import NodeNotFoundError, TreeStructureError
from repro.xml.isomorphism import isomorphic
from repro.xml.tree import XMLTree, build_tree


class TestConstruction:
    def test_single_node_tree(self):
        t = XMLTree("a")
        assert t.size == 1
        assert t.label(t.root) == "a"
        assert t.parent(t.root) is None
        assert t.children(t.root) == ()
        assert t.is_leaf(t.root)

    def test_add_child_returns_fresh_ids(self):
        t = XMLTree("a")
        b = t.add_child(t.root, "b")
        c = t.add_child(t.root, "c")
        assert b != c
        assert t.size == 3
        assert t.parent(b) == t.root
        assert set(t.children(t.root)) == {b, c}

    def test_build_tree_nested_spec(self):
        t = build_tree(("a", "b", ("c", "d", "e")))
        assert t.size == 5
        assert t.label(t.root) == "a"
        labels = sorted(t.label(c) for c in t.children(t.root))
        assert labels == ["b", "c"]

    def test_build_tree_bare_label(self):
        t = build_tree("solo")
        assert t.size == 1
        assert t.label(t.root) == "solo"

    def test_build_tree_rejects_bad_spec(self):
        with pytest.raises(TreeStructureError):
            build_tree((1, "a"))
        with pytest.raises(TreeStructureError):
            build_tree(("a", (2,)))

    def test_unknown_node_raises(self):
        t = XMLTree("a")
        with pytest.raises(NodeNotFoundError):
            t.label(99)
        with pytest.raises(NodeNotFoundError):
            t.children(99)


class TestTraversal:
    def test_fold_paths_threads_values_and_prunes(self):
        t = build_tree(("a", ("b", "c"), ("d", "e")))

        def depth_until_d(depth, label):
            return 0 if label == "d" else depth + 1

        folded = {t.label(n): v for n, v in t.fold_paths(0, depth_until_d)}
        assert folded == {"a": 1, "b": 2, "c": 3}  # d is falsy: e is skipped
        assert list(t.fold_paths(0, lambda value, label: 0)) == []

    def test_preorder_visits_all_once(self):
        t = build_tree(("a", ("b", "c"), ("d", "e", "f")))
        seen = list(t.preorder())
        assert len(seen) == t.size
        assert len(set(seen)) == t.size
        assert seen[0] == t.root

    def test_postorder_children_before_parents(self):
        t = build_tree(("a", ("b", "c"), "d"))
        order = {node: i for i, node in enumerate(t.postorder())}
        for parent, child in t.edges():
            assert order[child] < order[parent]

    def test_descendants_and_ancestors(self):
        t = build_tree(("a", ("b", ("c", "d"))))
        b = t.children(t.root)[0]
        c = t.children(b)[0]
        d = t.children(c)[0]
        assert set(t.descendants(b)) == {c, d}
        assert set(t.descendants(b, include_self=True)) == {b, c, d}
        assert list(t.ancestors(d)) == [c, b, t.root]

    def test_is_ancestor_is_proper(self):
        t = build_tree(("a", ("b", "c")))
        b = t.children(t.root)[0]
        c = t.children(b)[0]
        assert t.is_ancestor(t.root, c)
        assert t.is_ancestor(b, c)
        assert not t.is_ancestor(c, b)
        assert not t.is_ancestor(b, b), "ancestorship must be proper"

    def test_depth_and_height(self):
        t = build_tree(("a", ("b", ("c", "d")), "e"))
        b = t.children(t.root)[0]
        c = t.children(b)[0]
        d = t.children(c)[0]
        assert t.depth(t.root) == 0
        assert t.depth(d) == 3
        assert t.height() == 3

    def test_path_from_root(self):
        t = build_tree(("a", ("b", "c")))
        b = t.children(t.root)[0]
        c = t.children(b)[0]
        assert t.path_from_root(c) == [t.root, b, c]
        assert t.path_labels(c) == ["a", "b", "c"]

    def test_edges_match_parent_child(self):
        t = build_tree(("a", ("b", "c"), "d"))
        edges = set(t.edges())
        assert len(edges) == t.size - 1
        for parent, child in edges:
            assert t.parent(child) == parent


class TestMutation:
    def test_graft_copies_with_fresh_ids(self):
        host = build_tree(("a", "b"))
        guest = build_tree(("x", "y"))
        mapping = host.graft(host.root, guest)
        assert host.size == 4
        assert set(mapping) == set(guest.nodes())
        assert all(node in host for node in mapping.values())
        # Fresh ids: disjoint from the guest's own ids as a tree object.
        grafted_root = mapping[guest.root]
        assert host.label(grafted_root) == "x"
        assert host.parent(grafted_root) == host.root

    def test_graft_into_itself_copies_a_snapshot(self, prompt):
        t = build_tree(("a", ("b", "c")))
        before = t.copy()
        mapping = t.graft(t.root, t)
        assert set(mapping) == set(before.nodes())
        assert t.size == 2 * before.size
        assert isomorphic(t.subtree(mapping[before.root]), before)
        t.validate()

    def test_graft_twice_gives_disjoint_copies(self):
        host = XMLTree("a")
        guest = build_tree(("x", "y"))
        m1 = host.graft(host.root, guest)
        m2 = host.graft(host.root, guest)
        assert set(m1.values()) & set(m2.values()) == set()
        assert host.size == 5

    def test_delete_subtree(self):
        t = build_tree(("a", ("b", "c", "d"), "e"))
        b = t.children(t.root)[0]
        removed = t.delete_subtree(b)
        assert len(removed) == 3
        assert t.size == 2
        assert b not in t
        t.validate()

    def test_delete_root_rejected(self):
        t = build_tree(("a", "b"))
        with pytest.raises(TreeStructureError):
            t.delete_subtree(t.root)

    def test_move_subtree(self):
        t = build_tree(("a", ("b", "c"), "d"))
        b = t.children(t.root)[0]
        d = t.children(t.root)[1]
        t.move_subtree(b, d)
        assert t.parent(b) == d
        t.validate()

    def test_move_under_descendant_rejected(self):
        t = build_tree(("a", ("b", "c")))
        b = t.children(t.root)[0]
        c = t.children(b)[0]
        with pytest.raises(TreeStructureError):
            t.move_subtree(b, c)
        with pytest.raises(TreeStructureError):
            t.move_subtree(b, b)

    def test_move_root_rejected(self):
        t = build_tree(("a", "b"))
        b = t.children(t.root)[0]
        with pytest.raises(TreeStructureError):
            t.move_subtree(t.root, b)

    def test_relabel(self):
        t = XMLTree("a")
        t.relabel(t.root, "z")
        assert t.label(t.root) == "z"


class TestCopying:
    def test_copy_preserves_ids_and_is_independent(self):
        t = build_tree(("a", ("b", "c")))
        clone = t.copy()
        assert set(clone.nodes()) == set(t.nodes())
        assert clone.equivalent(t)
        clone.add_child(clone.root, "new")
        assert clone.size == t.size + 1
        assert t.size == 3

    def test_copy_then_mutate_original_does_not_leak(self):
        t = build_tree(("a", ("b", "c")))
        clone = t.copy()
        b = t.children(t.root)[0]
        t.delete_subtree(b)
        assert clone.size == 3
        clone.validate()

    def test_subtree_renumbers(self):
        t = build_tree(("a", ("b", "c", "d")))
        b = t.children(t.root)[0]
        sub = t.subtree(b)
        assert sub.size == 3
        assert sub.label(sub.root) == "b"
        sub.validate()

    def test_subtree_preserving_ids(self):
        t = build_tree(("a", ("b", "c", "d")))
        b = t.children(t.root)[0]
        sub = t.subtree_preserving_ids(b)
        assert sub.root == b
        assert set(sub.nodes()) == set(t.descendants(b, include_self=True))
        sub.validate()


class TestEquivalence:
    def test_equivalent_definition2(self):
        t = build_tree(("a", "b"))
        assert t.equivalent(t.copy())

    def test_equivalent_rejects_label_change(self):
        t = build_tree(("a", "b"))
        other = t.copy()
        other.relabel(other.children(other.root)[0], "z")
        assert not t.equivalent(other)

    def test_equivalent_rejects_extra_node(self):
        t = build_tree(("a", "b"))
        other = t.copy()
        other.add_child(other.root, "b")
        assert not t.equivalent(other)

    def test_structure_returns_node_and_edge_sets(self):
        t = build_tree(("a", "b"))
        nodes, edges = t.structure()
        assert nodes == set(t.nodes())
        assert edges == set(t.edges())


class TestValidate:
    def test_validate_accepts_wellformed(self):
        build_tree(("a", ("b", "c"), "d")).validate()

    def test_labels_and_contains(self):
        t = build_tree(("a", "b", "b"))
        assert t.labels() == {"a", "b"}
        assert t.root in t
        assert 999 not in t

    def test_sketch_contains_labels(self):
        t = build_tree(("a", "b"))
        sketch = t.sketch()
        assert "a" in sketch and "b" in sketch
