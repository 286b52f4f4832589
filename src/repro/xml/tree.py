"""Unordered, unranked labeled trees — the paper's model of XML documents.

Section 2.1 of the paper models an XML document as a tree whose nodes carry
labels from an infinite alphabet ``Σ``.  Because the XPath fragment studied
in the paper cannot observe document order, the trees are *unordered*; and
because XML elements impose no arity, they are *unranked*.

:class:`XMLTree` implements this model with **stable integer node
identities**.  Node identity is the heart of the paper's reference-based
conflict semantics: an insertion applied to a tree ``t`` yields a tree
``I(t)`` that shares the identities of all surviving nodes of ``t``, so the
node-conflict check ``R(I(t)) != R(t)`` is a set comparison over node ids.

The class is deliberately small and explicit: a dictionary of nodes, each
knowing its label, parent and children.  All structural mutations preserve
the invariants checked by :meth:`XMLTree.validate`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from typing import TypeVar

from repro.errors import NodeNotFoundError, TreeStructureError

__all__ = ["XMLTree", "NodeId", "build_tree"]

#: Node identifier type.  Ids are small non-negative integers, unique within
#: a tree (and preserved across :meth:`XMLTree.copy`).
NodeId = int

#: The value :meth:`XMLTree.fold_paths` threads down root-to-node paths.
S = TypeVar("S")


@dataclass
class _Node:
    """Internal record for a single tree node."""

    label: str
    parent: NodeId | None
    children: list[NodeId] = field(default_factory=list)


class XMLTree:
    """A mutable, unordered, labeled tree with stable node identities.

    Construct a tree with a root label and grow it with :meth:`add_child`::

        >>> t = XMLTree("bib")
        >>> book = t.add_child(t.root, "book")
        >>> t.add_child(book, "title")
        2
        >>> t.size
        3

    Children are stored in insertion order for reproducibility, but no
    library algorithm depends on that order: the semantics are those of an
    unordered tree.
    """

    def __init__(self, root_label: str) -> None:
        self._nodes: dict[NodeId, _Node] = {0: _Node(root_label, None)}
        self._root: NodeId = 0
        self._next_id: NodeId = 1

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def root(self) -> NodeId:
        """The id of the root node."""
        return self._root

    @property
    def size(self) -> int:
        """Number of nodes in the tree (``|t|`` in the paper)."""
        return len(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._nodes

    def nodes(self) -> Iterator[NodeId]:
        """Iterate over all node ids (no particular order guaranteed)."""
        return iter(self._nodes)

    def label(self, node: NodeId) -> str:
        """Return the label of ``node`` (``LABEL_t(n)``)."""
        return self._get(node).label

    def parent(self, node: NodeId) -> NodeId | None:
        """Return the parent id of ``node``, or ``None`` for the root."""
        return self._get(node).parent

    def children(self, node: NodeId) -> tuple[NodeId, ...]:
        """Return the ids of the children of ``node``."""
        return tuple(self._get(node).children)

    def degree(self, node: NodeId) -> int:
        """Number of children of ``node``."""
        return len(self._get(node).children)

    def is_leaf(self, node: NodeId) -> bool:
        """True when ``node`` has no children."""
        return not self._get(node).children

    def labels(self) -> set[str]:
        """The set of labels used in the tree (``Σ_t``)."""
        return {record.label for record in self._nodes.values()}

    def _get(self, node: NodeId) -> _Node:
        try:
            return self._nodes[node]
        except KeyError:
            raise NodeNotFoundError(f"node {node!r} is not in this tree") from None

    # ------------------------------------------------------------------
    # Traversals and derived relations
    # ------------------------------------------------------------------

    def preorder(self, start: NodeId | None = None) -> Iterator[NodeId]:
        """Depth-first preorder traversal from ``start`` (default: root)."""
        stack = [self._root if start is None else start]
        self._get(stack[0])
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(self._nodes[node].children))

    def postorder(self, start: NodeId | None = None) -> Iterator[NodeId]:
        """Depth-first postorder traversal from ``start`` (default: root)."""
        root = self._root if start is None else start
        self._get(root)
        out: list[NodeId] = []
        stack = [root]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(self._nodes[node].children)
        return reversed(out)

    def descendants(self, node: NodeId, include_self: bool = False) -> Iterator[NodeId]:
        """Iterate over the (proper, by default) descendants of ``node``."""
        it = self.preorder(node)
        first = next(it)
        if include_self:
            yield first
        yield from it

    def ancestors(self, node: NodeId, include_self: bool = False) -> Iterator[NodeId]:
        """Iterate over the ancestors of ``node``, nearest first."""
        if include_self:
            yield node
        current = self.parent(node)
        while current is not None:
            yield current
            current = self._nodes[current].parent

    def is_ancestor(self, anc: NodeId, desc: NodeId) -> bool:
        """True when ``anc`` is a *proper* ancestor of ``desc``."""
        self._get(anc)
        current = self.parent(desc)
        while current is not None:
            if current == anc:
                return True
            current = self._nodes[current].parent
        return False

    def depth(self, node: NodeId) -> int:
        """Number of edges from the root to ``node`` (root has depth 0)."""
        return sum(1 for _ in self.ancestors(node))

    def height(self) -> int:
        """Number of edges on the longest root-to-leaf path."""
        best = 0
        stack: list[tuple[NodeId, int]] = [(self._root, 0)]
        while stack:
            node, d = stack.pop()
            best = max(best, d)
            stack.extend((c, d + 1) for c in self._nodes[node].children)
        return best

    def fold_paths(
        self, initial: S, step: Callable[[S, str], S]
    ) -> Iterator[tuple[NodeId, S]]:
        """Fold ``step`` down every root-to-node label path, top-down.

        A node's value is ``step(parent_value, label)``, starting from
        ``step(initial, root_label)``.  Yields ``(node, value)`` for every
        node whose value is truthy; a falsy value prunes the node's whole
        subtree.  Each visited node costs one ``step`` call, so a
        path-language matcher (an automaton stepping subsets, with the
        empty subset falsy) evaluates in one pass over the live part of
        the tree.
        """
        nodes = self._nodes
        value = step(initial, nodes[self._root].label)
        if not value:
            return
        stack = [(self._root, value)]
        while stack:
            node, value = stack.pop()
            yield node, value
            for child in nodes[node].children:
                below = step(value, nodes[child].label)
                if below:
                    stack.append((child, below))

    def path_from_root(self, node: NodeId) -> list[NodeId]:
        """The node ids on the path from the root to ``node``, inclusive."""
        path = list(self.ancestors(node, include_self=True))
        path.reverse()
        return path

    def path_labels(self, node: NodeId) -> list[str]:
        """Labels along the path from the root to ``node``, inclusive."""
        return [self._nodes[n].label for n in self.path_from_root(node)]

    def edges(self) -> Iterator[tuple[NodeId, NodeId]]:
        """Iterate over all (parent, child) edges (``EDGES_t``)."""
        for node, record in self._nodes.items():
            for child in record.children:
                yield (node, child)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add_child(self, parent: NodeId, label: str) -> NodeId:
        """Create a new node labeled ``label`` under ``parent``; return its id."""
        record = self._get(parent)
        node = self._next_id
        self._next_id += 1
        self._nodes[node] = _Node(label, parent)
        record.children.append(node)
        return node

    def relabel(self, node: NodeId, label: str) -> None:
        """Change the label of ``node``."""
        self._get(node).label = label

    def graft(self, parent: NodeId, subtree: "XMLTree") -> dict[NodeId, NodeId]:
        """Insert a fresh copy of ``subtree`` as a child of ``parent``.

        This is the primitive behind the paper's ``INSERT`` operation: the
        copy receives **fresh node ids**, disjoint from every id already in
        this tree.  Returns the mapping from ids in ``subtree`` to the fresh
        ids in this tree.  Grafting a tree into itself copies a snapshot
        taken before the first new node is added.
        """
        self._get(parent)
        if subtree is self:
            subtree = self.copy()
        mapping: dict[NodeId, NodeId] = {}
        for old in subtree.preorder():
            target = parent if old == subtree.root else mapping[subtree.parent(old)]
            mapping[old] = self.add_child(target, subtree.label(old))
        return mapping

    def move_subtree(self, node: NodeId, new_parent: NodeId) -> None:
        """Detach the subtree at ``node`` and re-attach it under ``new_parent``.

        The primitive behind the *reparenting* operation of Definition 10.
        Moving a node under one of its own descendants (or under itself)
        would create a cycle and is rejected.
        """
        record = self._get(node)
        self._get(new_parent)
        if record.parent is None:
            raise TreeStructureError("cannot move the root of a tree")
        if new_parent == node or self.is_ancestor(node, new_parent):
            raise TreeStructureError(
                f"moving {node} under {new_parent} would create a cycle"
            )
        self._nodes[record.parent].children.remove(node)
        record.parent = new_parent
        self._nodes[new_parent].children.append(node)

    def delete_subtree(self, node: NodeId) -> set[NodeId]:
        """Remove ``node`` and all its descendants; return the removed ids.

        Deleting the root is rejected (the paper requires the result of a
        deletion to remain a tree; it enforces this by requiring
        ``O(p) != ROOT(p)`` on deletion patterns).
        """
        record = self._get(node)
        if record.parent is None:
            raise TreeStructureError("cannot delete the root of a tree")
        removed = set(self.descendants(node, include_self=True))
        self._nodes[record.parent].children.remove(node)
        for victim in removed:
            del self._nodes[victim]
        return removed

    # ------------------------------------------------------------------
    # Copying and extraction
    # ------------------------------------------------------------------

    def copy(self) -> "XMLTree":
        """Return an independent copy **preserving node ids**.

        Id preservation is what lets the conflict semantics compare
        ``R(t)`` with ``R(I(t))`` as sets of ids: the pure application of an
        update copies the input tree first, so surviving nodes keep their
        identity across the update.
        """
        clone = XMLTree.__new__(XMLTree)
        clone._nodes = {
            node: _Node(rec.label, rec.parent, list(rec.children))
            for node, rec in self._nodes.items()
        }
        clone._root = self._root
        clone._next_id = self._next_id
        return clone

    def subtree(self, node: NodeId) -> "XMLTree":
        """Return ``SUBTREE_n(t)`` as a fresh tree (ids are renumbered)."""
        out = XMLTree(self.label(node))
        mapping = {node: out.root}
        for current in self.preorder(node):
            if current == node:
                continue
            parent = self.parent(current)
            assert parent is not None
            mapping[current] = out.add_child(mapping[parent], self.label(current))
        return out

    def subtree_preserving_ids(self, node: NodeId) -> "XMLTree":
        """Return ``SUBTREE_n(t)`` keeping the original node ids.

        Used by the tree/value conflict semantics, where the sets
        ``[[p]]_T(t)`` consist of subtrees whose node identities matter.
        """
        clone = XMLTree.__new__(XMLTree)
        keep = set(self.descendants(node, include_self=True))
        clone._nodes = {
            n: _Node(
                self._nodes[n].label,
                self._nodes[n].parent if n != node else None,
                list(self._nodes[n].children),
            )
            for n in keep
        }
        clone._root = node
        clone._next_id = self._next_id
        return clone

    # ------------------------------------------------------------------
    # Structural equality and diagnostics
    # ------------------------------------------------------------------

    def structure(self) -> tuple[set[NodeId], set[tuple[NodeId, NodeId]]]:
        """Return ``(NODES_t, EDGES_t)`` for the paper's Definition 2.

        Two trees are *equivalent* (reference semantics) when their node
        sets and edge sets coincide.
        """
        return set(self._nodes), set(self.edges())

    def equivalent(self, other: "XMLTree") -> bool:
        """Definition 2: same node ids, same edges, same labels."""
        if set(self._nodes) != set(other._nodes):
            return False
        if set(self.edges()) != set(other.edges()):
            return False
        return all(self.label(n) == other.label(n) for n in self._nodes)

    def validate(self) -> None:
        """Check internal invariants; raise :class:`TreeStructureError` if broken.

        Verifies that parent/child links are mutually consistent, that the
        root is the unique parentless node, and that every node is reachable
        from the root.
        """
        parentless = [n for n, rec in self._nodes.items() if rec.parent is None]
        if parentless != [self._root]:
            raise TreeStructureError(
                f"expected the root {self._root} to be the unique parentless "
                f"node; found {parentless}"
            )
        for node, rec in self._nodes.items():
            for child in rec.children:
                if child not in self._nodes:
                    raise TreeStructureError(f"child {child} of {node} missing")
                if self._nodes[child].parent != node:
                    raise TreeStructureError(
                        f"child {child} of {node} has parent "
                        f"{self._nodes[child].parent}"
                    )
            if rec.parent is not None and node not in self._nodes[rec.parent].children:
                raise TreeStructureError(
                    f"node {node} not registered as child of {rec.parent}"
                )
        reachable = sum(1 for _ in self.preorder())
        if reachable != len(self._nodes):
            raise TreeStructureError(
                f"{len(self._nodes) - reachable} nodes unreachable from root"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"XMLTree(size={self.size}, root={self.label(self._root)!r})"

    def sketch(self, node: NodeId | None = None, indent: int = 0) -> str:
        """A human-readable indented rendering (labels with node ids)."""
        node = self._root if node is None else node
        lines = [f"{'  ' * indent}{self.label(node)} #{node}"]
        for child in self.children(node):
            lines.append(self.sketch(child, indent + 1))
        return "\n".join(lines)


def build_tree(spec: object) -> XMLTree:
    """Build a tree from a nested-sequence specification.

    The specification is either a bare label (a one-node tree) or a sequence
    whose first element is the root label and whose remaining elements are
    child specifications::

        >>> t = build_tree(("a", "b", ("c", "d")))
        >>> t.size
        4

    This mirrors how the paper's figures draw small trees and keeps tests
    compact and readable.
    """
    if isinstance(spec, str):
        return XMLTree(spec)
    items: list[object] = list(spec)  # type: ignore[arg-type]
    if not items or not isinstance(items[0], str):
        raise TreeStructureError(f"bad tree spec: {spec!r}")
    tree = XMLTree(items[0])
    _attach_children(tree, tree.root, items[1:])
    return tree


def _attach_children(tree: XMLTree, parent: NodeId, specs: Iterable[object]) -> None:
    for spec in specs:
        if isinstance(spec, str):
            tree.add_child(parent, spec)
            continue
        items: list[object] = list(spec)  # type: ignore[arg-type]
        if not items or not isinstance(items[0], str):
            raise TreeStructureError(f"bad tree spec: {spec!r}")
        child = tree.add_child(parent, items[0])
        _attach_children(tree, child, items[1:])
