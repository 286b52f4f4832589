"""The paper's three operations: ``READ_p``, ``INSERT_{p,X}``, ``DELETE_p``.

Section 3 semantics, reference-based (as proposed for XQuery updates and
XJ):

* ``READ_p(t)``      = ``[[p]](t)`` — a set of node references.
* ``INSERT_{p,X}(t)``: evaluate ``p`` on ``t``; for each selected node (an
  *insertion point*) attach a **fresh copy** of ``X`` as a new child.  The
  copies' node sets are disjoint from each other and from ``NODES_t``.
* ``DELETE_p(t)``: evaluate ``p``; remove the subtree rooted at each
  selected node (a *deletion point*).  The paper requires
  ``O(p) != ROOT(p)`` so the result remains a tree; we enforce that at
  construction time.

Updates come in two flavors, both provided: :meth:`apply` is *pure* — it
copies the input (preserving node ids, so reference-based conflict
comparisons remain meaningful) and updates the copy — while
:meth:`apply_in_place` mutates, matching the imperative semantics of the
motivating languages.  Both report the update's *points* and the affected
node ids, which the conflict semantics layer consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import OperationError
from repro.patterns.embedding import evaluate
from repro.patterns.pattern import TreePattern
from repro.patterns.xpath import parse_xpath, to_xpath
from repro.xml.tree import NodeId, XMLTree

__all__ = ["Read", "Insert", "Delete", "UpdateResult", "UpdateOp"]


def _as_pattern(pattern: TreePattern | str) -> TreePattern:
    if isinstance(pattern, str):
        return parse_xpath(pattern)
    return pattern


@dataclass(frozen=True)
class UpdateResult:
    """Outcome of applying an update operation.

    Attributes:
        tree: the resulting tree (the same object for in-place application).
        points: the insertion/deletion points — ``[[p]](t)`` on the
            *pre-update* tree.
        affected: node ids added (for inserts) or removed (for deletes).
        dirty: nodes of the result whose subtree differs from the original —
            the "modified" flags of Lemma 1's tree-conflict check.  For an
            insert these are the insertion points and their ancestors; for a
            delete, the parents of deletion points and their ancestors.
    """

    tree: XMLTree
    points: frozenset[NodeId]
    affected: frozenset[NodeId]
    dirty: frozenset[NodeId] = field(default_factory=frozenset)


class Read:
    """``READ_p`` — project a set of node references from a tree."""

    def __init__(self, pattern: TreePattern | str) -> None:
        self.pattern = _as_pattern(pattern)

    def apply(self, tree: XMLTree) -> set[NodeId]:
        """``[[p]](t)``."""
        return evaluate(self.pattern, tree)

    def apply_subtrees(self, tree: XMLTree) -> list[XMLTree]:
        """``[[p]]_T(t)`` — the subtrees (ids preserved) at the selected nodes."""
        return [tree.subtree_preserving_ids(n) for n in sorted(self.apply(tree))]

    def __repr__(self) -> str:
        return f"Read({to_xpath(self.pattern)!r})"


class Insert:
    """``INSERT_{p,X}`` — graft a fresh copy of ``X`` under each selected node."""

    def __init__(self, pattern: TreePattern | str, subtree: XMLTree | str) -> None:
        self.pattern = _as_pattern(pattern)
        if isinstance(subtree, str):
            from repro.xml.parser import parse

            subtree = parse(subtree)
        self.subtree = subtree

    def apply(self, tree: XMLTree) -> UpdateResult:
        """Pure application: returns an updated copy (ids preserved)."""
        return self.apply_in_place(tree.copy())

    def apply_in_place(self, tree: XMLTree) -> UpdateResult:
        """Mutating application, per the imperative semantics."""
        points = evaluate(self.pattern, tree)
        # ``X`` may be the target tree itself; every point then receives a
        # copy of the pre-update ``X``, as in the pure :meth:`apply`.
        subtree = self.subtree.copy() if self.subtree is tree else self.subtree
        inserted: set[NodeId] = set()
        for point in sorted(points):
            mapping = tree.graft(point, subtree)
            inserted.update(mapping.values())
        dirty = _upward_closure(tree, points)
        return UpdateResult(
            tree=tree,
            points=frozenset(points),
            affected=frozenset(inserted),
            dirty=frozenset(dirty),
        )

    def __repr__(self) -> str:
        from repro.xml.serializer import serialize

        return f"Insert({to_xpath(self.pattern)!r}, {serialize(self.subtree)!r})"


class Delete:
    """``DELETE_p`` — remove the subtree rooted at each selected node.

    Raises :class:`~repro.errors.OperationError` when the pattern's output
    node is its root (the paper's well-formedness condition: deleting the
    document root would not leave a tree).
    """

    def __init__(self, pattern: TreePattern | str) -> None:
        self.pattern = _as_pattern(pattern)
        if self.pattern.output == self.pattern.root:
            raise OperationError(
                "a deletion pattern must not select the document root "
                "(the paper requires O(p) != ROOT(p))"
            )

    def apply(self, tree: XMLTree) -> UpdateResult:
        """Pure application: returns an updated copy (ids preserved)."""
        return self.apply_in_place(tree.copy())

    def apply_in_place(self, tree: XMLTree) -> UpdateResult:
        """Mutating application, per the imperative semantics."""
        points = evaluate(self.pattern, tree)
        # A point nested under another point vanishes with its ancestor;
        # delete outermost points only (the result is identical).
        outer = {
            p for p in points
            if not any(a in points for a in tree.ancestors(p))
        }
        parents = {tree.parent(p) for p in outer}
        parents.discard(None)
        removed: set[NodeId] = set()
        for point in sorted(outer):
            removed |= tree.delete_subtree(point)
        dirty = _upward_closure(tree, parents)  # type: ignore[arg-type]
        return UpdateResult(
            tree=tree,
            points=frozenset(points),
            affected=frozenset(removed),
            dirty=frozenset(dirty),
        )

    def __repr__(self) -> str:
        return f"Delete({to_xpath(self.pattern)!r})"


#: Union type of the two mutating operations.
UpdateOp = Insert | Delete


def _upward_closure(tree: XMLTree, nodes: set[NodeId]) -> set[NodeId]:
    """The given nodes plus all their ancestors (that exist in ``tree``)."""
    out: set[NodeId] = set()
    for node in nodes:
        if node not in tree:
            continue
        current: NodeId | None = node
        while current is not None and current not in out:
            out.add(current)
            current = tree.parent(current)
    return out
