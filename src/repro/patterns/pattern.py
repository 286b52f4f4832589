"""Tree patterns — the paper's abstraction of XPath expressions (Section 2.2).

A *tree pattern* ``p`` is a tree over ``Σ ∪ {*}`` whose edges are
partitioned into **child** constraints (``EDGES_/(p)``) and **descendant**
constraints (``EDGES_//(p)``), with one distinguished *output node*
``O(p)``.  The full class is ``P^{//,[],*}``; the *linear* subclass
``P^{//,*}`` contains the patterns in which every node has at most one
child and the output node is the leaf — the class for which Section 4's
polynomial-time conflict algorithms work.

This module provides the pattern data structure plus every derived notion
the paper uses:

* ``SEQ_n^{n'}`` — the linear pattern along the path between two nodes,
* subpatterns,
* ``STAR-LENGTH`` — the longest child-edge chain of ``*``-labeled nodes
  (the quantity ``k`` in the witness-size bound of Lemma 11),
* the *model* ``M_p`` — a tree into which ``p`` always embeds (used to show
  satisfiability and to build conflict witnesses).

As a practical extension, leaf nodes may carry a :class:`ValueTest`
(``quantity < 10`` in the paper's motivating example).  Value tests are
honored by evaluation and by the update operations; the conflict engine
*strips* them (a sound over-approximation — see
:meth:`TreePattern.strip_value_tests`).
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.errors import NotLinearError, PatternError

__all__ = ["Axis", "ValueTest", "TreePattern", "WILDCARD", "PNodeId"]

#: The wildcard label ``*`` (matches any tree label; ``* ∉ Σ``).
WILDCARD = "*"

#: Pattern-node identifier type.
PNodeId = int


class Axis(enum.Enum):
    """Edge kind of a pattern edge: XPath child (``/``) or descendant (``//``)."""

    CHILD = "/"
    DESCENDANT = "//"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class ValueTest:
    """A comparison on the text content of a matched element.

    ``op`` is one of ``<``, ``<=``, ``>``, ``>=``, ``=``, ``!=``; ``value``
    is the numeric constant.  A tree node satisfies the test when it has a
    text child (label ``#text:X``) whose numeric value ``X`` stands in the
    relation.  This models the paper's ``//book[.//quantity < 10]``.
    """

    op: str
    value: float

    _OPS = {
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
        "=": lambda a, b: a == b,
        "!=": lambda a, b: a != b,
    }

    def __post_init__(self) -> None:
        if self.op not in self._OPS:
            raise PatternError(f"unknown comparison operator {self.op!r}")
        if not math.isfinite(self.value):
            raise PatternError(f"comparison constant {self.value!r} is not finite")

    def holds(self, text_value: float) -> bool:
        """Evaluate the comparison against a numeric text value."""
        return self._OPS[self.op](text_value, self.value)

    def __str__(self) -> str:
        value = int(self.value) if self.value == int(self.value) else self.value
        return f"{self.op} {value}"


@dataclass
class _PNode:
    label: str
    parent: PNodeId | None
    axis: Axis | None  # axis of the edge from parent; None for the root
    children: list[PNodeId] = field(default_factory=list)
    value_test: ValueTest | None = None


class TreePattern:
    """A tree pattern in ``P^{//,[],*}`` with a distinguished output node.

    Build patterns programmatically::

        >>> p = TreePattern("a")
        >>> b = p.add_child(p.root, "b", Axis.CHILD)
        >>> c = p.add_child(b, "c", Axis.DESCENDANT)
        >>> p.set_output(c)
        >>> p.is_linear
        True

    or parse them from XPath text with :func:`repro.patterns.parse_xpath`.
    """

    def __init__(self, root_label: str) -> None:
        self._nodes: dict[PNodeId, _PNode] = {0: _PNode(root_label, None, None)}
        self._root: PNodeId = 0
        self._output: PNodeId = 0
        self._next_id: PNodeId = 1
        # Memoized whole-pattern canonical form; every mutator clears it.
        self._canonical: str | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_child(self, parent: PNodeId, label: str, axis: Axis) -> PNodeId:
        """Add a node labeled ``label`` under ``parent`` via ``axis``."""
        record = self._get(parent)
        node = self._next_id
        self._next_id += 1
        self._nodes[node] = _PNode(label, parent, axis)
        record.children.append(node)
        self._canonical = None
        return node

    def set_output(self, node: PNodeId) -> None:
        """Mark ``node`` as the output node ``O(p)``."""
        self._get(node)
        self._output = node
        self._canonical = None

    def set_value_test(self, node: PNodeId, test: ValueTest | None) -> None:
        """Attach (or clear) a value test on ``node``."""
        self._get(node).value_test = test
        self._canonical = None

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def root(self) -> PNodeId:
        """The root node id (``ROOT(p)``)."""
        return self._root

    @property
    def output(self) -> PNodeId:
        """The output node id (``O(p)``)."""
        return self._output

    @property
    def size(self) -> int:
        """Number of nodes (``|p|``)."""
        return len(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def nodes(self) -> Iterator[PNodeId]:
        """Iterate over all pattern-node ids."""
        return iter(self._nodes)

    def label(self, node: PNodeId) -> str:
        """Label of ``node`` (possibly :data:`WILDCARD`)."""
        return self._get(node).label

    def is_wildcard(self, node: PNodeId) -> bool:
        """True when ``node`` is labeled ``*``."""
        return self._get(node).label == WILDCARD

    def parent(self, node: PNodeId) -> PNodeId | None:
        """Parent id, or ``None`` for the root."""
        return self._get(node).parent

    def axis(self, node: PNodeId) -> Axis | None:
        """Axis of the edge from the parent into ``node`` (None at root)."""
        return self._get(node).axis

    def children(self, node: PNodeId) -> tuple[PNodeId, ...]:
        """Child ids of ``node``."""
        return tuple(self._get(node).children)

    def value_test(self, node: PNodeId) -> ValueTest | None:
        """The value test attached to ``node``, if any."""
        return self._get(node).value_test

    def has_value_tests(self) -> bool:
        """True when any node carries a :class:`ValueTest`."""
        return any(rec.value_test is not None for rec in self._nodes.values())

    def labels(self) -> set[str]:
        """``Σ_p`` — the non-wildcard labels used in the pattern."""
        return {
            rec.label for rec in self._nodes.values() if rec.label != WILDCARD
        }

    def edges(self) -> Iterator[tuple[PNodeId, PNodeId, Axis]]:
        """Iterate over ``(parent, child, axis)`` triples."""
        for node, rec in self._nodes.items():
            for child in rec.children:
                child_axis = self._nodes[child].axis
                assert child_axis is not None
                yield (node, child, child_axis)

    def _get(self, node: PNodeId) -> _PNode:
        try:
            return self._nodes[node]
        except KeyError:
            raise PatternError(f"pattern node {node!r} does not exist") from None

    # ------------------------------------------------------------------
    # Traversal helpers
    # ------------------------------------------------------------------

    def preorder(self, start: PNodeId | None = None) -> Iterator[PNodeId]:
        """Preorder traversal of (the subpattern at) ``start``."""
        stack = [self._root if start is None else start]
        self._get(stack[0])
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(self._nodes[node].children))

    def postorder(self, start: PNodeId | None = None) -> Iterator[PNodeId]:
        """Postorder traversal of (the subpattern at) ``start``."""
        root = self._root if start is None else start
        self._get(root)
        out: list[PNodeId] = []
        stack = [root]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(self._nodes[node].children)
        return iter(reversed(out))

    def path(self, ancestor: PNodeId, descendant: PNodeId) -> list[PNodeId]:
        """Node ids from ``ancestor`` down to ``descendant``, inclusive.

        Raises :class:`PatternError` when ``ancestor`` is not an ancestor-or-
        self of ``descendant``.
        """
        self._get(ancestor)
        chain = [descendant]
        while chain[-1] != ancestor:
            parent = self.parent(chain[-1])
            if parent is None:
                raise PatternError(
                    f"{ancestor} is not an ancestor of {descendant}"
                )
            chain.append(parent)
        chain.reverse()
        return chain

    def spine(self) -> list[PNodeId]:
        """The path from the root to the output node."""
        return self.path(self._root, self._output)

    def depth(self, node: PNodeId) -> int:
        """Number of edges from the root to ``node``."""
        count = 0
        current = self.parent(node)
        while current is not None:
            count += 1
            current = self.parent(current)
        return count

    # ------------------------------------------------------------------
    # Paper-defined derived notions
    # ------------------------------------------------------------------

    @property
    def is_linear(self) -> bool:
        """True when the pattern is in ``P^{//,*}``.

        Linear patterns have at most one outgoing edge per node and the
        output node at the leaf.
        """
        if any(len(rec.children) > 1 for rec in self._nodes.values()):
            return False
        return not self._nodes[self._output].children

    def require_linear(self, role: str = "pattern") -> None:
        """Raise :class:`NotLinearError` unless the pattern is linear."""
        if not self.is_linear:
            raise NotLinearError(
                f"the {role} must be a linear pattern (class P^{{//,*}}); "
                f"got a branching pattern of size {self.size}"
            )

    def star_length(self) -> int:
        """``STAR-LENGTH(p)``: longest child-edge chain of ``*`` nodes.

        A *chain* is a sequence of nodes connected by child (``/``) edges;
        the star length is the node count of the longest chain in which
        every node is a wildcard.  This is the ``k`` of the reparenting
        construction (Definition 10) and the witness bound (Lemma 11).
        """
        best = 0
        lengths: dict[PNodeId, int] = {}
        for node in self.postorder():
            rec = self._nodes[node]
            if rec.label != WILDCARD:
                lengths[node] = 0
                continue
            extend = 0
            for child in rec.children:
                if self._nodes[child].axis is Axis.CHILD:
                    extend = max(extend, lengths[child])
            lengths[node] = 1 + extend
            best = max(best, lengths[node])
        return best

    def seq(self, top: PNodeId, bottom: PNodeId) -> "TreePattern":
        """``SEQ_top^bottom`` — the linear pattern along the path (Section 2.2).

        The result contains exactly the nodes on the path from ``top`` to
        ``bottom`` with the same labels and axes; its output node is the
        final node of the path.  Value tests on path nodes are preserved.
        """
        chain = self.path(top, bottom)
        out = TreePattern(self.label(chain[0]))
        out.set_value_test(out.root, self.value_test(chain[0]))
        current = out.root
        for node in chain[1:]:
            axis = self.axis(node)
            assert axis is not None
            current = out.add_child(current, self.label(node), axis)
            out.set_value_test(current, self.value_test(node))
        out.set_output(current)
        return out

    def seq_root_to(self, node: PNodeId) -> "TreePattern":
        """``SEQ_{ROOT(p)}^{node}`` — the spine prefix ending at ``node``."""
        return self.seq(self._root, node)

    def trunk(self) -> "TreePattern":
        """``SEQ_{ROOT(p)}^{O(p)}`` — the linear root-to-output spine.

        Lemmas 4 and 8 show that for conflict detection against a *linear*
        read, a branching update pattern can be replaced by its trunk.
        """
        return self.seq(self._root, self._output)

    def subpattern(self, node: PNodeId, output: PNodeId | None = None) -> "TreePattern":
        """``SUBPATTERN_node(p)`` — the subtree of ``p`` rooted at ``node``.

        The output of the new pattern defaults to its root (the paper only
        needs *some* marked node in a subpattern); pass ``output`` to pick a
        specific node of the subpattern.
        """
        mapping: dict[PNodeId, PNodeId] = {}
        out = TreePattern(self.label(node))
        out.set_value_test(out.root, self.value_test(node))
        mapping[node] = out.root
        for current in self.preorder(node):
            if current == node:
                continue
            parent = self.parent(current)
            axis = self.axis(current)
            assert parent is not None and axis is not None
            mapping[current] = out.add_child(
                mapping[parent], self.label(current), axis
            )
            out.set_value_test(mapping[current], self.value_test(current))
        if output is not None:
            out.set_output(mapping[output])
        return out

    def model(self, wildcard_label: str | None = None) -> "XMLTree":
        """The *model* ``M_p`` — a tree into which ``p`` certainly embeds.

        Every pattern in ``P^{//,[],*}`` is satisfiable (Section 2.3): take
        the pattern's own shape as a tree, replacing ``*`` labels with an
        arbitrary concrete label.  Descendant edges become single child
        edges (a child is a proper descendant).

        Args:
            wildcard_label: label substituted for ``*`` nodes.  Defaults to
                a label guaranteed not to occur in the pattern, which is the
                safe choice inside witness constructions.
        """
        from repro.xml.tree import XMLTree

        if wildcard_label is None:
            wildcard_label = fresh_label(self.labels())
        mapping: dict[PNodeId, int] = {}
        root_label = self.label(self._root)
        tree = XMLTree(root_label if root_label != WILDCARD else wildcard_label)
        mapping[self._root] = tree.root
        for node in self.preorder():
            if node == self._root:
                continue
            parent = self.parent(node)
            assert parent is not None
            label = self.label(node)
            mapping[node] = tree.add_child(
                mapping[parent], label if label != WILDCARD else wildcard_label
            )
        return tree

    def model_with_mapping(
        self, wildcard_label: str | None = None
    ) -> tuple["XMLTree", dict[PNodeId, int]]:
        """Like :meth:`model`, also returning the pattern→tree node mapping."""
        from repro.xml.tree import XMLTree

        if wildcard_label is None:
            wildcard_label = fresh_label(self.labels())
        mapping: dict[PNodeId, int] = {}
        root_label = self.label(self._root)
        tree = XMLTree(root_label if root_label != WILDCARD else wildcard_label)
        mapping[self._root] = tree.root
        for node in self.preorder():
            if node == self._root:
                continue
            parent = self.parent(node)
            assert parent is not None
            label = self.label(node)
            mapping[node] = tree.add_child(
                mapping[parent], label if label != WILDCARD else wildcard_label
            )
        return tree, mapping

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def copy(self) -> "TreePattern":
        """An independent copy preserving pattern-node ids."""
        clone = TreePattern.__new__(TreePattern)
        clone._nodes = {
            node: _PNode(rec.label, rec.parent, rec.axis, list(rec.children), rec.value_test)
            for node, rec in self._nodes.items()
        }
        clone._root = self._root
        clone._output = self._output
        clone._next_id = self._next_id
        clone._canonical = self._canonical
        return clone

    def strip_value_tests(self) -> "TreePattern":
        """A copy with all value tests removed.

        Removing a value test only *widens* the set of nodes a pattern node
        can match, so conflict detection on the stripped pattern is a sound
        over-approximation: "no conflict" on stripped patterns implies "no
        conflict" on the originals.
        """
        clone = self.copy()
        for node in clone.nodes():
            clone.set_value_test(node, None)
        return clone

    def graft(self, at: PNodeId, sub: "TreePattern", axis: Axis) -> dict[PNodeId, PNodeId]:
        """Attach a copy of pattern ``sub`` under node ``at`` via ``axis``.

        Returns the mapping from ``sub``'s node ids to the fresh ids in this
        pattern.  Used by the NP-hardness gadget constructions (Figures 7
        and 8), which assemble patterns from containment instances.
        """
        mapping: dict[PNodeId, PNodeId] = {}
        for node in sub.preorder():
            if node == sub.root:
                mapping[node] = self.add_child(at, sub.label(node), axis)
            else:
                parent = sub.parent(node)
                sub_axis = sub.axis(node)
                assert parent is not None and sub_axis is not None
                mapping[node] = self.add_child(
                    mapping[parent], sub.label(node), sub_axis
                )
            self.set_value_test(mapping[node], sub.value_test(node))
        return mapping

    # ------------------------------------------------------------------
    # Equality / hashing / display
    # ------------------------------------------------------------------

    def canonical_form(self, node: PNodeId | None = None) -> str:
        """Canonical encoding, invariant under sibling order.

        Encodes labels, axes, value tests and the position of the output
        node, so two patterns have the same form exactly when they are
        isomorphic as output-marked patterns.  The whole-pattern form is
        memoized (the mutators clear it), so hashing, equality and
        interning cost O(1) on a pattern that is reused unchanged.
        """
        if node is None or node == self._root:
            if self._canonical is None:
                self._canonical = self._encode(self._root)
            return self._canonical
        return self._encode(node)

    def _encode(self, node: PNodeId) -> str:
        codes: dict[PNodeId, str] = {}
        for current in self.postorder(node):
            rec = self._nodes[current]
            children = sorted(
                f"{self._nodes[c].axis.value}{codes[c]}" for c in rec.children
            )
            out_mark = "!" if current == self._output else ""
            test = f"?{rec.value_test}" if rec.value_test else ""
            codes[current] = (
                f"({len(rec.label)}:{rec.label}{test}{out_mark}{''.join(children)})"
            )
        return codes[node]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TreePattern):
            return NotImplemented
        return self.canonical_form() == other.canonical_form()

    def __hash__(self) -> int:
        return hash(self.canonical_form())

    def __repr__(self) -> str:
        from repro.patterns.xpath import to_xpath

        return f"TreePattern({to_xpath(self)!r})"

    def sketch(self, node: PNodeId | None = None, indent: int = 0) -> str:
        """Indented text rendering with axes and the output marker."""
        node = self._root if node is None else node
        axis = self.axis(node)
        prefix = "" if axis is None else f"{axis.value} "
        marker = "  <== output" if node == self._output else ""
        test = f" [{self.value_test(node)}]" if self.value_test(node) else ""
        lines = [f"{'  ' * indent}{prefix}{self.label(node)}{test}{marker}"]
        for child in self.children(node):
            lines.append(self.sketch(child, indent + 1))
        return "\n".join(lines)


def fresh_label(avoid: set[str], stem: str = "zeta") -> str:
    """A label guaranteed not to occur in ``avoid``.

    The paper's constructions repeatedly pick "a symbol α not used in ..." —
    legitimate because ``Σ`` is infinite.  This helper realizes that choice
    deterministically.
    """
    if stem not in avoid:
        return stem
    index = 0
    while f"{stem}{index}" in avoid:
        index += 1
    return f"{stem}{index}"
