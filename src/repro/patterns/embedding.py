"""Embeddings of tree patterns into trees (Section 2.3 of the paper).

An *embedding* of a pattern ``p`` into a tree ``t`` is a function
``E: NODES_p -> NODES_t`` that is root-preserving, label-preserving (with
``*`` matching anything), and maps child/descendant pattern edges to
child/proper-descendant tree pairs.  The evaluation of ``p`` on ``t`` is::

    [[p]](t) = { E(O(p)) : E an embedding of p into t }

This module implements evaluation in ``O(|p| * |t|)`` — matching the
paper's remark that the fragment lies inside Core XPath, which Gottlob,
Koch & Pichler showed evaluable in time linear in ``|p| * |t|``.  A
linear pattern without value tests is evaluated by one top-down walk of
its compiled bitset automaton, one memoized step per visited tree node
(:func:`evaluate`).  Every other pattern takes the two-phase set-based
evaluator (:func:`evaluate_sets`):

1. **Bottom-up matching.**  For every pattern node ``n``, compute
   ``match[n]`` — the tree nodes ``v`` such that the subpattern rooted at
   ``n`` embeds with ``n -> v`` (ancestors ignored).  Each pattern node
   costs one pass over the tree.
2. **Spine reachability.**  Walk the root-to-output spine top-down,
   propagating the set of tree nodes each spine prefix can reach, using
   ``match`` for the off-spine branches.

Value tests (the ``quantity < 10`` extension) are honored during phase 1.

Besides evaluation the module offers existence checks (root-anchored and
floating), witness-embedding extraction (needed by the marking procedure of
Lemma 11), and full embedding enumeration (used in tests as ground truth).
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.obs import enabled as obs_enabled
from repro.obs import global_metrics
from repro.patterns.pattern import Axis, PNodeId, TreePattern, ValueTest
from repro.xml.parser import TEXT_PREFIX
from repro.xml.tree import NodeId, XMLTree

__all__ = [
    "evaluate",
    "evaluate_subtrees",
    "match_sets",
    "embeds",
    "embeds_at",
    "find_embedding",
    "enumerate_embeddings",
    "node_matches",
]


def node_matches(pattern: TreePattern, pnode: PNodeId, tree: XMLTree, tnode: NodeId) -> bool:
    """Label (and value-test) compatibility of one pattern node with one tree node."""
    if not pattern.is_wildcard(pnode) and pattern.label(pnode) != tree.label(tnode):
        return False
    test = pattern.value_test(pnode)
    if test is None:
        return True
    return _value_test_holds(tree, tnode, test)


def _value_test_holds(tree: XMLTree, node: NodeId, test: ValueTest) -> bool:
    for child in tree.children(node):
        label = tree.label(child)
        if label.startswith(TEXT_PREFIX):
            try:
                value = float(label[len(TEXT_PREFIX):])
            except ValueError:
                continue
            if test.holds(value):
                return True
    return False


def match_sets(pattern: TreePattern, tree: XMLTree) -> dict[PNodeId, set[NodeId]]:
    """Phase 1: ``match[n]`` = tree nodes at which ``SUBPATTERN_n`` embeds.

    ``v in match[n]`` iff there is an embedding of the subpattern of
    ``pattern`` rooted at ``n`` into the subtree of ``tree`` rooted at ``v``
    mapping ``n`` to ``v`` (the root-preservation condition is *not*
    applied; phase 2 applies it on the spine).
    """
    match: dict[PNodeId, set[NodeId]] = {}
    for pnode in pattern.postorder():
        base = {v for v in tree.nodes() if node_matches(pattern, pnode, tree, v)}
        for child in pattern.children(pnode):
            axis = pattern.axis(child)
            assert axis is not None
            if axis is Axis.CHILD:
                allowed = _nodes_with_child_in(tree, match[child])
            else:
                allowed = _nodes_with_descendant_in(tree, match[child])
            base &= allowed
            if not base:
                break
        match[pnode] = base
    return match


def _nodes_with_child_in(tree: XMLTree, targets: set[NodeId]) -> set[NodeId]:
    out: set[NodeId] = set()
    for node in targets:
        parent = tree.parent(node)
        if parent is not None:
            out.add(parent)
    return out


def _nodes_with_descendant_in(tree: XMLTree, targets: set[NodeId]) -> set[NodeId]:
    # A node qualifies when some child is a target or itself qualifies.
    out: set[NodeId] = set()
    for node in tree.postorder():
        for child in tree.children(node):
            if child in targets or child in out:
                out.add(node)
                break
    return out


def _spine_ok_sets(
    pattern: TreePattern,
    tree: XMLTree,
    match: dict[PNodeId, set[NodeId]],
) -> list[tuple[PNodeId, set[NodeId]]]:
    """For each spine node, the tree nodes satisfying its *local* constraints.

    A spine node's local constraints are its label/value test plus all its
    off-spine branches; the final spine node (the output) must satisfy all
    its constraints, i.e. its full ``match`` set.
    """
    spine = pattern.spine()
    on_spine = set(spine)
    out: list[tuple[PNodeId, set[NodeId]]] = []
    for index, pnode in enumerate(spine):
        if index == len(spine) - 1:
            out.append((pnode, match[pnode]))
            continue
        ok = {v for v in tree.nodes() if node_matches(pattern, pnode, tree, v)}
        for child in pattern.children(pnode):
            if child in on_spine:
                continue
            axis = pattern.axis(child)
            assert axis is not None
            if axis is Axis.CHILD:
                ok &= _nodes_with_child_in(tree, match[child])
            else:
                ok &= _nodes_with_descendant_in(tree, match[child])
        out.append((pnode, ok))
    return out


def evaluate(pattern: TreePattern, tree: XMLTree) -> set[NodeId]:
    """``[[p]](t)`` — the set of tree nodes selected by the pattern.

    A linear pattern without value tests selects exactly the nodes whose
    root-to-node label path lies in ``L(p)``, so it is answered by one
    top-down walk of its compiled automaton
    (:meth:`repro.automata.bitkernel.BitsetAutomaton.select`, looked up in
    the process-wide compiler).  Branching patterns and patterns with
    value tests take the set-based evaluator, :func:`evaluate_sets`.
    """
    # Counter only, no span, and gated: evaluations run thousands of
    # times per exhaustive search, so the instrument only ticks while
    # observability is switched on.
    if obs_enabled():
        global_metrics().inc("embedding.evaluations")
    if pattern.is_linear and not pattern.has_value_tests():
        # Imported here: repro.compile imports this package.
        from repro.compile.compiler import global_compiler

        return global_compiler().bitset_automaton(pattern, weak=False).select(tree)
    return evaluate_sets(pattern, tree)


def evaluate_sets(pattern: TreePattern, tree: XMLTree) -> set[NodeId]:
    """``[[p]](t)`` by the two-phase set-based evaluator, for any pattern."""
    match = match_sets(pattern, tree)
    layers = _spine_ok_sets(pattern, tree, match)
    current: set[NodeId] = set()
    first_pnode, first_ok = layers[0]
    if tree.root in first_ok:
        current.add(tree.root)
    for pnode, ok in layers[1:]:
        if not current:
            return set()
        axis = pattern.axis(pnode)
        assert axis is not None
        if axis is Axis.CHILD:
            current = {
                v for v in ok
                if tree.parent(v) is not None and tree.parent(v) in current
            }
        else:
            current = {v for v in ok if _has_proper_ancestor_in(tree, v, current)}
    return current


def _has_proper_ancestor_in(tree: XMLTree, node: NodeId, targets: set[NodeId]) -> bool:
    current = tree.parent(node)
    while current is not None:
        if current in targets:
            return True
        current = tree.parent(current)
    return False


def evaluate_subtrees(pattern: TreePattern, tree: XMLTree) -> list[XMLTree]:
    """``[[p]]_T(t)`` — the subtrees rooted at the selected nodes.

    Node ids inside the returned subtrees are preserved from ``tree``, as
    the tree-conflict semantics requires.
    """
    return [tree.subtree_preserving_ids(n) for n in sorted(evaluate(pattern, tree))]


def embeds(pattern: TreePattern, tree: XMLTree) -> bool:
    """Does a (root-preserving) embedding of ``pattern`` into ``tree`` exist?"""
    return bool(evaluate(pattern, tree))


def embeds_at(
    pattern: TreePattern,
    tree: XMLTree,
    root_at: NodeId | None = None,
    anywhere: bool = False,
) -> bool:
    """Existence of an embedding with a relaxed root condition.

    Args:
        root_at: require the pattern root to map to this tree node
            (``None`` means the tree root, i.e. the standard semantics).
        anywhere: when True, the pattern root may map to *any* tree node.
            Used by the cut-edge test of Lemma 6, which asks whether the
            read suffix embeds into "X or some subtree of X".
    """
    match = match_sets(pattern, tree)
    root_set = match[pattern.root]
    if anywhere:
        return bool(root_set)
    anchor = tree.root if root_at is None else root_at
    return anchor in root_set


def find_embedding(
    pattern: TreePattern,
    tree: XMLTree,
    output_at: NodeId | None = None,
) -> dict[PNodeId, NodeId] | None:
    """Extract one concrete embedding, optionally pinning the output node.

    Returns a mapping ``pattern node -> tree node`` or ``None`` when no
    embedding (with ``E(O(p)) == output_at``, if given) exists.  This is the
    workhorse of the *marking* step in the NP-membership proofs (Definition
    9 marks the image of a specific embedding).
    """
    match = match_sets(pattern, tree)
    layers = _spine_ok_sets(pattern, tree, match)

    # Forward pass along the spine, keeping all reachable tree nodes.
    reachable: list[set[NodeId]] = []
    first_pnode, first_ok = layers[0]
    current = {tree.root} if tree.root in first_ok else set()
    reachable.append(set(current))
    for pnode, ok in layers[1:]:
        axis = pattern.axis(pnode)
        assert axis is not None
        if axis is Axis.CHILD:
            current = {
                v for v in ok
                if tree.parent(v) is not None and tree.parent(v) in current
            }
        else:
            current = {v for v in ok if _has_proper_ancestor_in(tree, v, current)}
        reachable.append(set(current))

    final = reachable[-1]
    if output_at is not None:
        final = final & {output_at}
    if not final:
        return None

    # Backward pass: fix one concrete spine assignment.
    spine = pattern.spine()
    assignment: dict[PNodeId, NodeId] = {}
    chosen = min(final)
    assignment[spine[-1]] = chosen
    for index in range(len(spine) - 1, 0, -1):
        pnode = spine[index]
        axis = pattern.axis(pnode)
        assert axis is not None
        below = assignment[pnode]
        if axis is Axis.CHILD:
            parent = tree.parent(below)
            assert parent is not None and parent in reachable[index - 1]
            assignment[spine[index - 1]] = parent
        else:
            candidate = tree.parent(below)
            while candidate is not None and candidate not in reachable[index - 1]:
                candidate = tree.parent(candidate)
            assert candidate is not None
            assignment[spine[index - 1]] = candidate

    # Greedy completion of off-spine branches: match sets guarantee that any
    # choice inside them extends to a full sub-embedding.
    on_spine = set(spine)
    for pnode in spine:
        _complete_branches(pattern, tree, match, pnode, assignment, on_spine)
    return assignment


def _complete_branches(
    pattern: TreePattern,
    tree: XMLTree,
    match: dict[PNodeId, set[NodeId]],
    pnode: PNodeId,
    assignment: dict[PNodeId, NodeId],
    skip: set[PNodeId],
) -> None:
    base = assignment[pnode]
    for child in pattern.children(pnode):
        if child in skip:
            continue
        axis = pattern.axis(child)
        assert axis is not None
        target = _pick_related(tree, base, axis, match[child])
        assert target is not None, "match sets promised an embedding"
        assignment[child] = target
        _complete_branches(pattern, tree, match, child, assignment, skip)


def _pick_related(
    tree: XMLTree, base: NodeId, axis: Axis, candidates: set[NodeId]
) -> NodeId | None:
    if axis is Axis.CHILD:
        for child in tree.children(base):
            if child in candidates:
                return child
        return None
    for node in tree.descendants(base):
        if node in candidates:
            return node
    return None


def enumerate_embeddings(
    pattern: TreePattern,
    tree: XMLTree,
    limit: int | None = None,
) -> Iterator[dict[PNodeId, NodeId]]:
    """Enumerate all embeddings of ``pattern`` into ``tree``.

    Exhaustive backtracking — exponential in the worst case, intended as a
    test oracle and for tiny instances.  ``limit`` caps the number yielded.
    """
    order = list(pattern.preorder())
    count = 0

    def extend(index: int, assignment: dict[PNodeId, NodeId]) -> Iterator[dict[PNodeId, NodeId]]:
        nonlocal count
        if limit is not None and count >= limit:
            return
        if index == len(order):
            count += 1
            yield dict(assignment)
            return
        pnode = order[index]
        parent = pattern.parent(pnode)
        if parent is None:
            candidates: Iterator[NodeId] = iter((tree.root,))
        else:
            axis = pattern.axis(pnode)
            assert axis is not None
            base = assignment[parent]
            if axis is Axis.CHILD:
                candidates = iter(tree.children(base))
            else:
                candidates = tree.descendants(base)
        for tnode in candidates:
            if node_matches(pattern, pnode, tree, tnode):
                assignment[pnode] = tnode
                yield from extend(index + 1, assignment)
                del assignment[pnode]

    yield from extend(0, {})


def evaluate_bruteforce(pattern: TreePattern, tree: XMLTree) -> set[NodeId]:
    """Reference implementation of ``[[p]](t)`` via embedding enumeration.

    Used in tests to cross-validate :func:`evaluate`.
    """
    return {
        assignment[pattern.output]
        for assignment in enumerate_embeddings(pattern, tree)
    }
