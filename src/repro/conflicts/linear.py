"""Polynomial-time conflict detection for linear reads (Section 4).

Theorems 1 and 2 of the paper: when the **read** pattern is linear (class
``P^{//,*}``), read-delete and read-insert node conflicts are decidable in
polynomial time — and by Lemmas 4 and 8 the *update* pattern may be an
arbitrary branching pattern (only its root-to-output trunk matters for the
decision; its side branches are re-attached in the witness).

The decision procedures follow the paper exactly:

* **read-delete** (Lemma 3): a conflict exists iff some edge ``(n, n')`` of
  the read satisfies — descendant edge: the deletion trunk and
  ``SEQ_ROOT(R)^n`` match *weakly*; child edge: the deletion trunk and
  ``SEQ_ROOT(R)^{n'}`` match *strongly*.
* **read-insert** (Lemmas 5–6): a conflict exists iff some read edge is a
  *cut edge* — the insertion trunk matches the read prefix (strongly for a
  child edge, weakly for a descendant edge) **and** the read suffix embeds
  into ``X`` (at the root for a child edge, anywhere for a descendant
  edge).

Matching is decided by regular-language intersection
(:mod:`repro.automata.matching`) on the bit-parallel kernel of
:mod:`repro.automata.bitkernel`, behind the ``compiler`` argument's
compile cache.  Rather than one intersection per read edge, both edge
scans read every edge's weak/strong flag off one matching profile — the
dynamic program the paper's REMARK after Theorem 1 suggests.  A
conflicting edge's shortest matching word is then grown into a full
conflict witness tree and **always re-verified** with the Lemma 1
checker before being reported.

Tree conflicts reduce to "node conflict ∨ weak match of the update trunk
against the whole read" (the REMARKS after Theorems 1 and 2), and for
linear patterns value conflicts coincide with tree conflicts (Lemma 2).
"""

from __future__ import annotations

from repro.obs import span
from repro.compile.compiler import PatternCompiler, global_compiler
from repro.conflicts.semantics import (
    ConflictKind,
    ConflictReport,
    Verdict,
    is_witness,
)
from repro.operations.ops import Delete, Insert, Read, UpdateOp
from repro.patterns.embedding import embeds_at, evaluate
from repro.patterns.pattern import Axis, PNodeId, TreePattern, fresh_label
from repro.xml.tree import NodeId, XMLTree

__all__ = [
    "detect_read_delete_linear",
    "detect_read_insert_linear",
    "find_cut_edge",
]


# ----------------------------------------------------------------------
# Read-delete (Section 4.1)
# ----------------------------------------------------------------------

def detect_read_delete_linear(
    read: Read,
    delete: Delete,
    kind: ConflictKind = ConflictKind.NODE,
    compiler: PatternCompiler | None = None,
) -> ConflictReport:
    """Decide a read-delete conflict for a linear read in PTIME.

    The read pattern must be linear; the delete pattern may branch
    (Corollary 1).  Returns a report whose witness, when present, has been
    re-verified against the Lemma 1 checker.

    ``compiler`` selects the compile cache consulted for trunks, automata,
    matching words, and the Lemma 3 edge scan; the process-global one by
    default.
    """
    comp = compiler if compiler is not None else global_compiler()
    rp = read.pattern
    rp.require_linear("read pattern")
    with span(
        "linear.read_delete",
        read_size=rp.size,
        update_size=delete.pattern.size,
        kind=kind.value,
    ):
        read_c = comp.intern(rp)
        trunk_c = comp.trunk(delete.pattern)

        edge = _read_delete_node_edge(comp, read_c, trunk_c)
        if kind is ConflictKind.NODE:
            if edge is None:
                return ConflictReport(
                    Verdict.NO_CONFLICT, kind, method="linear-ptime"
                )
            witness = _build_delete_witness(comp, read_c, delete, trunk_c, edge)
            return _report_with_witness(witness, read, delete, kind)

        # Tree / value semantics: node conflict OR the deletion point can
        # land at-or-below a read result (weak match of trunk against the
        # full read).
        if edge is not None:
            witness = _build_delete_witness(comp, read_c, delete, trunk_c, edge)
            return _report_with_witness(witness, read, delete, kind)
        word = comp.matching_word(trunk_c, read_c, weak=True)
        if word is not None:
            witness = _augment_with_side_branches(
                _chain_from_word(word), delete.pattern, extra_avoid=rp.labels()
            )
            return _report_with_witness(witness, read, delete, kind)
        return ConflictReport(Verdict.NO_CONFLICT, kind, method="linear-ptime")


def _read_delete_node_edge(
    comp: PatternCompiler, read_c, trunk_c
) -> int | None:
    """Find a read edge satisfying Lemma 3, or ``None``.

    Returns the *spine index* of the edge's upper node (indices, unlike
    node ids, are canonical across structurally identical patterns, so the
    whole scan memoizes per interned (read, trunk) pair).
    """
    rp = comp.as_pattern(read_c)

    def scan() -> int | None:
        # One packed-fixpoint profile answers every edge's weak/strong
        # flag at once.  ``spine_prefix(read_c, k)`` has ``k + 1`` nodes,
        # so the edge at ``index`` reads profile entry ``index + 1``
        # (weak) or ``index + 2`` (strong).
        strong, weak = comp.matching_profile(trunk_c, read_c)
        for index, lower in enumerate(rp.spine()[1:]):
            if rp.axis(lower) is Axis.DESCENDANT:
                if index + 1 in weak:
                    return index
            elif index + 2 in strong:
                return index
        return None

    return comp.edge_scan("read_delete", read_c, trunk_c, scan)


def _build_delete_witness(
    comp: PatternCompiler,
    read_c,
    delete: Delete,
    trunk_c,
    index: int,
) -> XMLTree:
    """Lemma 3 "(If)" construction: word chain + model of the read suffix."""
    rp = comp.as_pattern(read_c)
    spine = rp.spine()
    lower = spine[index + 1]
    axis = rp.axis(lower)
    assert axis is not None
    avoid = rp.labels() | delete.pattern.labels()
    if axis is Axis.DESCENDANT:
        word = comp.matching_word(
            trunk_c, comp.spine_prefix(read_c, index), weak=True
        )
        assert word is not None
        chain = _chain_from_word(word)
        suffix = comp.as_pattern(comp.spine_suffix(read_c, index + 1))
        _graft_model(chain, _last_of_chain(chain), suffix, avoid)
    else:
        word = comp.matching_word(
            trunk_c, comp.spine_prefix(read_c, index + 1), weak=False
        )
        assert word is not None
        chain = _chain_from_word(word)
        if lower != rp.output:
            # The single child of ``lower`` is the next spine node.
            suffix = comp.as_pattern(comp.spine_suffix(read_c, index + 2))
            _graft_model(chain, _last_of_chain(chain), suffix, avoid)
    return _augment_with_side_branches(chain, delete.pattern, extra_avoid=rp.labels())


# ----------------------------------------------------------------------
# Read-insert (Section 4.2)
# ----------------------------------------------------------------------

def detect_read_insert_linear(
    read: Read,
    insert: Insert,
    kind: ConflictKind = ConflictKind.NODE,
    compiler: PatternCompiler | None = None,
) -> ConflictReport:
    """Decide a read-insert conflict for a linear read in PTIME.

    The read pattern must be linear; the insert pattern may branch
    (Corollary 2).  ``compiler`` as in :func:`detect_read_delete_linear`.
    """
    comp = compiler if compiler is not None else global_compiler()
    rp = read.pattern
    rp.require_linear("read pattern")
    with span(
        "linear.read_insert",
        read_size=rp.size,
        update_size=insert.pattern.size,
        x_size=insert.subtree.size,
        kind=kind.value,
    ):
        read_c = comp.intern(rp)
        trunk_c = comp.trunk(insert.pattern)

        cut = _find_cut_edge_index(comp, read_c, trunk_c, insert.subtree)
        if kind is ConflictKind.NODE:
            if cut is None:
                return ConflictReport(
                    Verdict.NO_CONFLICT, kind, method="linear-ptime"
                )
            witness = _build_insert_witness(comp, read_c, insert, trunk_c, cut)
            return _report_with_witness(witness, read, insert, kind)

        if cut is not None:
            witness = _build_insert_witness(comp, read_c, insert, trunk_c, cut)
            return _report_with_witness(witness, read, insert, kind)
        word = comp.matching_word(trunk_c, read_c, weak=True)
        if word is not None:
            witness = _augment_with_side_branches(
                _chain_from_word(word), insert.pattern, extra_avoid=rp.labels()
            )
            return _report_with_witness(witness, read, insert, kind)
        return ConflictReport(Verdict.NO_CONFLICT, kind, method="linear-ptime")


def find_cut_edge(
    rp: TreePattern,
    trunk: TreePattern,
    x: XMLTree,
    compiler: PatternCompiler | None = None,
) -> tuple[PNodeId, PNodeId] | None:
    """Find a cut edge of the read against the insertion (Lemma 6).

    Returns the read edge ``(n, n')`` or ``None``.  ``trunk`` must be the
    insertion pattern's root-to-output spine; ``x`` is the inserted tree.
    """
    comp = compiler if compiler is not None else global_compiler()
    index = _find_cut_edge_index(comp, comp.intern(rp), comp.intern(trunk), x)
    if index is None:
        return None
    spine = rp.spine()
    return (spine[index], spine[index + 1])


def _find_cut_edge_index(
    comp: PatternCompiler, read_c, trunk_c, x: XMLTree
) -> int | None:
    """The spine index of the first cut edge's upper node, or ``None``.

    Only the pattern-vs-pattern half of Lemma 6 (the per-edge weak/strong
    match flags) memoizes — it depends on (read, trunk) alone.  The
    ``embeds_at`` half runs fresh per call: ``x`` is a mutable tree with no
    stable cache identity.
    """
    rp = comp.as_pattern(read_c)
    spine = rp.spine()

    def scan() -> tuple[bool, ...]:
        # Same profile-at-once scan as Lemma 3: edge ``index`` tests
        # prefix ``index + 1`` against the weak or strong set.
        strong, weak = comp.matching_profile(trunk_c, read_c)
        return tuple(
            index + 1 in (weak if rp.axis(lower) is Axis.DESCENDANT else strong)
            for index, lower in enumerate(spine[1:])
        )

    flags = comp.edge_scan("read_insert", read_c, trunk_c, scan)
    for index in range(len(spine) - 1):
        if not flags[index]:
            continue
        axis = rp.axis(spine[index + 1])
        suffix = comp.as_pattern(comp.spine_suffix(read_c, index + 1))
        if axis is Axis.CHILD:
            if embeds_at(suffix, x, root_at=x.root):
                return index
        else:
            if embeds_at(suffix, x, anywhere=True):
                return index
    return None


def _build_insert_witness(
    comp: PatternCompiler,
    read_c,
    insert: Insert,
    trunk_c,
    index: int,
) -> XMLTree:
    """Lemma 6 "(If)" construction: the matching-word chain is the witness.

    (The inserted copy of ``X`` supplies the read suffix, so nothing needs
    to be grafted — except the update pattern's side branches, Lemma 8.)
    """
    rp = comp.as_pattern(read_c)
    axis = rp.axis(rp.spine()[index + 1])
    assert axis is not None
    weak = axis is Axis.DESCENDANT
    word = comp.matching_word(trunk_c, comp.spine_prefix(read_c, index), weak=weak)
    assert word is not None
    chain = _chain_from_word(word)
    return _augment_with_side_branches(chain, insert.pattern, extra_avoid=rp.labels())


# ----------------------------------------------------------------------
# Shared construction helpers
# ----------------------------------------------------------------------

def _chain_from_word(word: list[str]) -> XMLTree:
    """The chain tree whose top-down labels are ``word``."""
    assert word, "matching words are never empty (patterns have a root)"
    tree = XMLTree(word[0])
    node = tree.root
    for label in word[1:]:
        node = tree.add_child(node, label)
    return tree


def _last_of_chain(chain: XMLTree) -> NodeId:
    node = chain.root
    while not chain.is_leaf(node):
        (node,) = chain.children(node)
    return node


def _graft_model(
    tree: XMLTree, at: NodeId, pattern: TreePattern, avoid: set[str]
) -> None:
    """Attach a model ``M_pattern`` under ``at`` (wildcards get fresh labels)."""
    wildcard = fresh_label(avoid | tree.labels())
    tree.graft(at, pattern.model(wildcard_label=wildcard))


def _augment_with_side_branches(
    witness: XMLTree, update_pattern: TreePattern, extra_avoid: set[str]
) -> XMLTree:
    """Lemma 4 / Lemma 8 construction for branching update patterns.

    The decision procedure works on the update trunk; a trunk witness is
    turned into a witness for the full pattern by adding, under **every**
    node of the witness, a model of every side subpattern hanging off the
    trunk.  (Adding nodes is monotone for the positive pattern language, so
    the conflict is preserved; the caller re-verifies regardless.)
    """
    trunk_nodes = set(update_pattern.spine())
    side_roots = [
        child
        for node in update_pattern.spine()
        for child in update_pattern.children(node)
        if child not in trunk_nodes
    ]
    if not side_roots:
        return witness
    avoid = extra_avoid | update_pattern.labels() | witness.labels()
    out = witness.copy()
    for anchor in list(out.nodes()):
        for side in side_roots:
            _graft_model(out, anchor, update_pattern.subpattern(side), avoid)
    return out


def _decorate_with_value_tests(
    witness: XMLTree, read: Read, update: UpdateOp
) -> XMLTree:
    """Add text children so every value test holds at every witness node.

    Value tests are existential over text children ("some text child whose
    value satisfies the comparison"), so any witness can be *decorated* to
    satisfy every test of both patterns at every node — which is why
    tests never affect the matching side of linear conflict detection (the
    witness is ours to build) and only bite when embedding into the fixed
    inserted tree ``X``.  Conflict witnesses therefore get one satisfying
    text child per distinct test, everywhere.
    """
    tests = {
        read.pattern.value_test(n)
        for n in read.pattern.nodes()
        if read.pattern.value_test(n) is not None
    }
    tests |= {
        update.pattern.value_test(n)
        for n in update.pattern.nodes()
        if update.pattern.value_test(n) is not None
    }
    if not tests:
        return witness
    out = witness.copy()
    values = [_satisfying_value(test) for test in tests]
    for node in list(out.nodes()):
        for value in values:
            out.add_child(node, f"#text:{value}")
    return out


def _satisfying_value(test) -> float:  # type: ignore[no-untyped-def]
    """A numeric value satisfying one comparison (every single test is
    satisfiable: the comparison carves a non-empty subset of the reals)."""
    candidates = (
        test.value,
        test.value - 1,
        test.value + 1,
    )
    for candidate in candidates:
        if test.holds(candidate):
            return candidate
    raise AssertionError(f"unsatisfiable single comparison {test}")  # pragma: no cover


def _report_with_witness(
    witness: XMLTree,
    read: Read,
    update: UpdateOp,
    kind: ConflictKind,
) -> ConflictReport:
    """Package a constructed witness, re-verifying it first (Lemma 1).

    For value semantics, a tree-conflict witness may need strengthening
    (Lemma 2's construction): fresh-labeled children are attached to the
    read results so that modified/deleted subtrees can no longer be
    isomorphic to untouched ones.
    """
    witness = _decorate_with_value_tests(witness, read, update)
    if is_witness(witness, read, update, kind):
        return ConflictReport(
            Verdict.CONFLICT, kind, witness=witness, method="linear-ptime"
        )
    if kind is ConflictKind.VALUE:
        strengthened = _strengthen_to_value_witness(witness, read, update)
        if strengthened is not None:
            return ConflictReport(
                Verdict.CONFLICT, kind, witness=strengthened, method="linear-ptime"
            )
        # Lemma 2 guarantees the conflict exists for linear patterns even
        # when no strengthened witness verified (should not happen); report
        # the conflict with the unstrengthened witness flagged.
        return ConflictReport(
            Verdict.CONFLICT,
            kind,
            witness=None,
            method="linear-ptime",
            notes=["value-conflict witness strengthening failed; decision "
                   "is by Lemma 2 equivalence with tree conflicts"],
        )
    raise AssertionError(
        "constructed witness failed verification — this contradicts "
        "Lemma 3/6; please report a bug"
    )


def _strengthen_to_value_witness(
    witness: XMLTree, read: Read, update: UpdateOp
) -> XMLTree | None:
    """Lemma 2's transformations from a tree-conflict to a value-conflict witness."""
    avoid = (
        witness.labels()
        | read.pattern.labels()
        | update.pattern.labels()
        | (update.subtree.labels() if isinstance(update, Insert) else set())
    )
    alpha = fresh_label(avoid, stem="alpha")

    candidates: list[XMLTree] = []
    # (a) tag every read result with a fresh α child.
    tagged = witness.copy()
    for node in sorted(evaluate(read.pattern, witness)):
        tagged.add_child(node, alpha)
    candidates.append(tagged)
    # (b) tag every node of the witness (coarser but sometimes needed when
    #     the modified node is not itself a read result).
    blanket = witness.copy()
    for node in sorted(witness.nodes()):
        blanket.add_child(node, alpha)
    candidates.append(blanket)

    for candidate in candidates:
        if is_witness(candidate, read, update, ConflictKind.VALUE):
            return candidate
    return None
