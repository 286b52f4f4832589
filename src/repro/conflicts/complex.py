"""Update-update (commutativity) conflicts — Section 6, "Complex Updates".

The paper extends conflicts beyond read-update pairs: two mutating
operations ``o1, o2`` conflict when there is a tree ``t`` with
``o1(o2(t)) ≠ o2(o1(t))``.  As the paper observes, the reference-based
semantics is awkward here — the fresh copies of ``X`` inserted by the two
orders can never be *equal* as nodes even when the results are plainly "the
same" — so, following the paper's remark that "value-based semantics do not
have this problem", commutativity is compared **up to tree isomorphism**.

The paper proves no witness-size bound for this question (it only
conjectures NP membership), so its decision procedure is a search:
heuristic candidates, then bounded exhaustive enumeration, answering
``CONFLICT`` or ``UNKNOWN``.  :func:`detect_update_update` first decides
most pairs exactly, by rules that extend the paper (the argument is the
Section 6 row of ``docs/PAPER_MAP.md``):

* identical operations always commute, since ``o∘o = o∘o``;
* for linear patterns without value tests, a node is selected exactly
  when its root path spells a word of ``L(p)``, and neither update
  changes the root path of a node it keeps.  So two deletes always
  commute; ``Delete(p_d)`` and ``Insert(p_i, X)`` conflict exactly when
  some word ``w`` of ``L(p_i)`` with no prefix in ``L(p_d)`` lets ``p_d``
  select a node of a copy of ``X`` placed under ``w``; and two inserts
  commute when neither pattern can select a node inside a copy of the
  other's ``X``.

The last two conditions are one guarded product walk each over the
patterns' compiled strong automata
(:func:`repro.automata.bitkernel.guarded_product_word`).  The word found
becomes a chain witness, reported only after
:func:`is_commutativity_witness` accepts it; an insert/insert pair whose
chain witnesses all fail falls back to the search.  Branching and
value-test updates go to the search directly.  Experiment E9 exercises
both: the exhaustive search grows exponentially, and insert-insert
instances derived from non-containment pairs conflict exactly when
containment fails.
"""

from __future__ import annotations

from repro.automata.bitkernel import guarded_product_word
from repro.compile.compiler import PatternCompiler, global_compiler
from repro.obs import span
from repro.conflicts.general import DEFAULT_EXHAUSTIVE_CAP, SearchStats
from repro.conflicts.linear import _chain_from_word
from repro.conflicts.semantics import (
    ConflictKind,
    ConflictReport,
    Verdict,
    strip_value_tests,
)
from repro.operations.ops import Delete, Insert, UpdateOp
from repro.patterns.containment import canonical_models
from repro.patterns.pattern import WILDCARD, fresh_label
from repro.resilience.budget import checkpoint
from repro.xml.enumerate import enumerate_trees
from repro.xml.isomorphism import isomorphic
from repro.xml.tree import XMLTree

__all__ = [
    "is_commutativity_witness",
    "find_commutativity_witness_exhaustive",
    "detect_update_update",
]


def is_commutativity_witness(tree: XMLTree, op1: UpdateOp, op2: UpdateOp) -> bool:
    """Does ``tree`` witness ``o1(o2(t)) ≇ o2(o1(t))``?

    Polynomial: four update applications plus one labeled-tree-isomorphism
    check (canonical forms).
    """
    order_a = op1.apply(op2.apply(tree).tree).tree
    order_b = op2.apply(op1.apply(tree).tree).tree
    return not isomorphic(order_a, order_b)


def _alphabet(op1: UpdateOp, op2: UpdateOp) -> tuple[str, ...]:
    labels = op1.pattern.labels() | op2.pattern.labels()
    for op in (op1, op2):
        if isinstance(op, Insert):
            labels |= op.subtree.labels()
    alpha = fresh_label(labels, stem="alpha")
    return tuple(sorted(labels | {alpha}))


def find_commutativity_witness_exhaustive(
    op1: UpdateOp,
    op2: UpdateOp,
    max_size: int = DEFAULT_EXHAUSTIVE_CAP,
    stats: SearchStats | None = None,
) -> XMLTree | None:
    """Enumerate candidate trees up to ``max_size``; return a witness or None.

    Checks every candidate, unlike the search of
    :func:`detect_update_update`, which skips those whose root label rules
    them out; the update/update differential uses this as its oracle.
    """
    for candidate in enumerate_trees(max_size, _alphabet(op1, op2)):
        checkpoint("complex.exhaustive")
        if stats is not None:
            stats.candidates_checked += 1
        if is_commutativity_witness(candidate, op1, op2):
            return candidate
    return None


def _witness_roots(op1: UpdateOp, op2: UpdateOp) -> set[str]:
    """The root labels a commutativity witness can have.

    Neither update changes the root's label: an insert adds below a
    selected node, and a delete never selects the root.  So on a tree
    whose root a pattern's concrete root label rules out, that update
    selects nothing before or after the other one, is the identity in
    both orders, and the tree is no witness.
    """
    roots = set(_alphabet(op1, op2))
    for op in (op1, op2):
        label = op.pattern.label(op.pattern.root)
        if label != WILDCARD:
            roots &= {label}
    return roots


def _heuristic_candidates(op1: UpdateOp, op2: UpdateOp) -> list[XMLTree]:
    z = fresh_label(set(_alphabet(op1, op2)), stem="zeta")
    out: list[XMLTree] = []
    gap = max(op1.pattern.star_length(), op2.pattern.star_length()) + 1
    models1 = canonical_models(op1.pattern, gap, z)[:32]
    models2 = canonical_models(op2.pattern, gap, z)[:32]
    out.extend(models1)
    out.extend(models2)
    for base in models1[:6]:
        for extra in models2[:4]:
            merged = base.copy()
            for anchor in list(merged.nodes()):
                merged.graft(anchor, extra)
            out.append(merged)
    return out


def detect_update_update(
    op1: UpdateOp,
    op2: UpdateOp,
    exhaustive_cap: int | None = DEFAULT_EXHAUSTIVE_CAP,
    use_heuristics: bool = True,
    compiler: PatternCompiler | None = None,
) -> ConflictReport:
    """Decide whether two updates fail to commute (value semantics).

    Identical operations, and pairs of linear updates without value
    tests, are decided exactly by the rules of the module docstring:
    each ``NO_CONFLICT`` names its rule in ``method`` and each
    ``CONFLICT`` carries a checked witness.  Every other pair goes to
    the search, on value-test-stripped patterns; no witness-size bound
    is proved for it, so finding no witness yields ``UNKNOWN``, never
    ``NO_CONFLICT``.  ``compiler`` supplies the automata of the exact
    rules (the process-global one by default).
    """
    if _identical(op1, op2):
        return ConflictReport(
            Verdict.NO_CONFLICT, ConflictKind.VALUE, method="commute-identical"
        )
    fallback: list[str] = []
    if _exact_operand(op1) and _exact_operand(op2):
        comp = compiler if compiler is not None else global_compiler()
        report = _decide_linear(op1, op2, comp)
        if report is not None:
            return report
        fallback.append(
            "the insert/insert rule found a node one insert can select in "
            "the other's inserted copy, but no chain witness verified; "
            "this verdict comes from the bounded search"
        )
    op1, op2, stripped = strip_value_tests(op1, op2)
    stats = SearchStats()
    try:
        report = _detect_update_update(
            op1, op2, exhaustive_cap, use_heuristics, stats
        )
    finally:
        stats.publish()
    report.notes.extend(fallback + stripped)
    return report


def _identical(op1: UpdateOp, op2: UpdateOp) -> bool:
    """Equal canonical pattern and, for inserts, isomorphic subtrees."""
    if type(op1) is not type(op2) or op1.pattern != op2.pattern:
        return False
    return not isinstance(op1, Insert) or isomorphic(op1.subtree, op2.subtree)


def _exact_operand(op: UpdateOp) -> bool:
    """Is ``op`` in reach of the linear commutation rules?"""
    return op.pattern.is_linear and not op.pattern.has_value_tests()


def _decide_linear(
    op1: UpdateOp, op2: UpdateOp, comp: PatternCompiler
) -> ConflictReport | None:
    """The linear commutation rules; ``None`` sends the pair to the search."""
    if isinstance(op1, Delete) and isinstance(op2, Delete):
        return ConflictReport(
            Verdict.NO_CONFLICT, ConflictKind.VALUE, method="commute-delete-delete"
        )
    if isinstance(op1, Insert) and isinstance(op2, Insert):
        method = "commute-insert-insert"
        walks = ((op1, op2), (op2, op1))
    else:
        method = "commute-delete-insert"
        walks = ((op1, op2) if isinstance(op1, Insert) else (op2, op1),)
    found = False
    with span("complex.walk", rule=method):
        for insert, other in walks:
            word = _reach_word(comp, insert, other)
            if word is None:
                continue
            found = True
            witness = _chain_from_word(word)
            if is_commutativity_witness(witness, op1, op2):
                return ConflictReport(
                    Verdict.CONFLICT,
                    ConflictKind.VALUE,
                    witness=witness,
                    method=method,
                )
    if not found:
        return ConflictReport(Verdict.NO_CONFLICT, ConflictKind.VALUE, method=method)
    if method == "commute-delete-insert":
        raise AssertionError(
            "delete/insert chain witness failed verification — this "
            "contradicts the Section 6 commutation rule; please report a bug"
        )
    return None


def _reach_word(
    comp: PatternCompiler, insert: Insert, other: UpdateOp
) -> list[str] | None:
    """A word of ``L(insert)`` under which ``other`` selects in a copy of X.

    The guarded product walk over both strong automata: the goal is a
    pair where ``insert`` accepts and ``other``'s subset, folded down the
    inserted tree, selects one of its nodes.  When ``other`` deletes, its
    accepting states are dead — a word with a prefix in ``L(other)``
    names an insertion point the delete removes along with its copy.
    """
    selector = comp.bitset_automaton(insert.pattern, weak=False)
    reader = comp.bitset_automaton(other.pattern, weak=False)
    subtree = insert.subtree
    selects: dict[int, bool] = {}

    def goal(left: int, right: int) -> bool:
        if not left & selector.accepting:
            return False
        hit = selects.get(right)
        if hit is None:
            hit = selects[right] = bool(reader.select(subtree, below=right))
        return hit

    return guarded_product_word(
        selector,
        reader,
        comp.alphabet(insert.pattern, other.pattern),
        goal,
        dead=reader.accepting if isinstance(other, Delete) else 0,
    )


def _detect_update_update(
    op1: UpdateOp,
    op2: UpdateOp,
    exhaustive_cap: int | None,
    use_heuristics: bool,
    stats: SearchStats,
) -> ConflictReport:
    if use_heuristics:
        with span("complex.heuristic") as sp:
            witness = None
            for candidate in _heuristic_candidates(op1, op2):
                checkpoint("complex.heuristic")
                stats.heuristic_candidates += 1
                if is_commutativity_witness(candidate, op1, op2):
                    witness = candidate
                    break
            sp.set("candidates", stats.heuristic_candidates)
            sp.set("found", witness is not None)
        if witness is not None:
            return ConflictReport(
                Verdict.CONFLICT,
                ConflictKind.VALUE,
                witness=witness,
                method="heuristic",
                stats={"heuristic_candidates": stats.heuristic_candidates},
            )
    if exhaustive_cap is not None:
        roots = _witness_roots(op1, op2)
        with span("complex.exhaustive", cap=exhaustive_cap) as sp:
            witness = None
            for candidate in enumerate_trees(exhaustive_cap, _alphabet(op1, op2)):
                checkpoint("complex.exhaustive")
                if candidate.label(candidate.root) not in roots:
                    continue
                stats.candidates_checked += 1
                if is_commutativity_witness(candidate, op1, op2):
                    witness = candidate
                    break
            sp.set("candidates", stats.candidates_checked)
            sp.set("found", witness is not None)
        if witness is not None:
            return ConflictReport(
                Verdict.CONFLICT,
                ConflictKind.VALUE,
                witness=witness,
                method="exhaustive",
                stats={"candidates_checked": stats.candidates_checked},
            )
    return ConflictReport(
        Verdict.UNKNOWN,
        ConflictKind.VALUE,
        method="exhaustive",
        notes=[
            "no commutativity witness found within the search budget; the "
            "paper proves no witness-size bound for update-update conflicts"
        ],
        stats={"candidates_checked": stats.candidates_checked},
    )
