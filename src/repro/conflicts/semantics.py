"""Conflict semantics and polynomial witness checking (Section 3, Lemma 1).

The paper defines three semantics for "the read ``R`` conflicts with the
update ``U``" — all existentially quantified over a *witness* tree ``t``:

* **node conflict** (reference-based): ``R(U(t)) != R(t)`` as sets of node
  references.
* **tree conflict** (reference-based): the sets ``[[p]]_T(U(t))`` and
  ``[[p]]_T(t)`` differ — i.e. there is a node conflict *or* some selected
  subtree was modified by the update.
* **value conflict** (value-based): ``[[p]]_T(U(t))`` and ``[[p]]_T(t)``
  are not isomorphic as sets of trees (Definition 1).

Lemma 1 observes that *checking* whether a given tree witnesses a conflict
is polynomial for all three semantics; this module implements those checks.
They are the foundation of everything above them: the NP-membership
algorithms guess-and-check with them, the PTIME algorithms verify their
constructed witnesses with them, and the test-suite uses them as ground
truth.

Monotonicity facts used throughout (the pattern language is positive):
``R(I(t)) ⊇ R(t)`` for any insert and ``R(D(t)) ⊆ R(t)`` for any delete.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.operations.ops import Delete, Insert, Read, UpdateOp
from repro.xml.isomorphism import canonical_forms_of_set
from repro.xml.tree import XMLTree

__all__ = [
    "ConflictKind",
    "Verdict",
    "ConflictReport",
    "is_witness",
    "is_node_conflict_witness",
    "is_tree_conflict_witness",
    "is_value_conflict_witness",
    "strip_value_tests",
]


class ConflictKind(enum.Enum):
    """Which of the paper's three conflict semantics is meant."""

    NODE = "node"
    TREE = "tree"
    VALUE = "value"


class Verdict(enum.Enum):
    """Outcome of a conflict-detection query.

    ``UNKNOWN`` only arises from incomplete methods (bounded exhaustive
    search below the Lemma 11 bound, or heuristics); the PTIME algorithms
    and in-budget exhaustive searches always return a definite verdict.
    """

    CONFLICT = "conflict"
    NO_CONFLICT = "no-conflict"
    UNKNOWN = "unknown"


@dataclass
class ConflictReport:
    """Result of a conflict-detection query.

    Attributes:
        verdict: definite answer or ``UNKNOWN``.
        kind: the semantics that was decided.
        witness: a concrete witness tree when ``verdict`` is ``CONFLICT``
            and the method produces witnesses (always re-checked against
            :func:`is_witness` before being returned).
        method: short identifier of the deciding algorithm
            (``"linear-ptime"``, ``"exhaustive"``, ``"heuristic"``, ...).
        notes: human-readable caveats (e.g. value tests were stripped).
        stats: method-specific counters (trees explored, NFA sizes, ...).
        reason: machine-readable degradation reason when the verdict is a
            *degraded* ``UNKNOWN`` produced by the resilience layer
            (``"timeout"``, ``"step_limit"``, ``"worker_crash"``);
            ``None`` for every ordinary verdict, including UNKNOWNs that
            merely reflect an under-budget bounded search.
    """

    verdict: Verdict
    kind: ConflictKind
    witness: XMLTree | None = None
    method: str = ""
    notes: list[str] = field(default_factory=list)
    stats: dict[str, int] = field(default_factory=dict)
    reason: str | None = None

    @property
    def degraded(self) -> bool:
        """True iff the resilience layer degraded this decision."""
        return self.reason is not None

    @property
    def conflict(self) -> bool:
        """True iff the verdict is ``CONFLICT`` (raises on ``UNKNOWN``)."""
        if self.verdict is Verdict.UNKNOWN:
            raise ValueError(
                "verdict is UNKNOWN; inspect .verdict instead of .conflict"
            )
        return self.verdict is Verdict.CONFLICT


#: The caveat :func:`strip_value_tests` records per operation it changed.
STRIPPED_NOTE = (
    "value tests were stripped from a pattern; the verdict is a "
    "sound over-approximation (conflicts may be spurious, "
    "no-conflict verdicts are exact)"
)


def strip_value_tests(first, second):  # type: ignore[no-untyped-def]
    """Both operations with value tests stripped from their patterns.

    Removing a test only widens what a pattern can match.  Returns
    ``(first, second, notes)``: an operation without tests comes back
    unchanged, and ``notes`` holds one :data:`STRIPPED_NOTE` per
    operation that was not.
    """
    notes: list[str] = []

    def strip(op):  # type: ignore[no-untyped-def]
        if not op.pattern.has_value_tests():
            return op
        notes.append(STRIPPED_NOTE)
        stripped = op.pattern.strip_value_tests()
        if isinstance(op, Read):
            return Read(stripped)
        if isinstance(op, Insert):
            return Insert(stripped, op.subtree)
        return Delete(stripped)

    return strip(first), strip(second), notes


def is_node_conflict_witness(tree: XMLTree, read: Read, update: UpdateOp) -> bool:
    """Does ``tree`` witness a node conflict?  (``R(U(t)) != R(t)``)

    Polynomial: two pattern evaluations and a set comparison (Lemma 1).
    """
    before = read.apply(tree)
    after_result = update.apply(tree)
    after = read.apply(after_result.tree)
    return before != after


def is_tree_conflict_witness(tree: XMLTree, read: Read, update: UpdateOp) -> bool:
    """Does ``tree`` witness a tree conflict?

    Per Lemma 1's recipe: check the node sets, then check that no selected
    node's subtree carries a "modified" flag.  The flags are the
    ``dirty`` set computed by the update application (insertion points and
    their ancestors; deletion parents and their ancestors).
    """
    before = read.apply(tree)
    after_result = update.apply(tree)
    after = read.apply(after_result.tree)
    if before != after:
        return True
    return any(node in after_result.dirty for node in after)


def is_value_conflict_witness(tree: XMLTree, read: Read, update: UpdateOp) -> bool:
    """Does ``tree`` witness a value conflict?

    Compares ``[[p]]_T(U(t))`` with ``[[p]]_T(t)`` up to labeled-tree
    isomorphism, using the AHU-style canonical forms of
    :mod:`repro.xml.isomorphism` (linear-time per subtree, as Lemma 1's
    proof requires).
    """
    before = read.apply(tree)
    after_result = update.apply(tree)
    after = read.apply(after_result.tree)
    forms_before = canonical_forms_of_set(tree, before)
    forms_after = canonical_forms_of_set(after_result.tree, after)
    return forms_before != forms_after


_CHECKERS = {
    ConflictKind.NODE: is_node_conflict_witness,
    ConflictKind.TREE: is_tree_conflict_witness,
    ConflictKind.VALUE: is_value_conflict_witness,
}


def is_witness(
    tree: XMLTree,
    read: Read,
    update: UpdateOp,
    kind: ConflictKind = ConflictKind.NODE,
) -> bool:
    """Dispatch to the checker for ``kind`` (Lemma 1)."""
    return _CHECKERS[kind](tree, read, update)


def check_monotonicity(tree: XMLTree, read: Read, update: UpdateOp) -> bool:
    """Sanity invariant: inserts grow, deletes shrink, the read result.

    Used by property-based tests; returns True when the invariant holds on
    this input.
    """
    before = read.apply(tree)
    after = read.apply(update.apply(tree).tree)
    if isinstance(update, Insert):
        return after >= before
    if isinstance(update, Delete):
        return after <= before
    raise TypeError(f"unsupported update type {type(update)!r}")
