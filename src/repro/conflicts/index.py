"""Static pattern index: discharge provably-independent pairs in O(1).

Whole-catalogue analysis is quadratic in *decisions*: ``n`` operations
mean ``n(n-1)/2`` pairs, and every pair that reaches a decision procedure
pays for automaton compilation, witness search, or both.  This module
discharges pairs whose independence is evident from cheap static keys
computed **once per canonical group** (when the batch analyzer builds
the group's :class:`~repro.conflicts.batch.CanonicalOp`), so that
disjoint pairs never touch the compiler, the verdict cache, or the
worker pool.

Two pieces (``docs/INDEXING.md`` carries the full soundness argument):

* :class:`StaticProfile` / :func:`discharge` — per-pattern static keys
  (deterministic prefix chain, trunk alphabet, depth envelope, value-test
  horizon) and the pairwise rules that conclude ``NO_CONFLICT`` from them.
  The rules are *exactness-gated*: they only fire where the baseline
  decision procedure is itself exact, so an index-discharged pair
  re-decided exactly always yields ``NO_CONFLICT`` byte-for-byte.
* :func:`result_containment` — a marker-aware homomorphism check
  certifying ``[[specific]](T) ⊆ [[general]](T)`` for every tree ``T``
  (containment of *result sets*, not boolean satisfaction).  A
  standalone check: no engine path calls it.

Everything here is conservative: ``discharge`` returns ``None`` whenever
any precondition fails, and the differential oracle (index-on vs
index-off) is the arbiter that the rules stay sound as the engine evolves.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.conflicts.semantics import ConflictKind
from repro.patterns.pattern import Axis, PNodeId, TreePattern, fresh_label

__all__ = [
    "StaticProfile",
    "PatternIndex",
    "profile_pattern",
    "discharge",
    "result_containment",
]

_READ = "Read"
_INSERT = "Insert"
_DELETE = "Delete"


@dataclass(frozen=True, slots=True)
class StaticProfile:
    """Static keys of one operation's pattern, computed at canonicalization.

    All fields are plain, hashable values, so profiles serve as memo
    keys.

    * ``chain`` — labels of the *deterministic prefix*: starting at the
      root, follow the unique child while the current node has exactly one
      child reached via a CHILD edge.  Every node an embedding maps the
      pattern into sits below an instance of this chain, so two concrete,
      different labels at the same chain position force disjoint witness
      territories.  ``None`` marks a wildcard position.
    * ``trunk_det`` — spine labels up to (excluding) the first DESCENDANT
      edge: the part of the root→output path whose depth is determined.
    * ``trunk_closed`` — the whole spine uses CHILD edges, so the output
      sits at exactly ``trunk_len - 1`` edges below the root.
    * ``descendant_free`` / ``max_depth`` — no DESCENDANT edge anywhere,
      and the node count of the longest root→node path: embeddings of
      such a pattern never reach below ``max_depth`` levels.
    * ``min_test_depth`` — 1 + the smallest edge-depth of a node carrying
      a value test (``None`` without tests): above this level no update
      can flip a test outcome, because a test reads only *direct* children
      of its node.
    """

    kind: str  # "Read" | "Insert" | "Delete"
    is_linear: bool
    has_tests: bool
    size: int
    star_len: int
    chain: tuple[str | None, ...]
    trunk_det: tuple[str | None, ...]
    trunk_closed: bool
    trunk_len: int
    descendant_free: bool
    max_depth: int
    min_test_depth: int | None

    @property
    def is_read(self) -> bool:
        return self.kind == _READ


def profile_pattern(kind: str, pattern: TreePattern) -> StaticProfile:
    """Compute the :class:`StaticProfile` of ``pattern`` (one traversal)."""

    def node_label(node: PNodeId) -> str | None:
        return None if pattern.is_wildcard(node) else pattern.label(node)

    # Deterministic prefix chain: descend while there is exactly one child
    # and it is reached via a CHILD edge.  The last appended node may
    # branch below — only the labels *on* the chain are recorded.
    chain: list[str | None] = []
    node = pattern.root
    while True:
        chain.append(node_label(node))
        kids = pattern.children(node)
        if len(kids) != 1 or pattern.axis(kids[0]) is not Axis.CHILD:
            break
        node = kids[0]

    # Determined trunk: spine labels up to the first DESCENDANT edge.
    spine = pattern.spine()
    trunk_det: list[str | None] = []
    trunk_closed = True
    for index, spine_node in enumerate(spine):
        if index > 0 and pattern.axis(spine_node) is not Axis.CHILD:
            trunk_closed = False
            break
        trunk_det.append(node_label(spine_node))

    descendant_free = all(
        pattern.axis(n) is not Axis.DESCENDANT
        for n in pattern.nodes()
        if pattern.parent(n) is not None
    )
    max_depth = 1 + max(pattern.depth(n) for n in pattern.nodes())

    min_test_depth: int | None = None
    if pattern.has_value_tests():
        min_test_depth = min(
            pattern.depth(n) + 1
            for n in pattern.nodes()
            if pattern.value_test(n) is not None
        )

    return StaticProfile(
        kind=kind,
        is_linear=pattern.is_linear,
        has_tests=pattern.has_value_tests(),
        size=pattern.size,
        star_len=pattern.star_length(),
        chain=tuple(chain),
        trunk_det=tuple(trunk_det),
        trunk_closed=trunk_closed,
        trunk_len=len(spine),
        descendant_free=descendant_free,
        max_depth=max_depth,
        min_test_depth=min_test_depth,
    )


def _orient(
    first: StaticProfile, second: StaticProfile
) -> tuple[StaticProfile, StaticProfile] | None:
    """Return ``(read, update)`` or ``None`` when the pair is not indexable.

    Read/read pairs never conflict (the trivial path upstream handles
    them).  Update/update pairs are *never* discharged: the engine
    certifies ``NO_CONFLICT`` for linear ones, but no discharge rule has
    been re-proved for update pairs (the read/update chain clash does
    not carry over to branching updates).
    """
    if first.is_read and not second.is_read:
        return first, second
    if second.is_read and not first.is_read:
        return second, first
    return None


def _exactness_gate(read: StaticProfile, update: StaticProfile, exhaustive_cap: int | None) -> bool:
    """Would the baseline decide this pair *exactly*?

    Linear reads go through the exact PTIME engine.  Branching reads go
    through bounded witness search, which certifies ``NO_CONFLICT`` only
    when the Lemma-11 size bound fits under ``exhaustive_cap``.  Index
    discharge must imply the baseline's answer, so it fires only where
    the baseline would certify too.
    """
    if read.is_linear:
        return True
    if exhaustive_cap is None:
        return False
    bound = read.size * update.size * (read.star_len + 1)
    return bound <= exhaustive_cap


def _test_horizon(read: StaticProfile) -> int | None:
    """Chain positions ``< horizon`` are safe from value-test flips.

    A value test inspects only *direct* children of its node.  The
    shallowest test sits at edge-depth ``min_test_depth - 1``, so any
    witness interaction that stays strictly above ``min_test_depth``
    chain positions cannot flip a test.  ``None`` means no restriction.
    """
    return read.min_test_depth if read.has_tests else None


def _chain_clash(read: StaticProfile, update: StaticProfile) -> bool:
    """R1: the read's deterministic prefix clashes with the update trunk.

    If position ``i`` carries two concrete, different labels, every
    embedding of the read and every embedding of the update target live
    under incompatible depth-``i`` ancestors in any common tree, so
    neither the node set nor any output can be touched by the update.
    With value tests on the read, the clash must additionally sit above
    the test horizon (tests below the clash can never be reached by the
    update's modification anyway, since the modification happens in the
    update trunk's territory).
    """
    horizon = _test_horizon(read)
    limit = min(len(read.chain), len(update.trunk_det))
    for position in range(limit):
        read_label = read.chain[position]
        update_label = update.trunk_det[position]
        if read_label is None or update_label is None:
            continue
        if read_label != update_label:
            return horizon is None or position < horizon
    return False


def _depth_separation(read: StaticProfile, update: StaticProfile) -> bool:
    """R3: the update acts strictly below everything the read can see.

    Requires a descendant-free read (its embeddings never reach below
    ``max_depth`` node levels) and a closed update trunk (the target sits
    at exactly ``trunk_len`` node levels).  A deep-enough update then
    cannot delete a read-visible node or change the read's result set.
    Sound for the NODE conflict kind only — SUBTREE conflicts reach
    arbitrarily deep.  Value tests push the threshold down by one level
    (insert) or two (delete), because a test at the read frontier reads
    direct children one level below ``max_depth`` and a delete removes
    the whole subtree under a target one further level down.
    """
    if not read.descendant_free or not update.trunk_closed:
        return False
    if update.kind == _DELETE:
        threshold = read.max_depth + (2 if read.has_tests else 1)
    else:
        threshold = read.max_depth + (1 if read.has_tests else 0)
    return update.trunk_len >= threshold


def discharge(
    first: StaticProfile,
    second: StaticProfile,
    *,
    kind: ConflictKind,
    exhaustive_cap: int | None,
) -> str | None:
    """Discharge the pair ``NO_CONFLICT`` from static keys, or refuse.

    Returns a reason string (``"index:chain"`` or ``"index:depth"``) when
    some rule certifies independence *and* the exactness gate guarantees
    the baseline decision procedure would certify it too; ``None``
    otherwise.  Read/read and update/update pairs always return ``None``
    (handled trivially upstream / never dischargeable, respectively).
    """
    oriented = _orient(first, second)
    if oriented is None:
        return None
    read, update = oriented
    if not _exactness_gate(read, update, exhaustive_cap):
        return None
    if _chain_clash(read, update):
        return "index:chain"
    if kind is ConflictKind.NODE and _depth_separation(read, update):
        return "index:depth"
    return None


class PatternIndex:
    """Memoized pairwise discharge over :class:`StaticProfile` pairs.

    ``discharge`` applies the full rule set and memoizes per distinct
    profile pair, so a catalogue with ``G`` distinct patterns pays at most
    ``G²`` rule evaluations regardless of how many name pairs those
    profiles cover.
    """

    def __init__(self, *, kind: ConflictKind, exhaustive_cap: int | None) -> None:
        self.kind = kind
        self.exhaustive_cap = exhaustive_cap
        self._memo: dict[tuple[StaticProfile, StaticProfile], str | None] = {}

    def discharge(self, first: StaticProfile, second: StaticProfile) -> str | None:
        key = (first, second) if first.kind <= second.kind else (second, first)
        try:
            return self._memo[key]
        except KeyError:
            reason = discharge(
                first, second, kind=self.kind, exhaustive_cap=self.exhaustive_cap
            )
            self._memo[key] = reason
            return reason


def result_containment(general: TreePattern, specific: TreePattern) -> bool:
    """Certify ``[[specific]](T) ⊆ [[general]](T)`` for every tree ``T``.

    Result-set containment, not boolean containment: every node the
    specific pattern outputs on any tree is also output by the general
    pattern.  Certified by a homomorphism between *marked* patterns: add
    a fresh CHILD leaf under both outputs and require a homomorphism from
    the marked general to the marked specific in which **only** the
    marker source node may map to the marker target node.  Composing that
    homomorphism with an embedding of the marked specific pattern (the
    marker leaf tracks the output node) yields an embedding of the marked
    general pattern sending output to output.

    The marker restriction is essential: without it a wildcard leaf of
    the general pattern could map onto the artificial marker node and
    certify containments that fail on real trees (``a[*]`` vs ``a``).

    Three necessary conditions are checked first, without copying or
    marking anything: the homomorphism sends root to root and output to
    output, so both pairs must pass the label test, and every edge maps
    to a downward path of at least one edge, so the general output can
    sit no deeper than the specific one.  A pair failing any of them has
    no homomorphism, so refuting it early changes no answer.

    Sound only for test-free patterns — the homomorphism ignores value
    tests, so callers must ensure neither pattern carries any.
    """
    if not (
        _label_ok(general, general.root, specific, specific.root)
        and _label_ok(general, general.output, specific, specific.output)
        and general.depth(general.output) <= specific.depth(specific.output)
    ):
        return False
    return _marked_homomorphism(general, specific)


def _marked_homomorphism(general: TreePattern, specific: TreePattern) -> bool:
    """The marker-restricted homomorphism of :func:`result_containment`,
    without its refutation."""
    avoid = general.labels() | specific.labels()
    marker = fresh_label(avoid, stem="out")

    marked_general = general.copy()
    general_marker = marked_general.add_child(
        marked_general.output, marker, Axis.CHILD
    )
    marked_specific = specific.copy()
    specific_marker = marked_specific.add_child(
        marked_specific.output, marker, Axis.CHILD
    )

    target_nodes = list(marked_specific.nodes())
    ok: dict[PNodeId, set[PNodeId]] = {}
    for source_node in marked_general.postorder():
        if source_node == general_marker:
            candidates = {specific_marker}
        else:
            candidates = {
                u
                for u in target_nodes
                if u != specific_marker
                and _label_ok(marked_general, source_node, marked_specific, u)
            }
        for child in marked_general.children(source_node):
            axis = marked_general.axis(child)
            if axis is Axis.CHILD:
                allowed = {
                    marked_specific.parent(u)
                    for u in ok[child]
                    if marked_specific.parent(u) is not None
                    and marked_specific.axis(u) is Axis.CHILD
                }
            else:
                allowed = set()
                for u in ok[child]:
                    ancestor = marked_specific.parent(u)
                    while ancestor is not None:
                        allowed.add(ancestor)
                        ancestor = marked_specific.parent(ancestor)
            candidates &= allowed
            if not candidates:
                break
        ok[source_node] = candidates
    return marked_specific.root in ok[marked_general.root]


def _label_ok(
    source: TreePattern, s: PNodeId, target: TreePattern, u: PNodeId
) -> bool:
    if source.is_wildcard(s):
        return True
    return not target.is_wildcard(u) and target.label(u) == source.label(s)
