"""Conflict detection for branching reads — the NP-complete case (Section 5).

For patterns in ``P^{//,[],*}`` read-insert and read-delete conflict
detection is NP-complete (Theorems 3–6).  This module implements the NP
side constructively:

* :func:`witness_size_bound` — the Lemma 11 bound: a conflict, if any, has
  a witness with at most ``|R| · |U| · (k+1)`` nodes, ``k`` the
  STAR-LENGTH of the read, over the alphabet ``Σ_R ∪ Σ_U ∪ {α}``.
* :func:`find_witness_exhaustive` — the guess-and-check procedure made
  deterministic: enumerate every unordered labeled candidate tree up to a
  size cap (one per isomorphism class, via :mod:`repro.xml.enumerate`) and
  apply the polynomial Lemma 1 checker.  Complete up to the cap; running it
  to the full Lemma 11 bound is a complete decision procedure — and
  exponentially expensive, which is experiment E4's point.
* :func:`find_witness_heuristic` — a sound, incomplete fast path that
  checks a small family of *candidate* witnesses derived from the patterns
  themselves (canonical models of the update pattern, of the read pattern,
  and merged variants).  In practice it resolves most conflicting instances
  without enumeration; "not found" means nothing.
* :func:`decide_conflict` — the combined procedure: a sound PTIME trunk
  prefilter, then the PTIME chain rule (node semantics), then heuristics,
  then bounded enumeration; verdict ``UNKNOWN`` when the cap was below the
  Lemma 11 bound and no witness was found.

The *trunk prefilter* discharges pairs the search could never certify:
any read-update conflict requires some root-to-leaf chain of the read to
weakly match the update's trunk (a changed result embedding must route an
image through a node the update created or destroyed, and the chain from
the root to that image is a common witness chain in the sense of
Definition 7) — and for tree/value semantics, additionally the update
point may sit at or below a read result (``trunk(U)`` weakly matching
``trunk(R)``).  When every one of those linear matching questions is
empty, ``NO_CONFLICT`` is definitive — turning many small-cap ``UNKNOWN``
verdicts into exact answers at PTIME cost.  The matching questions run on
the bitset kernel via the compile layer
(:class:`repro.compile.PatternCompiler`), so the branching path shares
the linear path's mask artifacts and memoized matching words.

The *chain rule* (node semantics, an extension of the paper) reduces the
read to linear chains, as Corollaries 1–2 reduce an update to its trunk,
and decides each chain exactly with Theorems 1–2
(:mod:`repro.conflicts.linear`).  An insert only adds nodes, so a new
result is a new node, which the output chain ``SEQ_ROOT(R)^{O(R)}``
alone gains, or an old node reached through an embedding that sends a
branch node, and with it a leaf below, into an inserted copy, so that
leaf's chain alone gains a result; a delete is the mirror image.  Hence
the pair commutes when every such chain does.  When the output chain
conflicts, its witness with a model of each of the read's side branches
grafted under every node is checked with Lemma 1 and reported if it
passes.  Every other pair goes on to the search.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs import global_metrics, span
from repro.conflicts.linear import (
    _augment_with_side_branches,
    detect_read_delete_linear,
    detect_read_insert_linear,
    has_node_conflict,
)
from repro.conflicts.semantics import (
    ConflictKind,
    ConflictReport,
    Verdict,
    is_witness,
    strip_value_tests,
)
from repro.operations.ops import Insert, Read, UpdateOp
from repro.patterns.containment import canonical_models
from repro.patterns.pattern import TreePattern, fresh_label
from repro.resilience.budget import checkpoint
from repro.xml.enumerate import enumerate_trees
from repro.xml.tree import XMLTree

__all__ = [
    "witness_size_bound",
    "witness_alphabet",
    "find_witness_exhaustive",
    "find_witness_heuristic",
    "enumerate_witnesses",
    "decide_conflict",
    "SearchStats",
]

#: Default cap on exhaustive candidate size.  Enumeration counts explode
#: combinatorially; 5 nodes over a 4-letter alphabet is already ~10^4
#: candidates, and each costs several pattern evaluations to check.
DEFAULT_EXHAUSTIVE_CAP = 5


@dataclass
class SearchStats:
    """Counters from a witness search (exposed in ``ConflictReport.stats``).

    Besides feeding the per-report ``stats`` dict (a stable, backward-
    compatible contract — see ``tests/test_obs.py``), a ``SearchStats``
    doubles as the *batching buffer* for the metrics registry: the tight
    enumeration loops bump these plain attributes, and :meth:`publish`
    adds the totals to :func:`repro.obs.global_metrics` once per search.
    """

    candidates_checked: int = 0
    heuristic_candidates: int = 0
    cap_used: int = 0
    bound: int = 0

    def publish(self) -> None:
        """Batch-add these counters into the global metrics registry."""
        metrics = global_metrics()
        if self.candidates_checked:
            metrics.inc("search.candidates_checked", self.candidates_checked)
        if self.heuristic_candidates:
            metrics.inc("search.heuristic_candidates", self.heuristic_candidates)


def witness_size_bound(read: Read, update: UpdateOp) -> int:
    """The Lemma 11 witness-size bound ``|R| · |U| · (k+1)``.

    ``k`` is the STAR-LENGTH of the read pattern.  Any conflict between the
    operations has a witness of at most this many nodes.
    """
    k = read.pattern.star_length()
    return read.pattern.size * update.pattern.size * (k + 1)


def witness_alphabet(read: Read, update: UpdateOp) -> tuple[str, ...]:
    """The finite witness alphabet ``Σ_R ∪ Σ_U ∪ {α}`` (Lemma 11)."""
    labels = read.pattern.labels() | update.pattern.labels()
    if isinstance(update, Insert):
        labels |= update.subtree.labels()
    alpha = fresh_label(labels, stem="alpha")
    return tuple(sorted(labels | {alpha}))


def find_witness_exhaustive(
    read: Read,
    update: UpdateOp,
    kind: ConflictKind = ConflictKind.NODE,
    max_size: int | None = None,
    alphabet: tuple[str, ...] | None = None,
    stats: SearchStats | None = None,
) -> XMLTree | None:
    """Enumerate candidate trees up to ``max_size`` and check each (Lemma 1).

    Complete up to the size cap: returns a witness if one of at most
    ``max_size`` nodes exists, else ``None``.  With
    ``max_size >= witness_size_bound(read, update)`` this is a complete
    decision procedure for the conflict (Theorems 3/5).
    """
    if max_size is None:
        max_size = min(DEFAULT_EXHAUSTIVE_CAP, witness_size_bound(read, update))
    if alphabet is None:
        alphabet = witness_alphabet(read, update)
    for candidate in enumerate_trees(max_size, alphabet):
        checkpoint("general.exhaustive")
        if stats is not None:
            stats.candidates_checked += 1
        if is_witness(candidate, read, update, kind):
            return candidate
    return None


def enumerate_witnesses(
    read: Read,
    update: UpdateOp,
    kind: ConflictKind = ConflictKind.NODE,
    max_size: int | None = None,
    limit: int | None = None,
):  # type: ignore[no-untyped-def]
    """Yield *every* witness tree up to ``max_size``, one per iso class.

    Useful for exploring the shape space of a conflict (tests, teaching,
    minimization studies).  ``limit`` caps the number yielded; ``max_size``
    defaults like :func:`find_witness_exhaustive`.
    """
    if max_size is None:
        max_size = min(DEFAULT_EXHAUSTIVE_CAP, witness_size_bound(read, update))
    yielded = 0
    for candidate in enumerate_trees(max_size, witness_alphabet(read, update)):
        if is_witness(candidate, read, update, kind):
            yield candidate
            yielded += 1
            if limit is not None and yielded >= limit:
                return


def find_witness_heuristic(
    read: Read,
    update: UpdateOp,
    kind: ConflictKind = ConflictKind.NODE,
    stats: SearchStats | None = None,
) -> XMLTree | None:
    """Check a pattern-derived family of candidate witnesses.

    Sound (every returned tree passes the Lemma 1 check) but incomplete.
    The candidate family:

    1. canonical models of the **update** pattern with descendant gaps up
       to ``STAR-LENGTH(read) + 1`` — trees on which the update certainly
       fires, so any read overlap shows up;
    2. canonical models of the **read** pattern — trees the read certainly
       selects from, so any update damage shows up;
    3. merged models: a read model with an update model grafted under each
       node (and vice versa), covering conflicts that need both patterns
       satisfied in one tree but not along one spine.
    """
    candidates = _heuristic_candidates(read, update)
    for candidate in candidates:
        checkpoint("general.heuristic")
        if stats is not None:
            stats.heuristic_candidates += 1
        if is_witness(candidate, read, update, kind):
            return candidate
    return None


def _heuristic_candidates(read: Read, update: UpdateOp) -> list[XMLTree]:
    avoid = read.pattern.labels() | update.pattern.labels()
    if isinstance(update, Insert):
        avoid = avoid | update.subtree.labels()
    z = fresh_label(avoid, stem="zeta")

    max_gap = read.pattern.star_length() + 1
    out: list[XMLTree] = []
    update_models = _bounded_models(update.pattern, max_gap, z)
    read_models = _bounded_models(read.pattern, update.pattern.star_length() + 1, z)
    out.extend(update_models)
    out.extend(read_models)

    # Merged candidates: satisfy both patterns in one tree.
    for base in update_models[:8]:
        for extra in read_models[:4]:
            merged = base.copy()
            for anchor in list(merged.nodes()):
                merged.graft(anchor, extra)
            out.append(merged)
    for base in read_models[:8]:
        for extra in update_models[:4]:
            merged = base.copy()
            for anchor in list(merged.nodes()):
                merged.graft(anchor, extra)
            out.append(merged)
    return out


def _bounded_models(
    pattern: TreePattern, max_gap: int, z_label: str, cap: int = 64
) -> list[XMLTree]:
    """Canonical models of ``pattern``, truncated to at most ``cap`` trees."""
    try:
        models = canonical_models(pattern, max_gap, z_label)
    except MemoryError:  # pragma: no cover - extreme inputs
        models = canonical_models(pattern, 1, z_label)
    return models[:cap]


def decide_conflict(
    read: Read,
    update: UpdateOp,
    kind: ConflictKind = ConflictKind.NODE,
    exhaustive_cap: int | None = DEFAULT_EXHAUSTIVE_CAP,
    use_heuristics: bool = True,
    compiler=None,
) -> ConflictReport:
    """Combined general-case decision: prefilter, chains, heuristics, enumeration.

    Args:
        exhaustive_cap: largest candidate size to enumerate; ``None``
            disables enumeration entirely (heuristics only).  When the cap
            (clamped to the Lemma 11 bound) covers the bound, the verdict
            is definitive; otherwise absence of a witness yields
            ``UNKNOWN``.
        use_heuristics: try the candidate family first.
        compiler: the :class:`repro.compile.PatternCompiler` the trunk
            prefilter's and the chain rule's linear questions memoize in;
            the process-global compiler by default.

    The prefilter and, for node semantics, the chain rule run whatever
    ``exhaustive_cap`` and ``use_heuristics`` say: both are PTIME and
    exact where they answer.

    Value tests are stripped before searching: the candidate enumeration
    produces element-only trees, so test-carrying patterns would silently
    under-match and a "definitive" NO_CONFLICT could be wrong.  Stripping
    keeps the procedure sound (over-approximating) and is recorded in the
    report's notes, one :data:`~repro.conflicts.semantics.STRIPPED_NOTE`
    per stripped operation.
    """
    with span(
        "general.decide",
        read_size=read.pattern.size,
        update_size=update.pattern.size,
        kind=kind.value,
    ) as sp:
        read, update, strip_notes = strip_value_tests(read, update)
        report = _decide_conflict_stripped(
            read, update, kind, exhaustive_cap, use_heuristics, compiler
        )
        report.notes.extend(strip_notes)
        sp.set("verdict", report.verdict.value)
        sp.set("method", report.method)
        return report


def _decide_conflict_stripped(
    read: Read,
    update: UpdateOp,
    kind: ConflictKind,
    exhaustive_cap: int | None,
    use_heuristics: bool,
    compiler,
) -> ConflictReport:
    stats = SearchStats(bound=witness_size_bound(read, update))
    try:
        return _run_search(
            read, update, kind, exhaustive_cap, use_heuristics, stats, compiler
        )
    finally:
        # One batched registry update per query, win or lose, so counter
        # totals match what the reports saw even on early returns.
        stats.publish()


def _trunk_prefilter_discharges(
    read: Read, update: UpdateOp, kind: ConflictKind, comp
) -> bool:
    """Sound PTIME independence test for a (possibly branching) read.

    A node conflict needs an embedding of the read whose output image was
    created or destroyed by the update, i.e. an image at or below the
    update point — so *some* root-to-leaf chain of the read must weakly
    match the update trunk (checking leaves suffices: a weak match of
    ``SEQ_ROOT(R)`` through any node survives extending the chain down to
    a leaf below it).  Tree/value conflicts additionally arise when the
    update fires inside a surviving result's subtree, which requires the
    update point at or below a read result: ``trunk(U)`` weakly matching
    ``trunk(R)``.  When every such matching question is empty, no tree on
    which both operations interact exists at all, and ``NO_CONFLICT`` is
    definitive regardless of the enumeration cap.
    """
    rp = read.pattern
    trunk_c = comp.trunk(update.pattern)
    # Inner nodes need no chain of their own: a leaf below subsumes it.
    for chain in comp.leaf_chains(rp):
        if comp.match(chain, trunk_c, weak=True):
            return False
    if kind is not ConflictKind.NODE:
        if comp.match(trunk_c, comp.trunk(rp), weak=True):
            return False
    return True


def _decide_by_chains(
    read: Read, update: UpdateOp, comp, stats: SearchStats
) -> ConflictReport | None:
    """The chain rule for node semantics, or ``None`` to leave the pair.

    A changed result set changes the result set of the output chain
    ``SEQ_ROOT(R)^{O(R)}`` or of some root-to-leaf chain read alone (see
    the module docstring), and Theorems 1–2 decide each chain exactly.
    So the pair commutes when all of them do.  When the output chain
    conflicts, its witness with R's side branches grafted under every
    node is a candidate; it is reported only if it passes Lemma 1.
    """
    rp = read.pattern
    output = comp.trunk(rp)
    detect = (
        detect_read_insert_linear
        if isinstance(update, Insert)
        else detect_read_delete_linear
    )
    chain_report = detect(Read(output.pattern), update, compiler=comp)
    if chain_report.verdict is Verdict.CONFLICT:
        avoid = update.pattern.labels()
        if isinstance(update, Insert):
            avoid |= update.subtree.labels()
        witness = _augment_with_side_branches(
            chain_report.witness, rp, extra_avoid=avoid
        )
        if not is_witness(witness, read, update, ConflictKind.NODE):
            return None
        return ConflictReport(
            Verdict.CONFLICT,
            ConflictKind.NODE,
            witness=witness,
            method="read-chains",
            notes=[
                "the read's output chain conflicts with the update, and "
                "its witness keeps the conflict with the read's side "
                "branches grafted under every node"
            ],
            stats=_stats_dict(stats),
        )
    for chain in comp.leaf_chains(rp):
        if chain != output and has_node_conflict(chain, update, comp):
            return None
    return ConflictReport(
        Verdict.NO_CONFLICT,
        ConflictKind.NODE,
        method="read-chains",
        notes=[
            "the read's output chain and every root-to-leaf chain are "
            "each conflict-free with the update, and a changed result "
            "would change one of them"
        ],
        stats=_stats_dict(stats),
    )


def _run_search(
    read: Read,
    update: UpdateOp,
    kind: ConflictKind,
    exhaustive_cap: int | None,
    use_heuristics: bool,
    stats: SearchStats,
    compiler,
) -> ConflictReport:
    if compiler is None:
        from repro.compile.compiler import global_compiler

        compiler = global_compiler()
    with span("general.prefilter", bound=stats.bound) as sp:
        discharged = _trunk_prefilter_discharges(read, update, kind, compiler)
        sp.set("discharged", discharged)
    if discharged:
        global_metrics().inc("general.prefilter_discharged")
        return ConflictReport(
            Verdict.NO_CONFLICT,
            kind,
            method="trunk-prefilter",
            notes=[
                "no root-to-leaf chain of the read weakly matches the "
                "update trunk (and, for tree/value semantics, the update "
                "point cannot sit at or below a read result), so no "
                "witness of any size exists"
            ],
            stats=_stats_dict(stats),
        )
    if kind is ConflictKind.NODE:
        with span("general.chains", bound=stats.bound) as sp:
            report = _decide_by_chains(read, update, compiler, stats)
            sp.set("decided", report is not None)
        if report is not None:
            global_metrics().inc(
                "general.chains_decided", verdict=report.verdict.value
            )
            return report
    if use_heuristics:
        with span("general.heuristic", bound=stats.bound) as sp:
            witness = find_witness_heuristic(read, update, kind, stats=stats)
            sp.set("candidates", stats.heuristic_candidates)
            sp.set("found", witness is not None)
        if witness is not None:
            return ConflictReport(
                Verdict.CONFLICT,
                kind,
                witness=witness,
                method="heuristic",
                stats=_stats_dict(stats),
            )
    if exhaustive_cap is None:
        return ConflictReport(
            Verdict.UNKNOWN,
            kind,
            method="heuristic",
            notes=["heuristics found no witness and enumeration is disabled"],
            stats=_stats_dict(stats),
        )
    cap = min(exhaustive_cap, stats.bound)
    stats.cap_used = cap
    with span("general.exhaustive", cap=cap, bound=stats.bound) as sp:
        witness = find_witness_exhaustive(
            read, update, kind, max_size=cap, stats=stats
        )
        sp.set("candidates", stats.candidates_checked)
        sp.set("found", witness is not None)
    if witness is not None:
        return ConflictReport(
            Verdict.CONFLICT,
            kind,
            witness=witness,
            method="exhaustive",
            stats=_stats_dict(stats),
        )
    if cap >= stats.bound:
        return ConflictReport(
            Verdict.NO_CONFLICT,
            kind,
            method="exhaustive",
            stats=_stats_dict(stats),
        )
    return ConflictReport(
        Verdict.UNKNOWN,
        kind,
        method="exhaustive",
        notes=[
            f"no witness up to size {cap}; the Lemma 11 bound is "
            f"{stats.bound}, so larger witnesses remain possible"
        ],
        stats=_stats_dict(stats),
    )


def _stats_dict(stats: SearchStats) -> dict[str, int]:
    return {
        "candidates_checked": stats.candidates_checked,
        "heuristic_candidates": stats.heuristic_candidates,
        "cap_used": stats.cap_used,
        "bound": stats.bound,
    }
