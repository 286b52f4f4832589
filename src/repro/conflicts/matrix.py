"""The conflict matrix: pairwise verdicts over a named operation set.

A pair's verdict depends only on the canonical shapes of its two
operations, never on the names that carry them (Section 7 uses the
catalogue exactly this way).  :class:`ConflictMatrix` therefore
partitions its names into *canonical groups* — one group per distinct
canonical form — and keeps one :class:`Cell` per unordered pair of
groups: the verdict, how it was obtained, and why it was degraded, if
it was.  A name pair reads the cell of its two groups, so a catalogue of
``n`` names over ``G`` shapes costs ``O(G²)`` cells instead of ``O(n²)``
name pairs, and every name-pair tally is a multiplicity-weighted sum.

Only the cells of group pairs that hold an update group are stored.  A
read never changes the tree, so two reads never conflict: the matrix
answers every pair of two groups added as reads itself, with one shared
``trivial`` cell, and its tallies and listings count those pairs
arithmetically.  A read-heavy catalogue thus allocates nothing for most
of its group pairs.  :meth:`ConflictMatrix.schedule` works per group
too: whether a name fits a batch depends only on its group and the
groups the batch holds.

This module is the only code that knows the layout.  The batch engine
adds and removes names and fills cells through the methods below;
everything else reads name pairs through the query API.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Hashable, Iterator
from typing import NamedTuple

from repro.conflicts.semantics import Verdict

__all__ = ["ConflictMatrix"]

#: Origin prefixes of pairs discharged without a decision procedure.
_STATIC = ("index:", "containment:")


class Cell(NamedTuple):
    """The verdict shared by every name pair of one group pair.

    ``origin`` is how the verdict was obtained: ``"decided"`` (a decision
    procedure ran), ``"trivial"`` (two reads; never stored), ``"cached"``,
    ``"index:chain"``/``"index:depth"`` (static-index discharge), or
    ``"containment:<parent>"`` (propagated from a subsuming read).
    ``reason`` is set only for *degraded* verdicts: an ``UNKNOWN`` forced
    by the resilience layer (``timeout``, ``step_limit``,
    ``worker_crash``) rather than decided by the engine.
    """

    verdict: Verdict
    origin: str
    reason: str | None


#: The cell of every pair of two read groups, never stored.
_TRIVIAL = Cell(Verdict.NO_CONFLICT, "trivial", None)


class ConflictMatrix:
    """Pairwise may-conflict verdicts over a named operation set.

    Degraded pairs stay conservatively sound — schedulers already treat
    ``UNKNOWN`` as may-conflict — but their reason lets callers tell "the
    theory ran out" from "the infrastructure gave up" and re-run the
    latter (:meth:`reason`, :meth:`degraded_pairs`).

    ``names`` lists the catalogue in order; read it, but change the
    catalogue only through :class:`~repro.conflicts.batch.BatchAnalyzer`.
    """

    #: :meth:`to_dict` lists one entry per name pair up to this many
    #: names, and one entry per group pair (with its multiplicity) above.
    PAIR_LISTING_LIMIT = 512

    def __init__(self) -> None:
        self.names: list[str] = []
        self._group_of: dict[str, int] = {}
        # Group id -> members in catalogue order.  Ids are never reused,
        # so iteration order is the order groups first appeared.
        self._members: dict[int, list[str]] = {}
        self._group_by_key: dict[Hashable, int] = {}
        self._next_group = 0
        self._cells: dict[tuple[int, int], Cell] = {}
        self._shared: dict[Cell, Cell] = {}
        # Ids of the groups added as reads; a pair of two of them is
        # answered by ``_TRIVIAL`` and has no entry in ``_cells``.
        self._reads: set[int] = set()

    # ------------------------------------------------------------------
    # Building (the batch engine and the reference oracle)
    # ------------------------------------------------------------------

    def add(self, name: str, key: Hashable, *, read: bool = False) -> int:
        """Append ``name`` to the group of canonical ``key``; its group id.

        ``read`` marks a new group as a read group: its pairs with read
        groups, its own pair included, are ``trivial`` and need no
        :meth:`fill`.  A name joining an existing group shares that
        group's cells; only the group's self-pair cell can be missing (a
        group of one has no pair of its own) — see :meth:`has_cell`.
        """
        group = self._group_by_key.get(key)
        if group is None:
            group = self._group_by_key[key] = self._next_group
            self._next_group += 1
            self._members[group] = []
            if read:
                self._reads.add(group)
        self._members[group].append(name)
        self._group_of[name] = group
        self.names.append(name)
        return group

    def remove(self, name: str) -> int | None:
        """Drop ``name``, and every cell that no longer covers a name pair.

        Returns the id of the group ``name`` leaves empty (the group is
        gone with it), or ``None`` when the group keeps other members.
        """
        self.names.remove(name)
        group = self._group_of.pop(name)
        members = self._members[group]
        members.remove(name)
        if len(members) < 2:
            self._cells.pop((group, group), None)
        if not members:
            del self._members[group]
            self._reads.discard(group)
            for key in [k for k, g in self._group_by_key.items() if g == group]:
                del self._group_by_key[key]
            for pair in [pair for pair in self._cells if group in pair]:
                del self._cells[pair]
            return group
        return None

    def group_ids(self) -> list[int]:
        """Every group id, in the order the groups first appeared."""
        return list(self._members)

    def multiplicity(self, pair: tuple[int, int]) -> int:
        """How many name pairs the cell of a group pair stands for."""
        first, second = pair
        size = len(self._members[first])
        if first == second:
            return size * (size - 1) // 2
        return size * len(self._members[second])

    def representative(self, pair: tuple[int, int]) -> tuple[str, str]:
        """The name pair that stands for a group pair: the first member of
        each group, or the first two members of one group."""
        first, second = pair
        if first == second:
            return self._members[first][0], self._members[first][1]
        return self._members[first][0], self._members[second][0]

    def has_cell(self, pair: tuple[int, int]) -> bool:
        """Whether the group pair already has a verdict (a pair of two
        read groups always has)."""
        first, second = pair
        if first in self._reads and second in self._reads:
            return True
        return _ordered(pair) in self._cells

    def fill(
        self,
        pair: tuple[int, int],
        verdict: Verdict,
        reason: str | None = None,
        origin: str = "decided",
    ) -> None:
        """Set the cell of a group pair (and so of all its name pairs).

        A pair of two read groups is ``trivial`` and takes no fill: the
        tallies count it without a cell, so a stored one would count twice.
        """
        first, second = pair
        if first in self._reads and second in self._reads:
            raise ValueError(f"group pair {pair} holds two reads: it is trivial")
        cell = Cell(verdict, origin, reason)
        # Catalogues repeat a few (verdict, origin, reason) triples over
        # many group pairs; cells holding the same triple share one tuple.
        self._cells[_ordered(pair)] = self._shared.setdefault(cell, cell)

    # ------------------------------------------------------------------
    # Name-pair queries
    # ------------------------------------------------------------------

    def _group_cell(self, first: int, second: int) -> Cell:
        """The cell of a group pair: ``_TRIVIAL`` for two read groups,
        else the stored cell (``KeyError`` when it has none)."""
        reads = self._reads
        if first in reads and second in reads:
            return _TRIVIAL
        return self._cells[(first, second) if first <= second else (second, first)]

    def _cell(self, first: str, second: str) -> Cell:
        return self._group_cell(self._group_of[first], self._group_of[second])

    def verdict(self, first: str, second: str) -> Verdict:
        """The verdict for an unordered pair (symmetric)."""
        if first == second:
            return Verdict.NO_CONFLICT
        return self._cell(first, second).verdict

    def reason(self, first: str, second: str) -> str | None:
        """The degradation reason for a pair, or ``None`` if fully decided."""
        if first == second:
            return None
        return self._cell(first, second).reason

    def discharge_reason(self, first: str, second: str) -> str:
        """How the pair got its verdict without (or with) a decision.

        One of ``"trivial"``, ``"cached"``, ``"index:chain"``,
        ``"index:depth"``, ``"containment:<parent>"`` or ``"decided"``.
        """
        if first == second:
            return "trivial"
        return self._cell(first, second).origin

    def may_conflict(self, first: str, second: str) -> bool:
        """True unless the pair is *proved* conflict-free."""
        return self.verdict(first, second) is not Verdict.NO_CONFLICT

    def compatible_with(self, name: str) -> list[str]:
        """All operations proved compatible with ``name``."""
        return [
            other
            for other in self.names
            if other != name and not self.may_conflict(name, other)
        ]

    def pairs(self) -> Iterator[tuple[str, str, Verdict]]:
        """``(first, second, verdict)`` for every unordered name pair.

        Pairs come in catalogue order: ``first`` precedes ``second`` in
        :attr:`names`, and pairs are ordered by the position of ``first``,
        then of ``second``.
        """
        names, group_of, cell = self.names, self._group_of, self._group_cell
        for index, first in enumerate(names):
            group = group_of[first]
            for second in names[index + 1 :]:
                yield first, second, cell(group, group_of[second]).verdict

    def schedule(self) -> list[list[str]]:
        """Partition the names into interference-free batches.

        Greedy first-fit coloring of the may-conflict graph in catalogue
        order: each name joins the earliest batch holding no name it may
        conflict with (``UNKNOWN`` counts as a conflict, so scheduling
        stays sound).  Whether a name fits depends only on its group and
        the groups the batch holds.  A name whose group the batch already
        holds fits iff its group's own cell is ``NO_CONFLICT``: every
        other group there was checked against that group when the later
        of the two joined.
        """
        batches: list[tuple[list[str], set[int]]] = []
        for name in self.names:
            group = self._group_of[name]
            for members, groups in batches:
                if group in groups:
                    fits = self._compatible(group, group)
                else:
                    fits = all(self._compatible(group, other) for other in groups)
                if fits:
                    members.append(name)
                    groups.add(group)
                    break
            else:
                batches.append(([name], {group}))
        return [members for members, _ in batches]

    def _compatible(self, first: int, second: int) -> bool:
        return self._group_cell(first, second).verdict is Verdict.NO_CONFLICT

    def _trivial_pairs(self) -> Iterator[tuple[int, int]]:
        """The pairs of two read groups that stand for a name pair, each
        with the lower id first."""
        reads = sorted(self._reads)
        for index, first in enumerate(reads):
            if len(self._members[first]) > 1:
                yield first, first
            for second in reads[index + 1 :]:
                yield first, second

    def _read_names(self) -> list[str]:
        """The names of the read groups, in catalogue order."""
        reads, group_of = self._reads, self._group_of
        return [name for name in self.names if group_of[name] in reads]

    def _name_pairs(
        self, pair: tuple[int, int], position: dict[str, int]
    ) -> Iterator[tuple[str, str]]:
        """The name pairs of one cell, each in catalogue order."""
        first, second = pair
        if first == second:
            return itertools.combinations(self._members[first], 2)
        return (
            (a, b) if position[a] < position[b] else (b, a)
            for a in self._members[first]
            for b in self._members[second]
        )

    def _expand(self, label: "_Label") -> list[tuple[str, str, str]]:
        """Sorted ``(first, second, label)`` over the name pairs of every
        cell that ``label`` maps to a value other than ``None``."""
        position = {name: index for index, name in enumerate(self.names)}
        listed = [
            (a, b, value)
            for pair, cell in self._cells.items()
            if (value := label(cell)) is not None
            for a, b in self._name_pairs(pair, position)
        ]
        value = label(_TRIVIAL)
        if value is not None:
            listed.extend(
                (a, b, value) for a, b in itertools.combinations(self._read_names(), 2)
            )
        return sorted(listed)

    def discharged_pairs(self) -> list[tuple[str, str, str]]:
        """All pairs discharged without a decision procedure.

        Entries are ``(first, second, origin)`` with origin ``"index:*"``
        or ``"containment:*"``.  This expands cells to name pairs — use
        :meth:`discharge_counts` when only the tallies are needed.
        """
        return self._expand(
            lambda cell: cell.origin if cell.origin.startswith(_STATIC) else None
        )

    def degraded_pairs(self) -> list[tuple[str, str, str]]:
        """All resilience-degraded pairs as ``(first, second, reason)``."""
        return self._expand(lambda cell: cell.reason)

    # ------------------------------------------------------------------
    # Tallies (name-pair exact) and views
    # ------------------------------------------------------------------

    def _tally(self, label: "_Label") -> dict[str, int]:
        """Name-pair counts per value of ``label`` (``None`` skipped)."""
        out: dict[str, int] = {}
        for pair, cell in self._cells.items():
            value = label(cell)
            if value is not None:
                out[value] = out.get(value, 0) + self.multiplicity(pair)
        reads = sum(len(self._members[group]) for group in self._reads)
        value = label(_TRIVIAL)
        if value is not None and reads > 1:
            out[value] = out.get(value, 0) + reads * (reads - 1) // 2
        return out

    def counts(self) -> dict[str, int]:
        """Tally of name-pair verdicts by outcome."""
        return {v.value: 0 for v in Verdict} | self._tally(lambda c: c.verdict.value)

    def discharge_counts(self) -> dict[str, int]:
        """Name-pair tallies by origin class.

        Keys: ``decided``, ``cached``, ``trivial``, ``index``,
        ``containment``.  The sum equals the number of analyzed pairs.
        """
        zero = {"decided": 0, "cached": 0, "trivial": 0, "index": 0, "containment": 0}
        return zero | self._tally(lambda c: c.origin.split(":", 1)[0])

    def degraded_count(self) -> int:
        """Number of resilience-degraded name pairs."""
        return sum(self._tally(lambda c: c.reason).values())

    def to_dict(self) -> dict:
        """A JSON-able view — the one stable schema shared by the CLI's
        ``--json`` output and the service's ``/v1/matrix`` response.

        Up to :attr:`PAIR_LISTING_LIMIT` names, ``verdicts`` holds one
        entry per name pair, sorted by ``(first, second)`` with ``first``
        the earlier name in the catalogue.  Above it, the view adds
        ``"sparse": true`` and the ``groups`` table, and ``verdicts`` holds
        one entry per group pair: its representative names and its
        ``multiplicity``.
        """
        discharge = self.discharge_counts()
        stats = {
            "operations": len(self.names),
            **self.counts(),
            "degraded": self.degraded_count(),
            "discharged": discharge["index"] + discharge["containment"],
        }
        if len(self.names) <= self.PAIR_LISTING_LIMIT:
            return {
                "names": list(self.names),
                "verdicts": self._pair_listing(),
                "stats": stats,
            }
        trivial = ((pair, _TRIVIAL) for pair in self._trivial_pairs())
        entries = []
        for pair, cell in sorted(itertools.chain(self._cells.items(), trivial)):
            first, second = self.representative(pair)
            entries.append(
                {
                    "first": first,
                    "second": second,
                    "verdict": cell.verdict.value,
                    "reason": cell.reason,
                    "discharge": cell.origin,
                    "multiplicity": self.multiplicity(pair),
                }
            )
        return {
            "names": list(self.names),
            "sparse": True,
            "groups": [list(members) for members in self._members.values()],
            "verdicts": entries,
            "stats": stats,
        }

    def _pair_listing(self) -> list[dict]:
        position = {name: index for index, name in enumerate(self.names)}
        ordered = sorted(self.names)
        entries = []
        for first in ordered:
            for second in ordered:
                if position[second] > position[first]:
                    cell = self._cell(first, second)
                    entries.append(
                        {
                            "first": first,
                            "second": second,
                            "verdict": cell.verdict.value,
                            "reason": cell.reason,
                            "discharge": cell.origin,
                        }
                    )
        return entries

    def render(self) -> str:
        """A fixed-width text table (conflict / ``-`` / ``?``)."""
        mark = {
            Verdict.CONFLICT: "conflict",
            Verdict.NO_CONFLICT: "-",
            Verdict.UNKNOWN: "?",
        }
        width = max((len(n) for n in self.names), default=0) + 2
        cell = max(10, width)
        lines = [
            " " * width + "".join(f"{name[:cell - 2]:>{cell}}" for name in self.names)
        ]
        for row in self.names:
            cells = [f"{row[:width - 2]:<{width}}"]
            for col in self.names:
                cells.append(f"{mark[self.verdict(row, col)]:>{cell}}")
            lines.append("".join(cells))
        return "\n".join(lines)


#: Maps a cell to the value it is listed or tallied under (``None``: skip).
_Label = Callable[[Cell], "str | None"]


def _ordered(pair: tuple[int, int]) -> tuple[int, int]:
    """The cell key of a group pair (lower id first)."""
    return pair if pair[0] <= pair[1] else (pair[1], pair[0])
