"""Tests for the conflict matrix's layout (:mod:`repro.conflicts.matrix`).

The matrix stores cells only for the group pairs that hold an update
group and answers every pair of two read groups itself.  These tests hold
that layout to the explicit one, where every read/read cell is filled
through the public ``add``/``fill``, after ``analyze`` and after
``add_op``/``remove_op`` sequences; they count the units the analyzer
builds, pin the ``batch.pairs_*`` counters of incremental reads, and hold
the per-group :meth:`ConflictMatrix.schedule` to the name-level first-fit
loop it replaced.
"""

from __future__ import annotations

import json
import os
import random

import pytest

from repro.conflicts.batch import BatchAnalyzer, op_key
from repro.conflicts.detector import DetectorConfig
from repro.conflicts.matrix import ConflictMatrix
from repro.conflicts.semantics import Verdict
from repro.operations.ops import Delete, Read
from repro.workloads.generators import random_delete, random_insert, random_read
from tests.test_batch import large_catalogue

#: Shifts the randomized catalogues into a disjoint seed region per CI
#: matrix entry, same convention as tests/test_index.py.
SEED_BASE = int(os.environ.get("REPRO_DIFF_SEED_BASE", "0"))

FAST = DetectorConfig(exhaustive_cap=1)


def rng_for(seed: int) -> random.Random:
    return random.Random(1_000_003 * SEED_BASE + seed)


def shape_pool(rng: random.Random) -> list:
    """A few reads and updates over a small alphabet; catalogues draw
    their names from it with replacement, so groups repeat."""
    pool = [random_read(rng.randint(2, 4), linear=True, seed=rng) for _ in range(5)]
    pool.append(random_read(3, linear=False, seed=rng))
    pool.append(random_insert(rng.randint(2, 3), subtree_size=2, seed=rng, linear=True))
    pool.append(random_delete(rng.randint(2, 3), seed=rng, linear=True))
    return pool


def random_catalogue(rng: random.Random, total: int) -> dict:
    pool = shape_pool(rng)
    return {f"op{index:03d}": rng.choice(pool) for index in range(total)}


def fill_explicitly(layout: ConflictMatrix, source: ConflictMatrix) -> ConflictMatrix:
    """Store every cell of ``layout`` (names added without read flags),
    copying each group pair's answer from ``source`` by its
    representative names."""
    groups = layout.group_ids()
    for index, first in enumerate(groups):
        for second in groups[index:]:
            pair = (first, second)
            if layout.multiplicity(pair):
                a, b = layout.representative(pair)
                layout.fill(
                    pair,
                    source.verdict(a, b),
                    source.reason(a, b),
                    source.discharge_reason(a, b),
                )
    return layout


def explicit_copy(matrix: ConflictMatrix, ops: dict) -> ConflictMatrix:
    """``matrix`` with every read/read cell stored: the same names, added
    in catalogue order under the same keys but without read flags."""
    layout = ConflictMatrix()
    for name in matrix.names:
        layout.add(name, op_key(ops[name]))
    return fill_explicitly(layout, matrix)


def assert_same_outputs(actual: ConflictMatrix, expected: ConflictMatrix, monkeypatch) -> None:
    """Byte-identical views, in both ``to_dict()`` listing shapes."""
    for limit in (len(actual.names), len(actual.names) - 1):
        monkeypatch.setattr(ConflictMatrix, "PAIR_LISTING_LIMIT", limit)
        assert json.dumps(actual.to_dict()) == json.dumps(expected.to_dict())
    assert actual.counts() == expected.counts()
    assert actual.discharge_counts() == expected.discharge_counts()
    assert actual.discharged_pairs() == expected.discharged_pairs()
    assert actual.degraded_pairs() == expected.degraded_pairs()
    assert list(actual.pairs()) == list(expected.pairs())
    assert actual.render() == expected.render()
    assert actual.schedule() == expected.schedule()


def name_level_schedule(matrix: ConflictMatrix) -> list[list[str]]:
    """The first-fit loop over names that ``schedule()`` replaced: each
    name joins the earliest batch whose every member it is proved
    compatible with."""
    batches: list[list[str]] = []
    for name in matrix.names:
        for batch in batches:
            if all(not matrix.may_conflict(name, member) for member in batch):
                batch.append(name)
                break
        else:
            batches.append([name])
    return batches


class TestReadPairsAnsweredByTheMatrix:
    @pytest.mark.parametrize("max_steps", [None, 40])
    @pytest.mark.parametrize("seed", range(8))
    def test_analysis_equals_the_explicit_layout(self, seed, max_steps, monkeypatch):
        """After ``analyze``, every view equals the one of the same matrix
        with all read/read cells stored; a step limit degrades some
        pairs, so reasons vary too."""
        ops = random_catalogue(rng_for(seed), 24)
        config = DetectorConfig(exhaustive_cap=1, max_steps=max_steps)
        matrix = BatchAnalyzer(config, jobs=1).analyze(ops)
        assert_same_outputs(matrix, explicit_copy(matrix, ops), monkeypatch)

    @pytest.mark.parametrize("seed", range(6))
    def test_add_and_remove_keep_the_layout(self, seed, monkeypatch):
        """After random ``add_op``/``remove_op`` steps, the matrix equals
        the explicit layout built by the same steps, and a fresh
        analysis verdict for verdict and origin for origin."""
        rng = rng_for(seed)
        pool = shape_pool(rng)
        reads = [op for op in pool if isinstance(op, Read)]
        analyzer = BatchAnalyzer(FAST, jobs=1, containment=False)
        layout = ConflictMatrix()
        initial = {f"op{index:03d}": rng.choice(pool) for index in range(10)}
        analyzer.analyze(initial)
        for name, op in initial.items():
            layout.add(name, op_key(op))

        def add(name: str, op) -> None:
            analyzer.add_op(name, op)
            layout.add(name, op_key(op))

        def remove(name: str) -> None:
            analyzer.remove_op(name)
            layout.remove(name)

        for step in range(24):
            names = list(analyzer.operations)
            if names and rng.random() < 0.4:
                remove(rng.choice(names))
            else:
                add(f"step{step:02d}", rng.choice(pool))
        def members(op) -> list[str]:
            key = op_key(op)
            return [n for n, other in analyzer.operations.items() if op_key(other) == key]

        # A read group that shrinks to one member and grows again, and one
        # that empties and comes back as a new group.
        for copy in range(3):
            add(f"twin{copy}", reads[0])
        for name in members(reads[0])[:-1]:
            remove(name)
        add("twin-again", reads[0])
        for name in members(reads[1]):
            remove(name)
        add("back", reads[1])
        add("back-twin", reads[1])

        matrix = analyzer.matrix
        assert matrix.names == layout.names
        assert_same_outputs(matrix, fill_explicitly(layout, matrix), monkeypatch)

        fresh = BatchAnalyzer(FAST, jobs=1, containment=False).analyze(
            analyzer.operations
        )
        assert list(matrix.pairs()) == list(fresh.pairs())
        assert matrix.counts() == fresh.counts()
        assert matrix.schedule() == fresh.schedule()

        def origin(m: ConflictMatrix, a: str, b: str) -> str:
            # A cell the maintained analyzer decided may be a cache hit
            # for the fresh one; everything else must match exactly.
            found = m.discharge_reason(a, b)
            return "decided" if found == "cached" else found

        for a, b, _ in matrix.pairs():
            assert origin(matrix, a, b) == origin(fresh, a, b), (a, b)

    def test_units_only_for_pairs_with_an_update_group(self, monkeypatch):
        """``analyze`` builds one unit per group pair that holds an update
        group, in group-pair order, and none for a read/read pair."""
        built = []
        make_unit = BatchAnalyzer._make_unit

        def counting(self, fingerprint, pair):
            built.append(pair)
            return make_unit(self, fingerprint, pair)

        monkeypatch.setattr(BatchAnalyzer, "_make_unit", counting)
        ops = large_catalogue()
        BatchAnalyzer(FAST, jobs=1).analyze(ops)
        # Group ids follow first appearance in the catalogue.
        replica = ConflictMatrix()
        is_read = {replica.add(name, op_key(op)): isinstance(op, Read) for name, op in ops.items()}
        groups = replica.group_ids()
        expected = [
            (first, second)
            for index, first in enumerate(groups)
            for second in groups[index:]
            if not (is_read[first] and is_read[second])
        ]
        assert len(groups) == 7 and len(expected) == 18
        assert built == expected

    def test_read_joining_a_group_of_one_counts_its_own_pair(self):
        """``add_op`` of a read counts the read/read pairs it completes as
        if their cells were stored: one when its group had one member."""
        analyzer = BatchAnalyzer()
        analyzer.analyze(
            {
                "t1": Read("bib/book/title"),
                "t2": Read("bib/book/title"),
                "prices": Read("bib//price"),
                "purge": Delete("bib/book"),
            }
        )

        def delta(step) -> tuple[int, int]:
            before = analyzer.metrics()["counters"]
            step()
            after = analyzer.metrics()["counters"]
            return tuple(
                after[key] - before[key]
                for key in ("batch.pairs_total", "batch.pairs_trivial")
            )

        analyzer.remove_op("t2")
        assert delta(lambda: analyzer.add_op("t3", Read("bib/book/title"))) == (1, 1)
        assert delta(lambda: analyzer.add_op("t4", Read("bib/book/title"))) == (0, 0)
        # A shape of its own: one pair with each other read and the update.
        assert delta(lambda: analyzer.add_op("authors", Read("bib/book/author"))) == (5, 4)

    def test_read_flag_goes_with_the_group(self):
        matrix = ConflictMatrix()
        first = matrix.add("a", "shape", read=True)
        other = matrix.add("b", "other", read=True)
        assert matrix.has_cell((first, first)) and matrix.has_cell((first, other))
        assert matrix.verdict("a", "b") is Verdict.NO_CONFLICT
        assert matrix.discharge_reason("a", "b") == "trivial"
        assert matrix.to_dict()["stats"]["no-conflict"] == 1
        with pytest.raises(ValueError):
            matrix.fill((first, other), Verdict.NO_CONFLICT)
        assert matrix.remove("a") == first
        again = matrix.add("c", "shape")
        assert again != first
        assert not matrix.has_cell((again, other))
        with pytest.raises(KeyError):
            matrix.verdict("c", "b")


class TestSchedulePerGroup:
    @pytest.mark.parametrize("seed", range(6))
    def test_analyzed_catalogues_match_the_name_level_loop(self, seed):
        ops = random_catalogue(rng_for(seed), 30)
        analyzer = BatchAnalyzer(FAST, jobs=1)
        matrix = analyzer.analyze(ops)
        assert analyzer.schedule() == matrix.schedule() == name_level_schedule(matrix)

    def test_update_group_with_an_unknown_own_cell(self):
        """Two names of one update group whose own pair is ``UNKNOWN``
        never share a batch, although each fits with everything else."""
        matrix = ConflictMatrix()
        layout = [
            ("u1", "update", False),
            ("r1", "read", True),
            ("u2", "update", False),
            ("r2", "read", True),
            ("v1", "other", False),
            ("v2", "other", False),
        ]
        group = {key: matrix.add(name, key, read=read) for name, key, read in layout}
        matrix.fill((group["update"], group["update"]), Verdict.UNKNOWN)
        matrix.fill((group["update"], group["read"]), Verdict.NO_CONFLICT)
        matrix.fill((group["update"], group["other"]), Verdict.NO_CONFLICT)
        matrix.fill((group["read"], group["other"]), Verdict.CONFLICT)
        matrix.fill((group["other"], group["other"]), Verdict.NO_CONFLICT)
        expected = [["u1", "r1", "r2"], ["u2", "v1", "v2"]]
        assert matrix.schedule() == expected == name_level_schedule(matrix)

    @pytest.mark.parametrize("seed", range(20))
    def test_hand_filled_matrices_match_the_name_level_loop(self, seed):
        """Random groups, read flags and verdicts, names interleaved."""
        rng = rng_for(seed)
        matrix = ConflictMatrix()
        reads = {key: rng.random() < 0.5 for key in range(rng.randint(2, 6))}
        for index in range(rng.randint(4, 16)):
            key = rng.choice(list(reads))
            matrix.add(f"n{index:02d}", key, read=reads[key])
        groups = matrix.group_ids()
        verdicts = [Verdict.NO_CONFLICT] * 3 + [Verdict.CONFLICT, Verdict.UNKNOWN]
        for index, first in enumerate(groups):
            for second in groups[index:]:
                pair = (first, second)
                if matrix.multiplicity(pair) and not matrix.has_cell(pair):
                    matrix.fill(pair, rng.choice(verdicts))
        assert matrix.schedule() == name_level_schedule(matrix)
