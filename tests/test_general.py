"""Tests for the general (branching-read) conflict engine (Theorems 3/5)."""

from __future__ import annotations

import random

import pytest

from repro.conflicts.general import (
    decide_conflict,
    find_witness_exhaustive,
    find_witness_heuristic,
    witness_alphabet,
    witness_size_bound,
)
from repro.conflicts.semantics import (
    STRIPPED_NOTE,
    ConflictKind,
    Verdict,
    is_witness,
)
from repro.operations.ops import Delete, Insert, Read
from repro.workloads.generators import random_branching_pattern
from repro.xml.random_trees import random_tree


class TestWitnessBound:
    def test_lemma11_formula(self):
        read = Read("a/*/b")  # size 3, star-length 1
        insert = Insert("a/b", "<x/>")  # size 2
        assert witness_size_bound(read, insert) == 3 * 2 * 2

    def test_alphabet_includes_fresh_symbol(self):
        read = Read("a/b")
        insert = Insert("a/b", "<c/>")
        alphabet = witness_alphabet(read, insert)
        assert set(alphabet) > {"a", "b", "c"}
        assert len(alphabet) == 4


class TestExhaustiveSearch:
    def test_finds_predicate_enabling_insert(self):
        """The branching subtlety: R = a[b/c] fires once c is inserted."""
        read = Read("a[b/c]")
        insert = Insert("a/b", "<c/>")
        witness = find_witness_exhaustive(read, insert, max_size=3)
        assert witness is not None
        assert is_witness(witness, read, insert, ConflictKind.NODE)

    def test_finds_predicate_disabling_delete(self):
        read = Read("a[b/c]")
        delete = Delete("a/b/c")
        witness = find_witness_exhaustive(read, delete, max_size=3)
        assert witness is not None
        assert is_witness(witness, read, delete, ConflictKind.NODE)

    def test_no_witness_for_disjoint_operations(self):
        read = Read("a[b]")
        insert = Insert("a/c", "<d/>")
        # Bound: |R|=2, |I|=2, k=0 -> 4; search the full bound.
        bound = witness_size_bound(read, insert)
        witness = find_witness_exhaustive(read, insert, max_size=bound)
        assert witness is None

    def test_stats_counted(self):
        from repro.conflicts.general import SearchStats

        stats = SearchStats()
        find_witness_exhaustive(
            Read("a[b]"), Insert("a/c", "<d/>"), max_size=3, stats=stats
        )
        assert stats.candidates_checked > 0


class TestEnumerateWitnesses:
    def test_yields_only_witnesses_without_duplicates(self):
        from repro.conflicts.general import enumerate_witnesses
        from repro.xml.isomorphism import canonical_form

        read = Read("a/b/c")
        insert = Insert("a/b", "<c/>")
        forms = set()
        for witness in enumerate_witnesses(read, insert, max_size=3):
            assert is_witness(witness, read, insert, ConflictKind.NODE)
            form = canonical_form(witness)
            assert form not in forms
            forms.add(form)
        assert forms, "this pair has small witnesses"

    def test_limit_respected(self):
        from repro.conflicts.general import enumerate_witnesses

        read = Read("a//c")
        insert = Insert("a//b", "<c/>")
        listed = list(enumerate_witnesses(read, insert, max_size=4, limit=3))
        assert len(listed) == 3

    def test_no_witnesses_for_disjoint_pair(self):
        from repro.conflicts.general import enumerate_witnesses

        read = Read("a/b")
        insert = Insert("a/c", "<d/>")
        assert list(enumerate_witnesses(read, insert, max_size=4)) == []


class TestHeuristics:
    def test_heuristic_finds_obvious_conflict(self):
        read = Read("a[b]/c")
        delete = Delete("a/c")
        witness = find_witness_heuristic(read, delete)
        assert witness is not None
        assert is_witness(witness, read, delete, ConflictKind.NODE)

    def test_heuristic_is_sound(self):
        """Whatever the heuristic returns must be a genuine witness."""
        rng = random.Random(42)
        for _ in range(25):
            read = Read(
                random_branching_pattern(rng.randint(1, 4), ("a", "b"), seed=rng)
            )
            insert = Insert(
                random_branching_pattern(
                    rng.randint(1, 3), ("a", "b"), seed=rng
                ),
                random_tree(2, ("a", "b"), seed=rng),
            )
            witness = find_witness_heuristic(read, insert)
            if witness is not None:
                assert is_witness(witness, read, insert, ConflictKind.NODE)


class TestDecideConflict:
    def test_conflict_found(self):
        report = decide_conflict(Read("a[b/c]"), Insert("a/b", "<c/>"))
        assert report.verdict is Verdict.CONFLICT
        assert report.witness is not None

    def test_definitive_no_conflict_when_bound_covered(self):
        read = Read("a[b]")
        insert = Insert("a/c", "<d/>")
        report = decide_conflict(read, insert, exhaustive_cap=10)
        assert report.verdict is Verdict.NO_CONFLICT

    def test_unknown_when_bound_not_covered(self):
        # Large overlapping patterns (the trunk prefilter cannot discharge
        # the pair): the bound far exceeds any tractable cap and the
        # smallest witness has 7 nodes.
        read = Read("a[b][c][d]/e//f")
        delete = Delete("a/e/e/f")
        report = decide_conflict(
            read, delete, exhaustive_cap=2, use_heuristics=False
        )
        assert report.verdict in (Verdict.UNKNOWN, Verdict.CONFLICT)
        if report.verdict is Verdict.UNKNOWN:
            assert report.notes

    def test_heuristics_only_mode(self):
        report = decide_conflict(
            Read("a[b/c]"), Insert("a/b", "<c/>"), exhaustive_cap=None
        )
        assert report.verdict in (Verdict.CONFLICT, Verdict.UNKNOWN)

    def test_stats_exposed(self):
        report = decide_conflict(Read("a[b]"), Insert("a/c", "<d/>"))
        assert "bound" in report.stats

    def test_value_tests_stripped_with_one_note_per_operation(self):
        report = decide_conflict(
            Read("a/b[c < 5]"), Delete("a/b[d < 3]/e"), exhaustive_cap=2
        )
        assert report.notes.count(STRIPPED_NOTE) == 2


class TestAgainstLinearOnLinearInstances:
    """On linear reads the general engine must agree with the PTIME one."""

    @pytest.mark.parametrize("seed", range(25))
    def test_agreement(self, seed):
        from repro.conflicts.linear import detect_read_insert_linear
        from repro.workloads.generators import random_linear_pattern

        rng = random.Random(seed)
        read = Read(random_linear_pattern(rng.randint(1, 3), ("a", "b"), seed=rng))
        insert = Insert(
            random_linear_pattern(rng.randint(1, 2), ("a", "b"), seed=rng),
            random_tree(rng.randint(1, 2), ("a", "b"), seed=rng),
        )
        linear_verdict = detect_read_insert_linear(read, insert).verdict
        bound = witness_size_bound(read, insert)
        general = decide_conflict(read, insert, exhaustive_cap=min(bound, 5))
        if general.verdict is not Verdict.UNKNOWN:
            assert general.verdict == linear_verdict, f"seed {seed}"
        else:
            # UNKNOWN only allowed when the cap was truncated below the bound.
            assert bound > 5
