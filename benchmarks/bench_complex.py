"""E9: update-update (commutativity) conflicts — Section 6.

Measures the witness check, the heuristic path, and the exhaustive search
for insert-insert / insert-delete / delete-delete pairs, and validates the
section's headline example: identical insertions commute under value
semantics (where the reference semantics would spuriously differ).
"""

from __future__ import annotations

import random

import pytest

from bench_utils import measure, print_series
from repro.conflicts.complex import (
    detect_update_update,
    find_commutativity_witness_exhaustive,
    is_commutativity_witness,
)
from repro.conflicts.semantics import Verdict
from repro.operations.ops import Delete, Insert
from repro.workloads.generators import random_delete, random_insert
from repro.xml.random_trees import random_tree

ALPHABET = ("a", "b", "c")


def test_commutativity_witness_check(benchmark):
    """E9: the polynomial witness check on a mid-sized document."""
    tree = random_tree(300, ALPHABET, seed=1)
    op1 = Insert("a//b", "<c/>")
    op2 = Delete("a//b/c")
    benchmark(lambda: is_commutativity_witness(tree, op1, op2))


@pytest.mark.parametrize(
    "kind,first,second",
    [
        ("insert-insert", Insert("a/b", "<c/>"), Insert("a/b/c", "<d/>")),
        ("insert-delete", Insert("a/b", "<c/>"), Delete("a/b/c")),
        ("delete-delete", Delete("a/b"), Delete("a/b/c")),
    ],
)
def test_detection_by_pair_kind(benchmark, kind, first, second):
    """E9: decision cost per update-pair kind."""
    report = benchmark(lambda: detect_update_update(first, second, exhaustive_cap=4))
    if kind == "insert-insert":
        assert report.verdict is Verdict.CONFLICT
    if kind == "delete-delete":
        # Deletions always commute in effect: both orders remove the union.
        assert report.verdict is not Verdict.CONFLICT


def test_identical_inserts_commute(benchmark):
    """E9 headline: INSERT == INSERT never conflicts under value semantics."""
    op = Insert("a//b", "<c><d/></c>")

    witness = benchmark.pedantic(
        lambda: find_commutativity_witness_exhaustive(op, op, max_size=4),
        rounds=1,
        iterations=1,
    )
    assert witness is None


def test_exhaustive_growth_series(benchmark):
    """E9: exhaustive commutativity search grows exponentially too."""
    caps = [2, 3, 4]
    op1 = Insert("a/b", "<x/>")
    op2 = Delete("a/c")  # commuting pair -> full enumeration each time

    def sweep() -> list[float]:
        return [
            measure(
                lambda: find_commutativity_witness_exhaustive(op1, op2, max_size=cap),
                repeat=1,
            )
            for cap in caps
        ]

    times = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_series("E9 commutativity search vs size cap", caps, times)
    assert times[-1] > times[0]


def test_random_pair_conflict_rate(benchmark):
    """E9: observed conflict/no-conflict/unknown mix over random update pairs."""

    def run():
        outcomes = {verdict.value: 0 for verdict in Verdict}
        for seed in range(20):
            rng = random.Random(seed)
            op1 = random_insert(2, alphabet=("a", "b"), seed=rng)
            op2 = random_delete(2, ("a", "b"), seed=rng)
            verdict = detect_update_update(op1, op2, exhaustive_cap=3).verdict
            outcomes[verdict.value] += 1
        return outcomes

    outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nE9 random insert/delete pairs: {outcomes}")
    assert sum(outcomes.values()) == 20
