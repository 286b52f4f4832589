"""A1: ablations of this reproduction's own design choices.

The paper leaves implementation latitude in two places where we made a
definite choice; these benchmarks quantify the alternatives:

* **Matching backend** — the paper's regex/NFA-intersection construction
  vs the independent dynamic-programming matcher (both implemented in
  :mod:`repro.automata.matching`).
* **Isomorphism deduplication** in exhaustive witness search — canonical
  (one tree per isomorphism class) vs naive ordered-tree enumeration.
  The dedup is what makes the Lemma 11 guess-and-check usable at all;
  the ablation measures the candidate blowup that naive ordering causes.
* **Heuristic prefilter** in the general engine — decision time with and
  without the candidate-model fast path on conflicting instances.
"""

from __future__ import annotations

import itertools
import random

import pytest

from bench_utils import print_series
from repro.automata.matching import match_dp, matching_word
from repro.conflicts.general import decide_conflict
from repro.conflicts.semantics import Verdict
from repro.operations.ops import Insert, Read
from repro.workloads.generators import random_linear_pattern
from repro.xml.enumerate import count_trees
from repro.xml.tree import XMLTree

ALPHABET = ("a", "b", "c")


def _matching_workload(count: int = 30):
    out = []
    for seed in range(count):
        rng = random.Random(seed)
        out.append(
            (
                random_linear_pattern(rng.randint(2, 8), ALPHABET, seed=rng),
                random_linear_pattern(rng.randint(2, 8), ALPHABET, seed=rng),
            )
        )
    return out


def test_matching_nfa_backend(benchmark):
    """A1: the paper's NFA-intersection matcher."""
    workload = _matching_workload()

    def run():
        for left, right in workload:
            matching_word(left, right, weak=False)
            matching_word(left, right, weak=True)

    benchmark(run)


def test_matching_dp_backend(benchmark):
    """A1: the dynamic-programming matcher on the same workload."""
    workload = _matching_workload()

    def run():
        for left, right in workload:
            match_dp(left, right, weak=False)
            match_dp(left, right, weak=True)

    benchmark(run)


def _count_ordered_trees(max_size: int, k: int) -> int:
    """Labeled *ordered* trees up to max_size — the naive search space.

    Ordered rooted trees of n nodes are counted by the Catalan number
    C(n-1); each node takes one of k labels.
    """
    from math import comb

    total = 0
    for n in range(1, max_size + 1):
        catalan = comb(2 * (n - 1), n - 1) // n
        total += catalan * k**n
    return total


def test_iso_dedup_search_space(benchmark):
    """A1: canonical vs naive candidate counts (the dedup's payoff)."""
    sizes = [3, 4, 5, 6]

    def run():
        rows = []
        for size in sizes:
            canonical = count_trees(size, ALPHABET)
            ordered = _count_ordered_trees(size, len(ALPHABET))
            rows.append((canonical, ordered))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    ratios = [ordered / canonical for canonical, ordered in rows]
    print_series("A1 naive/canonical candidate ratio", sizes, ratios, unit="x")
    assert all(r >= 1 for r in ratios)
    assert ratios[-1] > ratios[0], "dedup payoff must grow with size"


def _detection_workload(count: int = 25):
    from repro.operations.ops import Delete, Read
    from repro.xml.random_trees import random_tree as _rt

    out = []
    for seed in range(count):
        rng = random.Random(seed + 31337)
        read = Read(random_linear_pattern(rng.randint(2, 10), ALPHABET, seed=rng))
        delete_pattern = random_linear_pattern(
            rng.randint(2, 6), ALPHABET, seed=rng
        )
        insert_pattern = random_linear_pattern(
            rng.randint(1, 5), ALPHABET, seed=rng
        )
        out.append(
            (
                read,
                Insert(insert_pattern, _rt(3, ALPHABET, seed=rng)),
                Delete(delete_pattern),
            )
        )
    return out


def test_detection_per_edge_nfa(benchmark):
    """A2: the linear detectors (one-pass profile scan, witness-producing)."""
    from repro.conflicts.linear import (
        detect_read_delete_linear,
        detect_read_insert_linear,
    )

    workload = _detection_workload()

    def run():
        for read, insert, delete in workload:
            detect_read_insert_linear(read, insert)
            detect_read_delete_linear(read, delete)

    benchmark(run)


def test_heuristic_prefilter_on(benchmark):
    """A1: general engine with the heuristic fast path (conflicting pair)."""
    read = Read("a[b/c]")
    insert = Insert("a/b", "<c/>")
    report = benchmark(
        lambda: decide_conflict(read, insert, exhaustive_cap=5, use_heuristics=True)
    )
    assert report.verdict is Verdict.CONFLICT


def test_heuristic_prefilter_off(benchmark):
    """A1: the same query forced through enumeration."""
    read = Read("a[b/c]")
    insert = Insert("a/b", "<c/>")
    report = benchmark(
        lambda: decide_conflict(read, insert, exhaustive_cap=5, use_heuristics=False)
    )
    assert report.verdict is Verdict.CONFLICT
