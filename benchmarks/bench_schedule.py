"""E15: conflict matrices and parallel scheduling at catalogue scale.

Measures building a full pairwise may-conflict matrix over growing
operation catalogues (quadratic pair count, amortized by the batch
engine's canonical dedup), rebuilding it from a shared
:class:`~repro.conflicts.verdict_cache.VerdictCache`, and the quality of
the greedy batching: how much of a realistic catalogue lands in the
first (fully parallel) phase.
"""

from __future__ import annotations

import itertools
import random

import pytest

from bench_utils import measure, print_series
from repro.conflicts.batch import BatchAnalyzer
from repro.conflicts.detector import ConflictDetector
from repro.conflicts.verdict_cache import VerdictCache
from repro.operations.ops import Delete, Insert, Read
from repro.workloads.generators import random_delete, random_insert, random_read

CATALOGUE_SIZES = [4, 8, 16]


def build_matrix(catalogue, detector, cache=None):
    return BatchAnalyzer(detector=detector, cache=cache).analyze(catalogue)


def _catalogue(size: int, seed: int):
    rng = random.Random(seed)
    out = {}
    for index in range(size):
        roll = rng.random()
        if roll < 0.5:
            out[f"read{index}"] = random_read(3, ("a", "b"), seed=rng)
        elif roll < 0.8:
            out[f"ins{index}"] = random_insert(
                2, alphabet=("a", "b"), seed=rng, linear=True
            )
        else:
            out[f"del{index}"] = random_delete(
                2, ("a", "b"), seed=rng, linear=True
            )
    return out


@pytest.mark.parametrize("size", CATALOGUE_SIZES)
def test_matrix_construction(benchmark, size):
    """E15: full matrix over a catalogue of `size` operations."""
    catalogue = _catalogue(size, seed=size)
    detector = ConflictDetector(exhaustive_cap=3)
    benchmark(lambda: build_matrix(catalogue, detector))


def test_schedule_validity_and_quality(benchmark):
    """E15: batches are interference-free; report the parallelism."""
    bookstore_ops = {
        "titles": Read("bib/book/title"),
        "quantities": Read("//quantity"),
        "publishers": Read("bib/book/publisher/name"),
        "restock": Insert("bib/book", "<restock/>"),
        "purge": Delete("bib/book"),
        "strip": Delete("bib/book/restock"),
    }
    detector = ConflictDetector(exhaustive_cap=4)

    def run():
        analyzer = BatchAnalyzer(detector=detector)
        matrix = analyzer.analyze(bookstore_ops)
        return matrix, analyzer.schedule()

    matrix, batches = benchmark.pedantic(run, rounds=1, iterations=1)
    for batch in batches:
        for a, b in itertools.combinations(batch, 2):
            assert not matrix.may_conflict(a, b)
    print(f"\nE15 schedule: {len(batches)} phases for "
          f"{len(bookstore_ops)} operations; first phase holds "
          f"{len(batches[0])}")
    assert len(batches[0]) >= 3, "the reads should share the first phase"


def test_matrix_scaling_series(benchmark):
    """E15 summary: pair count is quadratic; a shared cache makes rebuilds cheap."""

    def sweep() -> tuple[list[float], list[float]]:
        cold, warm = [], []
        for size in CATALOGUE_SIZES:
            catalogue = _catalogue(size, seed=size)
            detector = ConflictDetector(exhaustive_cap=3)
            # Warm reuse is the point of the second build: it shares the
            # first build's VerdictCache, so no pair is decided again.
            cache = VerdictCache()
            cold.append(
                measure(lambda: build_matrix(catalogue, detector, cache), repeat=1)
            )
            warm.append(
                measure(lambda: build_matrix(catalogue, detector, cache), repeat=1)
            )
        return cold, warm

    cold, warm = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_series("E15 matrix build vs catalogue size", CATALOGUE_SIZES, cold)
    print_series(
        "E15 rebuild from a shared VerdictCache", CATALOGUE_SIZES, warm
    )
    assert cold[-1] > 0
