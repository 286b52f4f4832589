"""Compile-once cache: a warm shared compiler amortizes across catalogues.

The compile layer (:mod:`repro.compile`) owns every pattern-level
artifact the decision path derives — interned patterns, trunks, spine
prefixes, bitset mask tables, matching words and profiles.  A second
catalogue analysed with a fresh detector on the *same* compiler
isolates the compile layer's contribution: it inherits only the
compiled artifacts.

Run with ``PYTHONPATH=src:benchmarks python -m pytest benchmarks/bench_compile.py -s``.
"""

from __future__ import annotations

import os

from bench_utils import measure, print_series
from repro.compile.compiler import PatternCompiler
from repro.conflicts.batch import reference_matrix
from repro.conflicts.detector import ConflictDetector, DetectorConfig
from repro.operations.ops import Delete, Insert, Read

SMOKE = bool(os.environ.get("BENCH_SMOKE"))

TOTAL_OPS = 12 if SMOKE else 64

#: Budget 1 keeps the (few) update-update pairs sound-but-fast; the
#: compile cache never touches that path, so letting the bounded search
#: run long would only dilute what this benchmark measures.  Every read
#: here is linear, so read-update verdicts are exact either way.  Every
#: query re-decides and re-builds its witness, sharing only the
#: pattern-level artifacts its compiler holds.
DETECTOR_CONFIG = DetectorConfig(exhaustive_cap=1)

#: Entries per memo family of each private compiler.
COMPILER_SIZE = 4096

#: A compiler-extracted catalogue shape: many program points, few unique
#: patterns.  All linear, so the hot path is the PTIME decision procedure
#: the compile layer accelerates.  Reads are document-path deep (the
#: XMark-ish nesting real XPath workloads have).  Updates are a small
#: slice — their pairwise commutativity checks go through the NP-side
#: bounded search, which the compile cache (correctly) never touches, so
#: they only add identical time to both sides of the comparison.
READ_SHAPES = [
    "site//regions/*/item//description/parlist//listitem/text//keyword/emph",
    "site/people//person/profile//interest/category//description/text//bold",
    "site//open_auctions/open_auction//bidder/increase//amount/currency",
    "site/regions//item/mailbox//mail/text//keyword/*/emph//strong",
    "site//categories/category/description//parlist/listitem//text/emph//keyword",
    "site/closed_auctions//closed_auction/annotation//description/parlist//listitem/text",
    "site//people/person//watches/watch//open_auction/annotation//author",
    "site/regions/*/item//description/text//keyword/bold//emph",
]
#: Update patterns stay shallow: their pairwise commutativity checks run
#: the NP-side bounded search whose cost scales with pattern size and is
#: identical on both sides — small patterns keep that shared constant
#: small without changing any verdict.
INSERT_SHAPES = [
    ("site//parlist", "<listitem><text/></listitem>"),
    ("site//watches", "<watch/>"),
]
DELETE_SHAPES = [
    "site//keyword",
    "site//incategory",
]


def build_catalogue() -> dict:
    """~94% duplicated reads, plus two insert and two delete shapes."""
    reads = TOTAL_OPS - 4
    inserts = 2
    deletes = TOTAL_OPS - reads - inserts
    catalogue = {}
    for index in range(reads):
        catalogue[f"r{index:02d}"] = Read(READ_SHAPES[index % len(READ_SHAPES)])
    for index in range(inserts):
        xpath, fragment = INSERT_SHAPES[index % len(INSERT_SHAPES)]
        catalogue[f"i{index:02d}"] = Insert(xpath, fragment)
    for index in range(deletes):
        catalogue[f"d{index:02d}"] = Delete(DELETE_SHAPES[index % len(DELETE_SHAPES)])
    assert len(catalogue) == TOTAL_OPS
    return catalogue


def test_warm_compiler_amortizes_across_catalogues(benchmark):
    """A shared compiler makes the *second* catalogue cheaper than the first.

    This isolates the compile layer's contribution: the second detector
    starts cold except for the compiled artifacts it inherits through
    the shared compiler.
    """
    catalogue = build_catalogue()

    def sweep() -> dict:
        shared = PatternCompiler(maxsize=COMPILER_SIZE)

        def analyse(compiler: PatternCompiler) -> None:
            detector = ConflictDetector(config=DETECTOR_CONFIG, compiler=compiler)
            reference_matrix(catalogue, detector)

        def cold() -> None:
            analyse(PatternCompiler(maxsize=COMPILER_SIZE))

        analyse(shared)  # warm the shared compiler

        def warm() -> None:
            analyse(shared)

        return {
            "cold_compiler_s": measure(cold, repeat=3),
            "warm_compiler_s": measure(warm, repeat=3),
        }

    result = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_series(
        "second catalogue with a shared compiler",
        list(result),
        list(result.values()),
    )
    # Loose shape assertion only — the cold run includes compilation, so
    # warm must not be slower by more than noise.
    assert result["warm_compiler_s"] <= result["cold_compiler_s"] * 1.25
