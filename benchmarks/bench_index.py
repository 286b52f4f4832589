"""Pattern-index headline: 10k-operation catalogue, sub-quadratic analysis.

The acceptance bar for the static pattern index
(:mod:`repro.conflicts.index`) is a 10,000-operation catalogue analyzed
end to end with >= 60% of all pairs discharged *without a decision
procedure* — by the trivial read/read path, the static index rules, or
containment propagation — and the per-stage timing breakdown showing
the decide stage no longer dominates.

The catalogue mimics compiler-extracted workloads: ~250 distinct
patterns over 8 disjoint document roots, repeated across thousands of
program points, update-light (~80% reads).  Cross-root read/update
pairs are exactly what the chain rule discharges at position 0; the
group/unit layer then amplifies every discharge across all name pairs
sharing the two shapes.

Soundness is asserted before any number is trusted: an index-off run
over a smaller slice must agree verdict-for-verdict with the index-on
run (the same differential oracle the CI job pins).

Emits ``BENCH_index.json`` next to this file (override with
``BENCH_INDEX_OUT``).  ``BENCH_SMOKE=1`` shrinks the workload for CI
smoke runs; the discharge floor is enforced in both modes on the mixed
1k-op (smoke: 200-op) workload.

Run with ``PYTHONPATH=src:benchmarks python -m pytest benchmarks/bench_index.py -s``.
"""

from __future__ import annotations

import itertools
import json
import os

from bench_utils import measure, print_series
from repro.conflicts.batch import BatchAnalyzer, VerdictCache
from repro.conflicts.detector import DetectorConfig
from repro.operations.ops import Delete, Insert, Read

SMOKE = bool(os.environ.get("BENCH_SMOKE"))

TOTAL_OPS = 400 if SMOKE else 10_000
MIXED_OPS = 200 if SMOKE else 1_000
DIFF_OPS = 60 if SMOKE else 120

#: Same trade as bench_matrix: linear reads stay exact regardless of the
#: budget; update-update pairs resolve quickly (UNKNOWN when unproven).
CONFIG = DetectorConfig(exhaustive_cap=1)

ROOTS = ("bib", "inv", "cat", "log", "arc", "idx", "reg", "lab")
SECTIONS = ("book", "item", "entry", "row")
LEAVES = ("title", "price", "quantity", "note", "isbn", "stale", "extra")


def build_shapes() -> list:
    """~250 distinct operation shapes over 8 disjoint roots."""
    shapes = []
    for root in ROOTS:
        for section in SECTIONS:
            for leaf in LEAVES:
                shapes.append(Read(f"{root}/{section}/{leaf}"))
        shapes.append(Read(f"{root}//price"))
        shapes.append(Delete(f"{root}/{SECTIONS[0]}/stale"))
        shapes.append(Insert(f"{root}/{SECTIONS[1]}", "<note>x</note>"))
    return shapes


def build_catalogue(total: int) -> dict:
    """``total`` names cycling over the distinct shapes, update-light."""
    shapes = build_shapes()
    reads = [op for op in shapes if isinstance(op, Read)]
    updates = [op for op in shapes if not isinstance(op, Read)]
    catalogue = {}
    for index in range(total):
        # 4 in 5 names are reads, matching compiler-extracted catalogues.
        if index % 5 < 4:
            catalogue[f"r{index:05d}"] = reads[index % len(reads)]
        else:
            catalogue[f"u{index:05d}"] = updates[index % len(updates)]
    return catalogue


def stage_timings_ms(analyzer: BatchAnalyzer) -> dict:
    histograms = analyzer.metrics()["histograms"]
    out = {}
    for stage in ("index", "containment", "decide"):
        snap = histograms.get(f"batch.stage_ms{{stage={stage}}}")
        out[stage] = round(snap["sum"], 3) if snap else 0.0
    return out


def fractions(matrix) -> dict:
    counts = matrix.discharge_counts()
    total = max(1, sum(counts.values()))
    static = counts["trivial"] + counts["index"] + counts["containment"]
    return {
        "pairs_total": total,
        "counts": counts,
        "fraction_index": counts["index"] / total,
        "fraction_containment": counts["containment"] / total,
        "fraction_trivial": counts["trivial"] / total,
        "fraction_decided": counts["decided"] / total,
        "fraction_static": static / total,
    }


def _emit(payload: dict) -> None:
    default = os.path.join(os.path.dirname(__file__), "BENCH_index.json")
    path = os.environ.get("BENCH_INDEX_OUT", default)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"\nwrote {path}")


def test_index_discharges_10k_catalogue(benchmark):
    """The headline: 10k operations end to end, sparse matrix, with the
    overwhelming majority of pairs never reaching a decision procedure."""
    catalogue = build_catalogue(TOTAL_OPS)

    # Soundness gate first: index-on and index-off agree on a slice small
    # enough to afford the quadratic index-off baseline.
    slice_ops = dict(itertools.islice(catalogue.items(), DIFF_OPS))
    on = BatchAnalyzer(CONFIG, jobs=1, cache=VerdictCache())
    off = BatchAnalyzer(
        CONFIG, jobs=1, cache=VerdictCache(), index=False, containment=False
    )
    on_matrix = on.analyze(slice_ops)
    off_matrix = off.analyze(slice_ops)
    for a, b in itertools.combinations(slice_ops, 2):
        assert on_matrix.verdict(a, b) is off_matrix.verdict(a, b), (a, b)

    analyzer = BatchAnalyzer(CONFIG, jobs=1, cache=VerdictCache())

    def run() -> None:
        BatchAnalyzer(CONFIG, jobs=1, cache=VerdictCache()).analyze(catalogue)

    elapsed = benchmark.pedantic(
        lambda: measure(run, repeat=1), rounds=1, iterations=1
    )
    matrix = analyzer.analyze(catalogue)
    stats = fractions(matrix)
    stages = stage_timings_ms(analyzer)
    print_series(
        f"{TOTAL_OPS}-op catalogue discharge fractions",
        ["index", "containment", "trivial", "decided"],
        [
            stats["fraction_index"],
            stats["fraction_containment"],
            stats["fraction_trivial"],
            stats["fraction_decided"],
        ],
        unit="fraction",
    )
    print_series(
        "per-stage wall clock", list(stages), list(stages.values()), unit="ms"
    )
    assert stats["fraction_static"] >= 0.6, stats

    mixed = build_catalogue(MIXED_OPS)
    mixed_analyzer = BatchAnalyzer(CONFIG, jobs=1, cache=VerdictCache())
    mixed_stats = fractions(mixed_analyzer.analyze(mixed))
    # The issue's floor: >= 60% of the mixed 1k-op workload's pairs
    # discharged without a decision procedure, enforced in smoke too.
    assert mixed_stats["fraction_static"] >= 0.6, mixed_stats

    _emit(
        {
            "workload": {
                "operations": TOTAL_OPS,
                "distinct_shapes": len(build_shapes()),
                "roots": len(ROOTS),
                "exhaustive_cap": CONFIG.exhaustive_cap,
                "smoke": SMOKE,
            },
            "end_to_end_s": elapsed,
            "discharge": stats,
            "stage_ms": stages,
            "mixed_1k": mixed_stats,
            "differential_ops": DIFF_OPS,
            "verdicts_identical": True,
        }
    )
