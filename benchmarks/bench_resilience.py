"""Resilience layer overhead: armed budget checkpoints must stay <3%.

The cooperative budget (:mod:`repro.resilience.budget`) threads
``checkpoint(...)`` calls through every search hot loop — the NFA
product construction, the general-engine candidate enumeration, the
satisfiability models.  The design bet is that an *armed* budget with
generous limits (the common production configuration: a deadline you
never expect to hit) costs almost nothing: a thread-local read, an
integer increment, and a monotonic-clock read every 32nd step.

This benchmark holds the batch engine to that bet on the same
64-operation catalogue as ``bench_matrix.py``: the full matrix analysis
with ``deadline_s``/``max_steps`` set far above what the workload needs
must be within 3% of the unbudgeted run (median of 5, with a noise
allowance on top because sub-second medians jitter more than 3% on
shared CI runners).

Emits ``BENCH_resilience.json`` next to this file (override with
``BENCH_RESILIENCE_OUT``).  ``BENCH_SMOKE=1`` shrinks the workload and
skips the overhead floor (verdict equivalence is still enforced).

Run with ``PYTHONPATH=src:benchmarks python -m pytest benchmarks/bench_resilience.py -s``.
"""

from __future__ import annotations

import itertools
import json
import os

from bench_utils import measure, print_series
from repro.conflicts.batch import BatchAnalyzer, VerdictCache
from repro.conflicts.detector import DetectorConfig
from repro.operations.ops import Delete, Insert, Read
from repro.xml.random_trees import random_tree
from repro.xml.serializer import serialize

SMOKE = bool(os.environ.get("BENCH_SMOKE"))

TOTAL_OPS = 12 if SMOKE else 64
FRAGMENT_NODES = 30 if SMOKE else 800

#: Same sound-but-fast update-update budget as ``bench_matrix.py``; the
#: resilience knobs are layered on top of it, never instead of it.
BASE_CONFIG = DetectorConfig(exhaustive_cap=1)

#: Generous limits the workload never hits — the benchmark measures the
#: cost of *checking*, not of degrading.
ARMED_CONFIG = DetectorConfig(
    exhaustive_cap=1, deadline_s=3600.0, max_steps=10**12
)

#: The 3% product bar plus a jitter allowance for shared runners; the
#: emitted JSON records the raw ratio so regressions are still visible
#: even when the assertion's slack absorbs them.
OVERHEAD_FLOOR = 0.03
NOISE_ALLOWANCE = 0.04

READ_SHAPES = [
    "bib/book/title",
    "bib//quantity",
    "bib/book/price",
    "//title",
    "bib/book",
    "bib//book/extra",
]


def _fragment(seed: int) -> str:
    alphabet = ("book", "title", "quantity", "price", "extra", "note")
    return serialize(random_tree(FRAGMENT_NODES, alphabet, seed=seed))


def build_catalogue() -> dict:
    """Mirror of the ``bench_matrix`` catalogue: duplicated reads, two
    insert shapes, a delete — the compiler-extracted shape."""
    reads = max(1, int(TOTAL_OPS * 0.66))
    inserts = max(1, int(TOTAL_OPS * 0.25))
    deletes = TOTAL_OPS - reads - inserts
    insert_shapes = [
        Insert("bib/book", _fragment(11)),
        Insert("bib", _fragment(12)),
    ]
    catalogue = {}
    for index in range(reads):
        catalogue[f"r{index:02d}"] = Read(READ_SHAPES[index % len(READ_SHAPES)])
    for index in range(inserts):
        catalogue[f"i{index:02d}"] = insert_shapes[index % len(insert_shapes)]
    for index in range(deletes):
        catalogue[f"d{index:02d}"] = Delete("bib/book/stale")
    assert len(catalogue) == TOTAL_OPS
    return catalogue


def _emit(payload: dict) -> None:
    default = os.path.join(os.path.dirname(__file__), "BENCH_resilience.json")
    path = os.environ.get("BENCH_RESILIENCE_OUT", default)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"\nwrote {path}")


def test_budget_checkpoint_overhead(benchmark):
    """Armed-but-unhit budget vs no budget on the BENCH_matrix workload.

    Both runs are serial (``jobs=1``) so the comparison times the engine
    itself, not pool scheduling noise, and both start cold (fresh
    analyzer, fresh verdict cache) every iteration.
    """
    catalogue = build_catalogue()

    def run(config: DetectorConfig):
        def go() -> None:
            BatchAnalyzer(config, jobs=1, cache=VerdictCache()).analyze(
                catalogue
            )

        return go

    # Correctness first: generous budgets change no verdict and degrade
    # no pair.
    plain = BatchAnalyzer(BASE_CONFIG, jobs=1, cache=VerdictCache()).analyze(
        catalogue
    )
    armed = BatchAnalyzer(ARMED_CONFIG, jobs=1, cache=VerdictCache()).analyze(
        catalogue
    )
    assert armed.degraded_pairs() == []
    for a, b in itertools.combinations(plain.names, 2):
        assert plain.verdict(a, b) is armed.verdict(a, b), (a, b)

    def sweep() -> dict:
        return {
            "unbudgeted_s": measure(run(BASE_CONFIG), repeat=5),
            "budgeted_s": measure(run(ARMED_CONFIG), repeat=5),
        }

    result = benchmark.pedantic(sweep, rounds=1, iterations=1)
    overhead = result["budgeted_s"] / max(result["unbudgeted_s"], 1e-12) - 1.0
    print_series(
        "matrix analysis: unbudgeted vs armed budget",
        list(result),
        list(result.values()),
    )
    print(f"budget checkpoint overhead: {overhead * 100:+.2f}%")
    _emit(
        {
            "workload": {
                "operations": TOTAL_OPS,
                "fragment_nodes": FRAGMENT_NODES,
                "exhaustive_cap": BASE_CONFIG.exhaustive_cap,
                "deadline_s": ARMED_CONFIG.deadline_s,
                "max_steps": ARMED_CONFIG.max_steps,
                "smoke": SMOKE,
            },
            "timings_s": result,
            "overhead_fraction": overhead,
            "overhead_floor": OVERHEAD_FLOOR,
            "verdicts_identical": True,
        }
    )
    if not SMOKE:
        assert overhead <= OVERHEAD_FLOOR + NOISE_ALLOWANCE, (
            f"armed budget costs {overhead * 100:.2f}% "
            f"(floor {OVERHEAD_FLOOR * 100:.0f}% "
            f"+ noise {NOISE_ALLOWANCE * 100:.0f}%): {result}"
        )
