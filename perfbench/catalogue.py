"""The catalogue workloads: repeated cold ``repro.analyze()`` calls.

This process generates the catalogue, computes the correctness
expectation, times ``SETUPS`` fresh interpreters for ``setup_s``, lets one
:mod:`catalogue_worker` take cold-analysis samples until the measuring
time is spent, and reduces them to the end-to-end and per-layer metrics:
medians over the samples, times divided by each sample's measured
slowdown (``common.slowdown``).

Correctness gate: the verdicts of a fixed slice of the catalogue, read
off every timed (index-on, containment-on) matrix, must equal those of an
index-off, containment-off analysis of the slice alone.  Every differing
pair, and every degraded pair of the full matrix, counts as a failure.
"""

from __future__ import annotations

import json
import subprocess
import sys

import common
import workloads

#: catalogue workload -> (generator, pool processes)
CATALOGUES = {
    "catalogue-static": (workloads.static_catalogue, 1),
    "catalogue-pool": (workloads.decide_catalogue, 2),
}

#: Most names in the correctness slice (every k-th name, k chosen to fit).
SLICE_OPS = 120

#: Minimum samples per mode, even when one sample outlasts the run time.
MIN_SAMPLES = 3

#: Fresh interpreters timed per run for ``setup_s``.
SETUPS = 9

#: One letter per verdict in slice strings.
LETTER = {"conflict": "c", "no-conflict": "n", "unknown": "u"}


def build(workload: str, seed: int) -> dict:
    generator, _ = CATALOGUES[workload]
    return generator(seed)


def slice_names(ops: dict) -> list[str]:
    names = list(ops)
    step = -(-len(names) // SLICE_OPS)
    return names[::step]


def slice_verdicts(matrix, names: list[str]) -> str:
    """Verdicts of every slice pair, one letter each, in pair order."""
    return "".join(
        LETTER[matrix.verdict(a, names[j]).value]
        for i, a in enumerate(names)
        for j in range(i + 1, len(names))
    )


def reference_verdicts(ops: dict) -> str:
    """The expectation: the slice analyzed with index and containment off."""
    import repro

    names = slice_names(ops)
    config = repro.AnalysisConfig(
        detector=repro.DetectorConfig(exhaustive_cap=1),
        cache=repro.VerdictCache(),
        index=False,
        containment=False,
    )
    matrix = repro.analyze({name: ops[name] for name in names}, config=config)
    return slice_verdicts(matrix, names)


def worker(*args, timeout: float) -> list[dict]:
    """Run :mod:`catalogue_worker` with ``args``; its JSON lines."""
    proc = subprocess.run(
        [sys.executable, f"{common.HERE}/catalogue_worker.py", *map(str, args)],
        capture_output=True, text=True, env=common.child_env(), timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"catalogue_worker failed:\n{proc.stderr[-2000:]}")
    return [json.loads(line) for line in proc.stdout.splitlines()]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure ``workload``; returns the runner's result fields."""
    _, jobs = CATALOGUES[workload]
    expected = reference_verdicts(build(workload, seed))
    setups = [worker("setup", timeout=60)[0] for _ in range(SETUPS)]
    samples = worker(
        workload, seed, jobs, int(trace), seconds, MIN_SAMPLES, timeout=seconds + 100
    )
    plain = [r for r in samples if not r["traced"]]
    traced = [r for r in samples if r["traced"]]
    failed = 0
    for result in samples:
        failed += sum(a != b for a, b in zip(result["slice"], expected))
        failed += abs(len(result["slice"]) - len(expected)) + result["degraded"]
    attempted = sum(result["pairs"] for result in samples)
    analyze_s = common.median(r["analyze_s"] / r["slowdown"] for r in plain)
    pairs = plain[0]["pairs"]
    e2e = {
        "setup_s": common.median(r["setup_s"] / r["slowdown"] for r in setups),
        "latency_ms": analyze_s * 1000.0,
        "pairs_per_s": pairs / analyze_s,
        "unknown_frac": plain[0]["unknown"] / pairs,
        "peak_rss_mb": common.median(r["rss_mb"] for r in plain),
    }
    layers = {}
    if trace:
        layers = {
            name: common.median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        layers["error_frac"] = failed / attempted
        traced_s = common.median(r["analyze_s"] / r["slowdown"] for r in traced)
        layers["trace_overhead_frac"] = traced_s / analyze_s - 1.0
    return {
        "attempted": attempted,
        "failed": failed,
        "end_to_end": e2e,
        "layers": layers,
        "samples": {"untraced": len(plain), "traced": len(traced)},
    }
