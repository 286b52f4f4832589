"""Statistics, environment and metric-table helpers shared by the runners."""

from __future__ import annotations

import gc
import hashlib
import math
import multiprocessing
import os
import platform
import random
import statistics
import subprocess
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))

#: Every end-to-end metric applies to every workload: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("pairs_per_s", "1/s"),
    ("unknown_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)

DECIDE_PATHS = ("linear", "general", "complex")

#: Per-layer metrics of the traced run: (name, unit).  Span counts and
#: times are per analysis on the catalogues and per cycle (the hot set
#: once plus its fresh pairs) on the service; ``service.*`` and
#: ``unattributed_ms`` there are per request.  A layer a workload does not
#: run reads 0 (``pool.*`` on serial catalogues, ``service.*`` on
#: catalogues, ``index.*`` on the service).
PER_LAYER = (
    ("canonicalize.calls", "count"),
    ("canonicalize.self_ms", "ms"),
    ("profile.calls", "count"),
    ("profile.self_ms", "ms"),
    ("compile.precompile_ms", "ms"),
    ("compile.hit_rate", "ratio"),
    ("index.calls", "count"),
    ("index.self_ms", "ms"),
    ("index.discharge_rate", "ratio"),
    ("containment.calls", "count"),
    ("containment.self_ms", "ms"),
    ("containment.hit_rate", "ratio"),
    ("cache.lookups", "count"),
    ("cache.hit_rate", "ratio"),
    *((f"decide.calls.{path}", "count") for path in DECIDE_PATHS),
    *((f"decide.self_ms.{path}", "ms") for path in DECIDE_PATHS),
    *((f"decide.p50_ms.{path}", "ms") for path in DECIDE_PATHS),
    *((f"decide.unknown.{path}", "count") for path in DECIDE_PATHS),
    ("witness.calls", "count"),
    ("witness.ms", "ms"),
    ("decide.nowitness_ms", "ms"),
    ("assemble.calls", "count"),
    ("assemble.self_ms", "ms"),
    ("pool.starts", "count"),
    ("pool.chunks", "count"),
    ("pool.overhead_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("service.exec_ms", "ms"),
    ("service.http_ms", "ms"),
    ("service.wire_ms", "ms"),
    ("service.cache_hit_rate", "ratio"),
    ("check_p99_ms", "ms"),
    ("check_miss_p50_ms", "ms"),
    ("error_frac", "ratio"),
    ("unattributed_ms", "ms"),
    ("unattributed_frac", "ratio"),
    ("trace_overhead_frac", "ratio"),
)


def child_env() -> dict:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


#: Seconds :func:`probe` takes on an uncontended vCPU of the host this
#: benchmark was tuned on (2-vCPU Xeon VM, CPython 3.11).
PROBE_REF_S = 0.025


def probe() -> float:
    """Seconds for a fixed, allocation-heavy pure-Python task.

    It runs no code of the program under test, so a change to the
    program cannot move it; only the machine's current speed does.  The
    cyclic collector is off meanwhile: its passes scale with the calling
    process's heap, which would make the probe depend on its caller.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        rng = random.Random(7)
        rows = [(rng.random(), str(i), {"k": i}) for i in range(20_000)]
        rows.sort()
        index = {row[1]: row for row in rows}
        total = 0
        for i in range(0, 20_000, 3):
            total += index[str(i)][2]["k"]
        return time.perf_counter() - start
    finally:
        gc.enable()


def slowdown() -> float:
    """The machine's current slowdown: :func:`probe` on each CPU / reference.

    The host this benchmark was tuned on shares its CPUs with other
    tenants: for tens of seconds at a time the same work runs 1.2-1.9x
    slower, so raw times of one run depend on when it ran.  Timed
    metrics are divided by the slowdown measured around them (probes on
    every CPU this process may use, as the work may run on any), which
    rescales them to the uncontended speed of that host.
    """
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(probe())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(times) / PROBE_REF_S


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q <= 1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size of a process, from ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def source_digest() -> str:
    """SHA-256 over the program's source files (stands in for a commit)."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree.

    The ceiling keeps git from searching directories above the checkout.
    """
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    methods = multiprocessing.get_all_start_methods()
    start_method = os.environ.get("REPRO_START_METHOD") or (
        "fork" if "fork" in methods else "spawn"
    )
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "start_method": start_method,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def print_table(title: str, metrics: dict) -> None:
    """Human-readable ``name value unit`` rows (stdout, before the result)."""
    print(f"== {title}")
    for name, entry in metrics.items():
        print(f"  {name:<28} {entry['value']:>16.6g} {entry['unit']}")
