"""Cold catalogue analyses, each in a forked copy of a fresh interpreter.

Usage::

    python3 perfbench/catalogue_worker.py setup
    python3 perfbench/catalogue_worker.py WORKLOAD SEED JOBS TRACE SECONDS MINIMUM

``setup`` prints, as one JSON line, this interpreter's set-up time
(``import repro`` plus building the ``AnalysisConfig``) and the machine's
slowdown measured right after it (see ``common.slowdown``).

Otherwise the interpreter builds the catalogue once, then forks one copy
of itself per sample until SECONDS have passed (and at least MINIMUM
samples per mode were taken).  Each copy starts from the state a fresh
interpreter has after the import and the catalogue build, runs one cold
``repro.analyze()`` (nothing compiled, a fresh verdict cache) and exits,
so no analysis inherits another's heap, caches or interned patterns and
successive samples cannot drift, while no interpreter start-up is paid
per sample.  With TRACE=1 every other sample runs with the layer spans of
``spans.py`` installed.  Prints one JSON line per sample: wall time,
slowdown around it, verdict tallies, the correctness slice's verdicts,
peak RSS and, when traced, the per-layer metrics.

The interpreter is single-threaded when it forks, so forking is safe.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path[:0] = [
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"),
    os.path.dirname(os.path.abspath(__file__)),
]

import repro  # noqa: E402
from repro.obs.metrics import MetricsRegistry  # noqa: E402


def make_config(jobs: int) -> repro.AnalysisConfig:
    """The analysis every catalogue workload times (cap 1, fresh cache)."""
    return repro.AnalysisConfig(
        detector=repro.DetectorConfig(exhaustive_cap=1),
        jobs=jobs,
        cache=repro.VerdictCache(),
        registry=MetricsRegistry(),
    )


def compile_traffic() -> tuple[int, int]:
    stats = repro.global_compiler().stats().values()
    return sum(s["hits"] for s in stats), sum(s["misses"] for s in stats)


def pool_decide_metrics(histograms: dict) -> dict:
    """``decide.*`` per path from ``conflict.decide_ms{path,verdict}``."""
    from repro.obs.metrics import Histogram

    merged: dict[str, Histogram] = {}
    unknown: dict[str, int] = {}
    for key, snap in histograms.items():
        if not key.startswith("conflict.decide_ms{"):
            continue
        labels = dict(part.split("=", 1) for part in key[key.index("{") + 1:-1].split(","))
        path = labels["path"]
        merged.setdefault(path, Histogram()).absorb(snap)
        if labels.get("verdict") == "unknown":
            unknown[path] = unknown.get(path, 0) + snap["count"]
    out = {}
    for path, hist in merged.items():
        out[f"decide.calls.{path}"] = hist.count
        out[f"decide.self_ms.{path}"] = hist.sum
        out[f"decide.p50_ms.{path}"] = hist.quantile(0.5)
        out[f"decide.unknown.{path}"] = unknown.get(path, 0)
    return out


def analyze_once(ops: dict, slice_names: list, jobs: int, trace: bool) -> dict:
    """One cold analysis of ``ops`` (run in a forked copy)."""
    import catalogue
    import common
    import spans

    tracer = spans.Tracer()
    config = make_config(jobs)
    slowdown = common.slowdown()
    if trace:
        tracer.install()
    repro.reset_global_compiler()
    hits0, misses0 = compile_traffic()
    start = time.perf_counter()
    matrix = repro.analyze(ops, config=config)
    wall_s = time.perf_counter() - start
    tracer.uninstall()
    slowdown = (slowdown + common.slowdown()) / 2
    counts = matrix.counts()
    out = {
        "traced": trace,
        "analyze_s": wall_s,
        "slowdown": slowdown,
        "pairs": sum(counts.values()),
        "unknown": counts["unknown"],
        "degraded": matrix.degraded_count(),
        "slice": catalogue.slice_verdicts(matrix, slice_names),
        "rss_mb": common.vm_hwm_mb(),
    }
    if trace:
        hits1, misses1 = compile_traffic()
        snap = tracer.snapshot()
        layers = spans.layer_metrics(snap)
        lookups = (hits1 - hits0) + (misses1 - misses0)
        layers["compile.hit_rate"] = (hits1 - hits0) / lookups if lookups else 0.0
        registry = config.registry.snapshot()
        layers["pool.chunks"] = registry["counters"].get("batch.worker_chunks", 0)
        pool = snap.get("pool")
        if pool:
            # Pool workers decide out of reach of this process's spans;
            # their ``conflict.decide_ms`` histograms come back absorbed.
            worker_decide = pool_decide_metrics(registry["histograms"])
            layers.update(worker_decide)
            worker_ms = sum(
                value for name, value in worker_decide.items()
                if name.startswith("decide.self_ms.")
            )
            layers["pool.overhead_ms"] = pool["total_s"] * 1000.0 - worker_ms / jobs
        else:
            layers["pool.overhead_ms"] = 0.0
        layers["unattributed_ms"] = wall_s * 1000.0 - layers.pop("covered_ms")
        layers["unattributed_frac"] = layers["unattributed_ms"] / (wall_s * 1000.0)
        out["layers"] = layers
    return out


def forked(task) -> dict:
    """Run ``task()`` in a forked copy of this process; return its result."""
    import json
    import traceback

    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    pid = os.fork()
    if pid == 0:  # the copy: report through the pipe, never return
        os.close(read_fd)
        status = 1
        try:
            payload = json.dumps(task()).encode()
            with os.fdopen(write_fd, "wb") as out:
                out.write(payload)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"sample process failed with status {status}")
    return json.loads(data)


def main(argv: list[str]) -> None:
    import json

    if argv == ["setup"]:
        make_config(1)
        setup_s = time.perf_counter() - _T0
        import common

        print(json.dumps({"setup_s": setup_s, "slowdown": common.slowdown()}))
        return
    workload, seed, jobs, trace = argv[0], int(argv[1]), int(argv[2]), argv[3] == "1"
    seconds, minimum = float(argv[4]), int(argv[5])

    import catalogue

    ops = catalogue.build(workload, seed)
    names = catalogue.slice_names(ops)
    taken = {False: 0, True: 0}
    deadline = time.perf_counter() + seconds
    while (
        time.perf_counter() < deadline
        or taken[False] < minimum
        or (trace and taken[True] < minimum)
    ):
        # The traced run alternates traced and untraced samples, so the
        # tracing overhead is measured under the same conditions.
        traced = trace and taken[True] < taken[False]
        print(json.dumps(forked(lambda: analyze_once(ops, names, jobs, traced))))
        taken[traced] += 1


if __name__ == "__main__":
    main(sys.argv[1:])
