"""``repro`` — a reproduction of *Conflicting XML Updates* (EDBT 2006).

Raghavachari & Shmueli study when XPath-driven update operations on XML
documents *conflict* — when executing an update before a read can change
what the read returns, on some document.  This library implements the whole
paper: the tree/pattern formalism, the three conflict semantics, the
polynomial-time detection algorithms for linear reads, the NP-side
machinery (bounded witness search, witness minimization, hardness
reductions), and the compiler-analysis application that motivates it all.

Quick start::

    from repro import ConflictDetector, Read, Insert, Verdict

    detector = ConflictDetector()
    report = detector.read_insert(Read("*//C"), Insert("*/B", "<C/>"))
    assert report.verdict is Verdict.CONFLICT
    print(report.witness.sketch())   # a concrete document showing it

Whole catalogues (the Section 7 compiler question) go through one
facade — :func:`repro.analyze` decides every pair, with a static pattern
index that discharges provably-independent pairs in O(1), canonical-form
dedup, a shareable verdict cache, and an optional worker pool::

    import repro
    from repro import Read, Insert, Delete

    ops = {
        "titles": Read("bib/book/title"),
        "restock": Insert("bib/book", "<restock/>"),
        "purge": Delete("bib/book"),
    }
    matrix = repro.analyze(ops)                      # ConflictMatrix
    matrix.may_conflict("titles", "purge")           # True
    matrix.discharge_reason("titles", "restock")     # how it was settled
    repro.analyze(ops, mode="schedule")              # interference-free phases

    config = repro.AnalysisConfig(jobs=4, index=True, containment=True)
    repro.analyze(ops, config=config)

Hold a :class:`BatchAnalyzer` directly when you need incremental
maintenance (``add_op``/``remove_op``) or cache snapshots.

Package map:

* :mod:`repro.xml` — unordered labeled trees, XML parsing/serialization,
  isomorphism, tree enumeration, random documents.
* :mod:`repro.patterns` — tree patterns, the XPath fragment, embedding
  evaluation, pattern containment.
* :mod:`repro.automata` — weak/strong matching of linear patterns.
* :mod:`repro.operations` — ``READ`` / ``INSERT`` / ``DELETE`` semantics.
* :mod:`repro.conflicts` — the conflict engine (the paper's contribution).
* :mod:`repro.lang` — the pidgin update language and dependence analysis.
* :mod:`repro.workloads` — reproducible generators for the experiments.
* :mod:`repro.resilience` — cooperative budgets, quarantine, and fault
  injection: conflict detection is NP-hard (Theorems 4 and 6), so
  decisions can be bounded by wall-clock/step budgets and degrade to a
  conservative ``UNKNOWN`` carrying a machine-readable reason::

      detector = ConflictDetector(deadline_s=2.0, max_steps=200_000)
      report = detector.read_insert(read, insert)
      if report.degraded:        # timeout / step_limit, never cached
          print(report.reason)

* :mod:`repro.service` — a long-running HTTP/JSON daemon over the engine
  (``repro serve``): warm compile caches, a persistent verdict cache,
  bounded admission (429 on overload), and graceful SIGTERM drain.
  ``ConflictService``, ``ServiceConfig``, and ``ServiceClient`` are
  importable from the top level but loaded lazily, so library users who
  never serve pay nothing for the HTTP stack.
* :mod:`repro.replication` — the replication & conflict-resolution
  scenario engine (``docs/REPLICATION.md``): N replicas of one document
  edit concurrently, sync rounds classify concurrent pairs through the
  conflict engine (in-process or a live service endpoint), certified
  conflicts go through pluggable resolvers, and every replica's tree is
  a deterministic replay of the surviving operations — convergence by
  construction, checked with tree isomorphism.  ``repro replay`` runs
  declarative scenario files; also exported lazily.
"""

from repro.compile import (
    PatternCompiler,
    global_compiler,
    reset_global_compiler,
)
from repro.conflicts import (
    AnalysisConfig,
    BatchAnalyzer,
    ConflictDetector,
    ConflictKind,
    ConflictMatrix,
    ConflictReport,
    DetectorConfig,
    Operation,
    PatternIndex,
    StaticProfile,
    Verdict,
    VerdictCache,
    analyze,
    is_witness,
    minimize_witness,
)
from repro.errors import BudgetExceeded, CacheCorrupt, ReproError
from repro.operations import Delete, Insert, Read, UpdateResult
from repro.patterns import TreePattern, evaluate, parse_xpath, to_xpath
from repro.resilience import Budget, budget_scope, current_budget
from repro.xml import XMLTree, build_tree, parse, serialize

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "analyze",
    "AnalysisConfig",
    "ConflictDetector",
    "DetectorConfig",
    "ConflictKind",
    "ConflictReport",
    "Verdict",
    "BatchAnalyzer",
    "VerdictCache",
    "Operation",
    "ConflictMatrix",
    "PatternIndex",
    "StaticProfile",
    "is_witness",
    "minimize_witness",
    "PatternCompiler",
    "global_compiler",
    "reset_global_compiler",
    "Read",
    "Insert",
    "Delete",
    "UpdateResult",
    "TreePattern",
    "parse_xpath",
    "to_xpath",
    "evaluate",
    "XMLTree",
    "build_tree",
    "parse",
    "serialize",
    "ReproError",
    "Budget",
    "budget_scope",
    "current_budget",
    "BudgetExceeded",
    "CacheCorrupt",
    "ConflictService",
    "ServiceConfig",
    "ServiceClient",
    "ReplicationSession",
    "InProcessBackend",
    "ServiceBackend",
    "Scenario",
    "ScenarioResult",
    "load_scenario",
    "run_scenario",
    "scenario_from_dict",
    "BUILTIN_RESOLVERS",
    "random_replication_scenario",
]

# The service names resolve lazily (PEP 562): importing repro must not
# drag in http.server and the admission machinery for library users.
_LAZY_EXPORTS = {
    "ConflictService": "repro.service.server",
    "ServiceConfig": "repro.service.config",
    "ServiceClient": "repro.service.client",
    # Replication scenario engine (docs/REPLICATION.md) — lazy for the
    # same reason as the service tier: pure pair-checking users never
    # touch sessions, resolvers, or the scenario DSL.
    "ReplicationSession": "repro.replication",
    "InProcessBackend": "repro.replication",
    "ServiceBackend": "repro.replication",
    "Scenario": "repro.replication",
    "ScenarioResult": "repro.replication",
    "load_scenario": "repro.replication",
    "run_scenario": "repro.replication",
    "scenario_from_dict": "repro.replication",
    "BUILTIN_RESOLVERS": "repro.replication",
    "random_replication_scenario": "repro.workloads.replication",
}


def __getattr__(name: str):  # type: ignore[no-untyped-def]
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
