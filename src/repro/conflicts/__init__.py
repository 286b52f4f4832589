"""Conflict detection between XML update operations — the paper's core."""

from repro.conflicts.api import AnalysisConfig, analyze
from repro.conflicts.batch import (
    BatchAnalyzer,
    CanonicalOp,
    Operation,
    reference_matrix,
)
from repro.conflicts.matrix import ConflictMatrix
from repro.conflicts.verdict_cache import VerdictCache
from repro.conflicts.index import (
    PatternIndex,
    StaticProfile,
    profile_pattern,
    result_containment,
)
from repro.conflicts.complex import (
    detect_update_update,
    find_commutativity_witness_exhaustive,
    is_commutativity_witness,
)
from repro.conflicts.detector import ConflictDetector, DetectorConfig
from repro.conflicts.general import (
    decide_conflict,
    enumerate_witnesses,
    find_witness_exhaustive,
    find_witness_heuristic,
    witness_alphabet,
    witness_size_bound,
)
from repro.conflicts.complex_reductions import (
    commutativity_witness_from_noncontainment,
    insert_delete_gadget,
    insert_insert_gadget,
)
from repro.conflicts.linear import (
    detect_read_delete_linear,
    detect_read_insert_linear,
    find_cut_edge,
)
from repro.conflicts.reductions import (
    GadgetLabels,
    read_delete_gadget,
    read_delete_witness_from_noncontainment,
    read_insert_gadget,
    read_insert_witness_from_noncontainment,
)
from repro.conflicts.satisfiability import (
    is_satisfiable,
    satisfiability_via_conflict,
    universal_read,
)
from repro.conflicts.semantics import (
    ConflictKind,
    ConflictReport,
    Verdict,
    is_node_conflict_witness,
    is_tree_conflict_witness,
    is_value_conflict_witness,
    is_witness,
)
from repro.conflicts.witness_min import (
    mark_witness_nodes,
    minimize_witness,
    reparent,
)

__all__ = [
    "analyze",
    "AnalysisConfig",
    "ConflictDetector",
    "DetectorConfig",
    "BatchAnalyzer",
    "PatternIndex",
    "StaticProfile",
    "profile_pattern",
    "result_containment",
    "CanonicalOp",
    "VerdictCache",
    "reference_matrix",
    "Operation",
    "ConflictKind",
    "ConflictReport",
    "Verdict",
    "is_witness",
    "is_node_conflict_witness",
    "is_tree_conflict_witness",
    "is_value_conflict_witness",
    "detect_read_insert_linear",
    "detect_read_delete_linear",
    "find_cut_edge",
    "insert_insert_gadget",
    "insert_delete_gadget",
    "commutativity_witness_from_noncontainment",
    "decide_conflict",
    "enumerate_witnesses",
    "find_witness_exhaustive",
    "find_witness_heuristic",
    "witness_size_bound",
    "witness_alphabet",
    "minimize_witness",
    "mark_witness_nodes",
    "reparent",
    "read_insert_gadget",
    "read_delete_gadget",
    "read_insert_witness_from_noncontainment",
    "read_delete_witness_from_noncontainment",
    "GadgetLabels",
    "is_commutativity_witness",
    "find_commutativity_witness_exhaustive",
    "detect_update_update",
    "is_satisfiable",
    "universal_read",
    "satisfiability_via_conflict",
    "ConflictMatrix",
]
