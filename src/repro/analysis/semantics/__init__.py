"""Formulation-semantics analyses: static DRC-equivalence proofs of
the routing ILP and model-level restriction proofs between rule
configurations (see ``docs/static_analysis.md``)."""

from repro.analysis.semantics.equivalence import (
    check_equivalence,
    matrix_to_dict,
    run_equivalence_matrix,
)
from repro.analysis.semantics.microclips import MicroClip, micro_corpus
from repro.analysis.semantics.patterns import (
    NetPattern,
    enumerate_clip_patterns,
    pattern_assignment,
    pattern_routing,
)
from repro.analysis.semantics.report import (
    FAMILIES,
    SCHEMA_VERSION,
    EquivalenceReport,
    SemanticsFinding,
    dump_json,
)
from repro.analysis.semantics.restriction import (
    RestrictionProof,
    prove_restriction,
)

__all__ = [
    "FAMILIES",
    "SCHEMA_VERSION",
    "EquivalenceReport",
    "SemanticsFinding",
    "dump_json",
    "MicroClip",
    "micro_corpus",
    "NetPattern",
    "enumerate_clip_patterns",
    "pattern_assignment",
    "pattern_routing",
    "check_equivalence",
    "matrix_to_dict",
    "run_equivalence_matrix",
    "RestrictionProof",
    "prove_restriction",
]
