"""Pre-solve static analysis: ILP model linting and clip infeasibility
certification (see ``docs/static_analysis.md``)."""

from repro.analysis.findings import (
    InfeasibilityCertificate,
    LintFinding,
    LintReport,
    Severity,
)
from repro.analysis.model_lint import lint_model, lint_routing_ilp
from repro.analysis.certify import certify_infeasible

__all__ = [
    "InfeasibilityCertificate",
    "LintFinding",
    "LintReport",
    "Severity",
    "lint_model",
    "lint_routing_ilp",
    "certify_infeasible",
]
