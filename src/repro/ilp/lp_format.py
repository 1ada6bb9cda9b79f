"""CPLEX LP-format export of models.

The paper's OptRouter hands its ILPs to ILOG CPLEX; exporting our
models in the LP interchange format keeps that path open (any LP-file
solver -- CPLEX, Gurobi, HiGHS CLI, SCIP -- can consume the output)
and doubles as a human-readable model dump for debugging.

Output is byte-deterministic: terms are emitted in variable-index
order, constraints in sorted (name, position) order, and the Bounds /
Binaries / Generals sections in sorted variable-name order.  Two
builds of the same model therefore serialize identically, which makes
model dumps diffable.  (The insertion-order-invariant serialization
that content-addresses the solve cache is
:meth:`repro.ilp.csr.CsrModel.canonical_text`.)
"""

from __future__ import annotations

import numpy as np

from repro.ilp.csr import CsrModel


def _term(coef: float, name: str, first: bool) -> str:
    sign = "" if (first and coef >= 0) else ("+ " if coef >= 0 else "- ")
    magnitude = abs(coef)
    if magnitude == 1.0:
        return f"{sign}{name}"
    return f"{sign}{magnitude:g} {name}"


def _expr_text(names: list[str], coefs: dict[int, float]) -> str:
    if not coefs:
        return "0"
    parts = []
    for index in sorted(coefs):
        parts.append(_term(coefs[index], names[index], first=not parts))
    return " ".join(parts)


def write_lp(model: CsrModel) -> str:
    """Serialize a model in CPLEX LP format (minimization)."""
    names = model.var_names
    nz = np.flatnonzero(model.obj)
    objective = dict(zip(nz.tolist(), model.obj[nz].tolist()))
    lines = [f"\\ Problem: {model.name}", "Minimize", " obj:"]
    lines[-1] += " " + _expr_text(names, objective)
    if model.obj_const:
        lines.append(f"\\ constant offset {model.obj_const:g} not encoded")

    lines.append("Subject To")
    row_names = model.row_names or [""] * model.n_rows
    named = sorted(
        (row_names[index] or f"c{index}", index, row)
        for index, row in enumerate(model.rows())
    )
    for name, _, (coefs, const, sense) in named:
        op = {"<=": "<=", ">=": ">=", "==": "="}[sense]
        lines.append(f" {name}: {_expr_text(names, coefs)} {op} {-const:g}")

    variables = sorted(
        zip(names, model.lb.tolist(), model.ub.tolist(), model.integer.tolist()),
        key=lambda v: v[0],
    )
    bounded = [
        (name, lb, ub) for name, lb, ub, is_int in variables
        if not (is_int and lb == 0.0 and ub == 1.0)
    ]
    if bounded:
        lines.append("Bounds")
        for name, lb, ub in bounded:
            upper = "+inf" if ub == float("inf") else f"{ub:g}"
            lines.append(f" {lb:g} <= {name} <= {upper}")

    binaries = [
        name for name, lb, ub, is_int in variables
        if is_int and lb == 0.0 and ub == 1.0
    ]
    generals = [
        name for name, lb, ub, is_int in variables
        if is_int and not (lb == 0.0 and ub == 1.0)
    ]
    if binaries:
        lines.append("Binaries")
        lines.append(" " + " ".join(binaries))
    if generals:
        lines.append("Generals")
        lines.append(" " + " ".join(generals))
    lines.append("End")
    return "\n".join(lines) + "\n"
