"""CPLEX LP-format export of models.

The paper's OptRouter hands its ILPs to ILOG CPLEX; exporting our
models in the LP interchange format keeps that path open (any LP-file
solver -- CPLEX, Gurobi, HiGHS CLI, SCIP -- can consume the output)
and doubles as a human-readable model dump for debugging.

Output is byte-deterministic: terms are emitted in variable-index
order, constraints in sorted (name, position) order, and the Bounds /
Binaries / Generals sections in sorted variable-name order.  Two
builds of the same model therefore serialize identically, which makes
model dumps diffable.

:func:`write_lp_canonical` goes further and is *insertion-order
invariant*: terms are keyed by variable name (not index), rows are
content-sorted with positional auto-names dropped, floats use exact
``repr``, and the model name is excluded.  Two semantically equal
models built in any variable/constraint order serialize to the same
bytes -- the content-address for the persistent solve cache
(:mod:`repro.ilp.solve_cache`).
"""

from __future__ import annotations

from repro.ilp.model import LinExpr, Model


def _term(coef: float, name: str, first: bool) -> str:
    sign = "" if (first and coef >= 0) else ("+ " if coef >= 0 else "- ")
    magnitude = abs(coef)
    if magnitude == 1.0:
        return f"{sign}{name}"
    return f"{sign}{magnitude:g} {name}"


def _expr_text(model: Model, expr: LinExpr) -> str:
    if not expr.coefs:
        return "0"
    parts = []
    for index in sorted(expr.coefs):
        coef = expr.coefs[index]
        parts.append(_term(coef, model.variables[index].name, first=not parts))
    return " ".join(parts)


def write_lp(model: Model) -> str:
    """Serialize a model in CPLEX LP format (minimization)."""
    lines = [f"\\ Problem: {model.name}", "Minimize", " obj:"]
    lines[-1] += " " + _expr_text(model, model.objective)
    if model.objective.const:
        lines.append(f"\\ constant offset {model.objective.const:g} not encoded")

    lines.append("Subject To")
    named = sorted(
        (con.name or f"c{index}", index, con)
        for index, con in enumerate(model.constraints)
    )
    for name, _, con in named:
        rhs = -con.expr.const
        op = {"<=": "<=", ">=": ">=", "==": "="}[con.sense]
        lines.append(f" {name}: {_expr_text(model, con.expr)} {op} {rhs:g}")

    bounded = sorted(
        (
            v for v in model.variables
            if not (v.is_integer and v.lb == 0.0 and v.ub == 1.0)
        ),
        key=lambda v: v.name,
    )
    if bounded:
        lines.append("Bounds")
        for v in bounded:
            ub = "+inf" if v.ub == float("inf") else f"{v.ub:g}"
            lines.append(f" {v.lb:g} <= {v.name} <= {ub}")

    binaries = sorted(
        v.name for v in model.variables
        if v.is_integer and v.ub == 1.0 and v.lb == 0.0
    )
    generals = sorted(
        v.name for v in model.variables
        if v.is_integer and not (v.ub == 1.0 and v.lb == 0.0)
    )
    if binaries:
        lines.append("Binaries")
        lines.append(" " + " ".join(binaries))
    if generals:
        lines.append("Generals")
        lines.append(" " + " ".join(generals))
    lines.append("End")
    return "\n".join(lines) + "\n"


def _canonical_expr(model: Model, expr: LinExpr) -> str:
    """Name-keyed, exact-float rendering of a linear expression."""
    terms = sorted(
        (model.variables[index].name, coef)
        for index, coef in expr.coefs.items()
        if coef != 0.0
    )
    body = " ".join(f"{coef!r} {name}" for name, coef in terms)
    return f"{body} | {expr.const!r}"


def write_lp_canonical(model: Model) -> str:
    """Insertion-order-invariant serialization for content addressing.

    Two models with the same variables (by name/bounds/integrality),
    the same constraint *set*, and the same objective produce
    byte-identical output regardless of the order anything was added
    in.  Any coefficient, bound, sense, rhs, or integrality change
    produces different output.  Constraint names are dropped (the
    default positional ``c{i}`` names would leak insertion order);
    the model name is dropped too.  Not valid LP-file syntax -- this
    is a cache key, not an interchange format.
    """
    lines = ["canonical-lp v1"]
    lines.append("min " + _canonical_expr(model, model.objective))
    rows = sorted(
        f"{con.sense} {_canonical_expr(model, con.expr)}"
        for con in model.constraints
    )
    lines.extend(rows)
    lines.append("vars")
    lines.extend(
        sorted(
            f"{v.name} {v.lb!r} {v.ub!r} {'i' if v.is_integer else 'c'}"
            for v in model.variables
        )
    )
    return "\n".join(lines) + "\n"
