"""Pre-solve linting of built MILP models.

Operates on a built :class:`~repro.ilp.csr.CsrModel`, row by row
through :meth:`~repro.ilp.csr.CsrModel.rows` (and, with
routing-specific checks, a
:class:`~repro.router.formulation.RoutingIlp`) *before* the solver
runs.  Two classes of findings:

``ERROR`` -- the model is guaranteed infeasible or malformed:

- ``constant-infeasible-row``: a constraint with no variables whose
  constant term violates its sense (``3 <= 0``);
- ``bound-infeasible-row``: a row whose extreme activity over the
  variable bounds still cannot satisfy the sense;
- ``empty-integer-domain``: an integer variable whose ``[lb, ub]``
  contains no integer point;
- ``empty-commodity``: a net with no usable arc variables at all
  (every physical arc was pruned by rules/blockages);
- ``disconnected-pin-group``: a pin whose flow-conservation group
  cannot exchange flow with the physical graph (all access vertices
  lost their arcs), with no degenerate source/sink overlap to excuse
  it.

``WARN`` -- model bloat the builder should not produce:

- ``constant-row``: a trivially true constraint (no variables);
- ``unused-variable``: appears in no constraint and carries no
  objective coefficient;
- ``duplicate-row`` / ``dominated-row``: rows with identical
  coefficient vectors where one implies the other;
- ``fixed-variable``: degenerate bounds ``lb == ub``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.findings import LintFinding, LintReport, Severity
from repro.ilp.csr import CsrModel
from repro.router.formulation import RoutingIlp

#: One model row as :meth:`CsrModel.rows` yields it.
_Row = tuple[dict[int, float], float, str]

_TOL = 1e-9

#: Cap on reported findings per code, so a degenerate model does not
#: produce an unbounded report (counts in ``stats`` stay exact).
MAX_FINDINGS_PER_CODE = 20


def lint_model(model: CsrModel) -> LintReport:
    """Run every model-level check; return all findings plus stats."""
    report = LintReport(model_name=model.name, stats=dict(model.stats()))
    counts: dict[str, int] = {}

    def emit(code: str, severity: Severity, message: str, **context) -> None:
        counts[code] = counts.get(code, 0) + 1
        if counts[code] <= MAX_FINDINGS_PER_CODE:
            report.findings.append(
                LintFinding(code, severity, message, dict(context))
            )

    rows = list(model.rows())
    _check_rows(model, rows, emit)
    _check_variables(model, emit)
    _check_duplicates(rows, emit)

    for code, n in sorted(counts.items()):
        report.stats[f"n_{code.replace('-', '_')}"] = n
    return report


def lint_routing_ilp(ilp: RoutingIlp) -> LintReport:
    """Model lint plus routing-structure checks on a built ILP."""
    report = lint_model(ilp.csr)
    _check_commodities(ilp, report)
    return report


# -- row checks -------------------------------------------------------------


def _row_activity_range(
    lb: list[float], ub: list[float], coefs: dict[int, float], const: float
) -> tuple[float, float]:
    """Min/max of a row's expression (including its constant) over
    variable bounds."""
    lo = hi = const
    for index, coef in coefs.items():
        a, b = coef * lb[index], coef * ub[index]
        lo += min(a, b)
        hi += max(a, b)
    return lo, hi


def _check_rows(model: CsrModel, rows: list[_Row], emit) -> None:
    lb, ub = model.lb.tolist(), model.ub.tolist()
    names = model.row_names or [""] * model.n_rows
    for row, (coefs, const, sense) in enumerate(rows):
        label = names[row] or f"row {row}"
        if not coefs:
            violated = (
                (sense == "<=" and const > _TOL)
                or (sense == ">=" and const < -_TOL)
                or (sense == "==" and abs(const) > _TOL)
            )
            if violated:
                emit(
                    "constant-infeasible-row",
                    Severity.ERROR,
                    f"{label}: constant-only constraint "
                    f"{const:g} {sense} 0 cannot hold",
                    row=row,
                    const=const,
                    sense=sense,
                )
            else:
                emit(
                    "constant-row",
                    Severity.WARN,
                    f"{label}: constraint has no variables",
                    row=row,
                )
            continue
        lo, hi = _row_activity_range(lb, ub, coefs, const)
        infeasible = (
            (sense == "<=" and lo > _TOL)
            or (sense == ">=" and hi < -_TOL)
            or (sense == "==" and (lo > _TOL or hi < -_TOL))
        )
        if infeasible:
            emit(
                "bound-infeasible-row",
                Severity.ERROR,
                f"{label}: activity range [{lo:g}, {hi:g}] cannot "
                f"satisfy {sense} 0",
                row=row,
                lo=lo,
                hi=hi,
                sense=sense,
            )


# -- variable checks --------------------------------------------------------


def _check_variables(model: CsrModel, emit) -> None:
    referenced = set(model.indices.tolist())
    objective = set(np.flatnonzero(model.obj).tolist())
    for index, (name, lb, ub, is_integer) in enumerate(
        zip(
            model.var_names,
            model.lb.tolist(),
            model.ub.tolist(),
            model.integer.tolist(),
        )
    ):
        if is_integer and math.ceil(lb - _TOL) > math.floor(ub + _TOL):
            emit(
                "empty-integer-domain",
                Severity.ERROR,
                f"integer variable {name}: no integer point in "
                f"[{lb:g}, {ub:g}]",
                var=name,
            )
        elif lb == ub:
            emit(
                "fixed-variable",
                Severity.WARN,
                f"variable {name} is fixed to {lb:g}",
                var=name,
            )
        if index not in referenced and index not in objective:
            emit(
                "unused-variable",
                Severity.WARN,
                f"variable {name} appears in no constraint and has "
                "zero objective coefficient",
                var=name,
            )


# -- duplicate / dominated rows ---------------------------------------------


def _check_duplicates(rows: list[_Row], emit) -> None:
    # Bucket rows by support signature (sense + sorted variable index
    # set), then normalize each row by a positive scale inside the
    # bucket.  Support collisions are rare in routing models, so the
    # within-bucket comparison stays near-linear in row count, and
    # positive-scale normalization also catches scaled copies (e.g.
    # ``2x + 2y <= 2`` duplicating ``x + y <= 1``) that an exact
    # coefficient-vector grouping misses.  Normalized form is
    # ``expr + const (sense) 0``, i.e. rhs = -const.
    groups: dict[tuple, list[tuple[int, float]]] = {}
    for row, (coefs, const, sense) in enumerate(rows):
        if not coefs:
            continue  # constant rows are handled by _check_rows
        support = tuple(sorted(coefs))
        # Dividing by |coef| keeps the scale positive, so the sense is
        # preserved and rows that are positive multiples of each other
        # land on the same normalized key.
        scale = abs(coefs[support[0]]) or 1.0
        normalized = tuple(round(coefs[j] / scale, 12) for j in support)
        signature = (sense, support, normalized)
        groups.setdefault(signature, []).append((row, -const / scale))
    for (sense, _, _), members in groups.items():
        if len(members) < 2:
            continue
        if sense == "<=":
            keep = min(members, key=lambda item: item[1])
        elif sense == ">=":
            keep = max(members, key=lambda item: item[1])
        else:
            keep = members[0]
        for row, rhs in members:
            if row == keep[0]:
                continue
            if rhs == keep[1]:
                emit(
                    "duplicate-row",
                    Severity.WARN,
                    f"row {row} duplicates row {keep[0]}",
                    row=row,
                    duplicate_of=keep[0],
                )
            else:
                emit(
                    "dominated-row",
                    Severity.WARN,
                    f"row {row} (rhs {rhs:g}) is implied by row "
                    f"{keep[0]} (rhs {keep[1]:g})",
                    row=row,
                    dominated_by=keep[0],
                )


# -- routing-structure checks ----------------------------------------------


def _check_commodities(ilp: RoutingIlp, report: LintReport) -> None:
    """Flow-conservation groups that cannot carry their commodity."""
    graph = ilp.graph
    for nv in ilp.nets:
        physical = [
            arc for arc in nv.e if graph.arcs[arc].layer != -1
        ]
        if not physical:
            src = set(nv.net.source.access)
            if not all(set(sink.access) & src for sink in nv.net.sinks):
                report.findings.append(
                    LintFinding(
                        "empty-commodity",
                        Severity.ERROR,
                        f"net {nv.net.name}: no usable physical arcs "
                        "survive rule pruning",
                        {"net": nv.net.name},
                    )
                )
            continue
        covered: set[int] = set()
        for arc_index in physical:
            arc = graph.arcs[arc_index]
            covered.add(arc.tail)
            covered.add(arc.head)
        source_vids = {graph.vid(*v) for v in nv.net.source.access}
        sink_vid_sets = [
            {graph.vid(*v) for v in sink.access} for sink in nv.net.sinks
        ]
        for pin_no, pin in enumerate(nv.net.pins):
            vids = {graph.vid(*v) for v in pin.access}
            if vids & covered:
                continue
            if pin_no > 0 and vids & source_vids:
                continue  # sink shares metal with the source: trivially wired
            if pin_no == 0 and all(s & source_vids for s in sink_vid_sets):
                continue  # every sink overlaps the source: no flow needed
            role = "source" if pin_no == 0 else f"sink {pin_no - 1}"
            report.findings.append(
                LintFinding(
                    "disconnected-pin-group",
                    Severity.ERROR,
                    f"net {nv.net.name} {role}: no access vertex touches "
                    "a usable physical arc",
                    {"net": nv.net.name, "pin": pin_no},
                )
            )
    report.stats["n_empty_commodity"] = report.count("empty-commodity")
    report.stats["n_disconnected_pin_group"] = report.count(
        "disconnected-pin-group"
    )
