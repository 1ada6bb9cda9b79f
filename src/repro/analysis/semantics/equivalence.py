"""DRC-equivalence checking of the routing ILP formulation.

For a micro-clip and a rule configuration this module enumerates the
local routing pattern space (:mod:`.patterns`) and proves, pattern by
pattern, that the built ILP and the geometric DRC oracle agree:

- **soundness**: every pattern whose ILP encoding is feasible decodes
  to a DRC-clean routing (the encoding does not under-constrain);
- **completeness**: every DRC-clean pure-path pattern admits a
  feasible ILP assignment (the encoding does not over-constrain).

Disagreements become :class:`SemanticsFinding` counterexamples with
the *minimal* witness pattern per (kind, family) class.  The optional
solver sweep closes the gap between enumerated patterns and the ILP's
full integer space: it enumerates every feasible arc support directly
from the solver via no-good cuts and DRC-checks each one.

A deliberately broken encoding is simulated by passing ``model_rules``
different from the DRC ``rules``: the ILP is built under the tampered
configuration while patterns are judged under the true one, which is
exactly how a dropped forbidden offset or an over-eager rule delta
would manifest.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.analysis.semantics.microclips import MicroClip, micro_corpus
from repro.analysis.semantics.patterns import (
    NetPattern,
    enumerate_clip_patterns,
    pattern_assignment,
    pattern_routing,
)
from repro.analysis.semantics.report import (
    SCHEMA_VERSION,
    VIOLATION_FAMILY,
    EquivalenceReport,
    SemanticsFinding,
)
from repro.clips.clip import Clip
from repro.drc.checker import check_clip_routing
from repro.ilp.csr import SENSE_LE, SENSES, CooBuilder, CsrModel
from repro.ilp.model import LinExpr
from repro.router.formulation import RoutingIlp, build_routing_ilp
from repro.router.graph import ArcKind
from repro.router.rules import RuleConfig


#: Feasibility tolerance on bounds, integrality and rows.
_TOL = 1e-6


def _families_in_play(
    clip: Clip, rules: RuleConfig, include_offdirection: bool
) -> tuple[str, ...]:
    """Which rule families this (clip, rules) run can observe."""
    families = {"blockages", "shorts"}
    if include_offdirection:
        families.add("directions")
    if rules.via_restriction.blocked_offsets() and clip.nz > 1:
        families.add("via_adjacency")
    if rules.sadp_min_metal is not None and any(
        rules.sadp_applies_to(clip.metal_of(z)) for z in range(clip.nz)
    ):
        families.add("sadp_eol")
    return tuple(sorted(families))


def _row_family(ilp: RoutingIlp, row_index: int) -> str:
    """Best-effort family of a model row, from its variable content."""
    p_indices: set[int] = set()
    via_e: set[int] = set()
    for nv in ilp.nets:
        for var in list(nv.p_pos.values()) + list(nv.p_neg.values()):
            p_indices.add(var.index)
        for arc_index, var in nv.e.items():
            if ilp.graph.arcs[arc_index].kind in (ArcKind.VIA, ArcKind.SHAPE):
                via_e.add(var.index)
    csr = ilp.csr
    start, end = csr.indptr[row_index], csr.indptr[row_index + 1]
    indices = set(csr.indices[start:end].tolist())
    if indices & p_indices:
        return "sadp_eol"
    if indices and indices <= via_e and csr.senses[row_index] == SENSE_LE:
        return "via_adjacency"
    return "core"


def _row_text(csr: CsrModel, row_index: int) -> str:
    """A row as ``LinExpr(...) (sense) 0``, for finding messages."""
    start, end = csr.indptr[row_index], csr.indptr[row_index + 1]
    expr = LinExpr(
        dict(
            zip(csr.indices[start:end].tolist(), csr.data[start:end].tolist())
        ),
        float(csr.row_const[row_index]),
    )
    return f"{expr!r} {SENSES[csr.senses[row_index]]} 0"


def _is_feasible(csr: CsrModel, values: dict[int, float]) -> bool:
    """True when the point satisfies bounds, integrality, and every row
    to within :data:`_TOL`; missing variables sit at their (then
    necessarily finite) lower bound."""
    x = csr.point(values)
    return bool(
        np.isfinite(x).all()
        and (x >= csr.lb - _TOL).all()
        and (x <= csr.ub + _TOL).all()
        and (np.abs(x - np.round(x))[csr.integer] <= _TOL).all()
        and not len(csr.violated_rows(x, _TOL))
    )


def _first_violated_row(csr: CsrModel, values: dict[int, float]) -> int | None:
    rows = csr.violated_rows(csr.point(values), _TOL)
    return int(rows[0]) if len(rows) else None


def _pattern_payload(combo: tuple[NetPattern, ...]) -> tuple:
    return tuple(
        (pattern.net_name, pattern.to_dict()) for pattern in combo
    )


def check_equivalence(
    clip: Clip,
    rules: RuleConfig,
    *,
    model_rules: RuleConfig | None = None,
    wire_cost: float = 1.0,
    via_cost: float = 4.0,
    include_offdirection: bool = False,
    cycles: bool = True,
    max_paths_per_net: int = 400,
    max_patterns: int = 20000,
    solver_sweep: bool = False,
    solver_cap: int = 1500,
) -> EquivalenceReport:
    """Prove (or refute) ILP/DRC agreement on one micro-clip.

    The ILP is built under ``model_rules`` (default: ``rules``) while
    every pattern is DRC-judged under ``rules`` -- passing a tampered
    ``model_rules`` turns the checker into an encoding-bug detector.
    """
    build_rules = model_rules if model_rules is not None else rules
    ilp = build_routing_ilp(
        clip, build_rules, wire_cost=wire_cost, via_cost=via_cost
    )
    combos, n_path_combos, exhausted = enumerate_clip_patterns(
        clip,
        include_offdirection=include_offdirection,
        cycles=cycles,
        max_paths_per_net=max_paths_per_net,
        max_patterns=max_patterns,
    )

    report = EquivalenceReport(
        clip_name=clip.name,
        rule_name=rules.name,
        families=_families_in_play(clip, rules, include_offdirection),
        n_patterns=len(combos),
        n_path_patterns=n_path_combos,
        exhausted=exhausted,
    )
    observed: set[str] = set()
    witnesses: dict[tuple[str, str], SemanticsFinding] = {}

    def record(finding: SemanticsFinding) -> None:
        key = (finding.kind, finding.family)
        best = witnesses.get(key)
        if best is None or finding.sort_key() < best.sort_key():
            witnesses[key] = finding

    for combo_index, combo in enumerate(combos):
        routing = pattern_routing(clip, combo)
        violations = check_clip_routing(clip, rules, routing)
        clean = not violations
        for violation in violations:
            observed.add(VIOLATION_FAMILY.get(violation.kind, violation.kind))

        values = pattern_assignment(ilp, combo)
        feasible = values is not None and _is_feasible(ilp.csr, values)
        if feasible:
            report.n_feasible += 1
        if clean:
            report.n_clean += 1

        size = sum(pattern.size for pattern in combo)
        if feasible and not clean:
            for family in sorted(
                {
                    VIOLATION_FAMILY.get(v.kind, v.kind)
                    for v in violations
                }
            ):
                record(
                    SemanticsFinding(
                        kind="unsound",
                        family=family,
                        clip_name=clip.name,
                        rule_name=rules.name,
                        message=(
                            "ILP-feasible pattern violates DRC: "
                            + "; ".join(
                                sorted(str(v) for v in violations)
                            )
                        ),
                        pattern=_pattern_payload(combo),
                        violations=tuple(
                            sorted(str(v) for v in violations)
                        ),
                        size=size,
                    )
                )
        elif clean and not feasible and combo_index < n_path_combos:
            if values is None:
                family, why = "core", "pattern not representable in the ILP"
            else:
                row = _first_violated_row(ilp.csr, values)
                family = "core" if row is None else _row_family(ilp, row)
                why = (
                    f"assignment violates model row {row}: "
                    + _row_text(ilp.csr, row)
                    if row is not None
                    else "assignment rejected (bounds/integrality)"
                )
            record(
                SemanticsFinding(
                    kind="incomplete",
                    family=family,
                    clip_name=clip.name,
                    rule_name=rules.name,
                    message=f"DRC-clean pattern has no feasible encoding: {why}",
                    pattern=_pattern_payload(combo),
                    size=size,
                )
            )

    if solver_sweep:
        for finding in _solver_soundness_sweep(
            clip,
            rules,
            build_rules,
            wire_cost=wire_cost,
            via_cost=via_cost,
            cap=solver_cap,
        ):
            record(finding)

    report.observed = tuple(sorted(observed))
    report.findings = sorted(witnesses.values(), key=SemanticsFinding.sort_key)
    return report


def _solver_soundness_sweep(
    clip: Clip,
    rules: RuleConfig,
    build_rules: RuleConfig,
    *,
    wire_cost: float,
    via_cost: float,
    cap: int,
) -> list[SemanticsFinding]:
    """Enumerate every feasible arc support straight from the solver
    (no-good cuts over the e columns) and DRC-check each decoding.

    This covers the ILP's *entire* integer space -- including supports
    the pattern enumerator's one-cycle bound skips -- so soundness does
    not rest on the enumerator's decomposition argument.
    """
    from repro.ilp.highs_backend import solve_milp
    from repro.ilp.status import SolveStatus
    from repro.router.solution import decode_solution

    ilp = build_routing_ilp(
        clip, build_rules, wire_cost=wire_cost, via_cost=via_cost
    )
    e_indices = sorted(
        {var.index for nv in ilp.nets for var in nv.e.values()}
    )
    findings: list[SemanticsFinding] = []
    cuts = CooBuilder(base=ilp.csr)
    model = ilp.csr
    for iteration in range(cap):
        # No root LP first: the cuts leave most LP points fractional.
        solution = solve_milp(model)
        if solution.status is not SolveStatus.OPTIMAL:
            if solution.status is not SolveStatus.INFEASIBLE:
                findings.append(
                    SemanticsFinding(
                        kind="sweep_limit",
                        family="core",
                        clip_name=clip.name,
                        rule_name=rules.name,
                        message=(
                            "solver sweep stopped early with status "
                            f"{solution.status.name} after {iteration} supports"
                        ),
                    )
                )
            break
        routing = decode_solution(ilp, solution)
        violations = check_clip_routing(clip, rules, routing)
        if violations:
            findings.append(
                SemanticsFinding(
                    kind="unsound",
                    family=sorted(
                        VIOLATION_FAMILY.get(v.kind, v.kind)
                        for v in violations
                    )[0],
                    clip_name=clip.name,
                    rule_name=rules.name,
                    message=(
                        "solver-enumerated support violates DRC: "
                        + "; ".join(sorted(str(v) for v in violations))
                    ),
                    violations=tuple(sorted(str(v) for v in violations)),
                    size=sum(
                        1
                        for i in e_indices
                        if solution.values.get(i, 0.0) > 0.5
                    ),
                )
            )
        ones = [
            i for i in e_indices if solution.values.get(i, 0.0) > 0.5
        ]
        zeros = [
            i for i in e_indices if solution.values.get(i, 0.0) <= 0.5
        ]
        coefs = {i: 1.0 for i in zeros}
        coefs.update({i: -1.0 for i in ones})
        cuts.ge(LinExpr(coefs, float(len(ones) - 1)))
        model = cuts.freeze(ilp.csr.name)
    else:
        findings.append(
            SemanticsFinding(
                kind="sweep_limit",
                family="core",
                clip_name=clip.name,
                rule_name=rules.name,
                message=f"solver sweep hit the {cap}-support cap",
            )
        )
    return findings


def run_equivalence_matrix(
    rule_configs: Iterable[RuleConfig] | None = None,
    corpus: Iterable[MicroClip] | None = None,
    **kwargs,
) -> list[EquivalenceReport]:
    """Equivalence-check every (micro-clip, rule) pair, in fixed order."""
    from repro.eval.rule_configs import paper_rules

    rule_list = list(rule_configs) if rule_configs is not None else paper_rules()
    corpus_list = list(corpus) if corpus is not None else micro_corpus()
    reports = []
    for micro in corpus_list:
        for rules in rule_list:
            reports.append(
                check_equivalence(
                    micro.clip,
                    rules,
                    include_offdirection=micro.include_offdirection,
                    **kwargs,
                )
            )
    return reports


def matrix_to_dict(reports: list[EquivalenceReport]) -> dict:
    """Deterministic JSON payload for a matrix run."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "equivalence_matrix",
        "ok": all(report.ok for report in reports),
        "n_reports": len(reports),
        "reports": [report.to_dict() for report in reports],
    }
