"""Text reports of evaluation studies (the paper's tables and traces)."""

from __future__ import annotations

from collections.abc import Sequence

from repro.eval.flow import DeltaCostStudy
from repro.eval.rule_configs import INFEASIBLE_DELTA
from repro.router.rules import RuleConfig
from repro.util.tables import format_table


def format_rule_table(rules: Sequence[RuleConfig], title: str = "Table 3") -> str:
    """Render rule configurations as the paper's Table 3."""
    rows = []
    for rule in rules:
        sadp = (
            "No SADP"
            if rule.sadp_min_metal is None
            else f"SADP >= M{rule.sadp_min_metal}"
        )
        rows.append((rule.name, sadp, f"{rule.via_restriction.value} neighbors blocked"))
    return format_table(("Name", "SADP rules", "Blocked via sites"), rows, title=title)


def format_delta_cost_table(study: DeltaCostStudy, title: str = "") -> str:
    """Summary of a Δcost study: one row per rule.

    ``certified`` counts solver-free infeasibility proofs.  When the
    supervised sweep contained failures (worker crash / hard deadline)
    or degraded results (produced by a fallback backend, so
    non-optimal and excluded from Δcost), ``fail`` and ``degraded``
    columns flag them.  Phase times and warm/cache counts are
    deliberately absent: warm starts skip the build and solve-cache
    hits skip the solve, so those quantities depend on execution
    strategy, and this table must reproduce byte-for-byte across
    cold, resumed, and cache-replayed sweeps.  Use
    :func:`format_timing_table` for the execution diagnostics.
    """
    with_faults = any(
        study.failure_count(rule_name) or study.degraded_count(rule_name)
        for rule_name in study.rule_names
    )
    rows = []
    for rule_name in study.rule_names:
        deltas = study.delta_costs(rule_name)
        finite = [d for d in deltas if d < INFEASIBLE_DELTA]
        row = [
            rule_name,
            len(deltas),
            study.infeasible_count(rule_name),
            study.certified_skip_count(rule_name),
            study.limit_count(rule_name),
            f"{study.zero_delta_fraction(rule_name):.2f}",
            f"{(sum(finite) / len(finite)) if finite else 0.0:.2f}",
            f"{max(finite) if finite else 0.0:.1f}",
        ]
        if with_faults:
            row.append(study.failure_count(rule_name))
            row.append(study.degraded_count(rule_name))
        rows.append(tuple(row))
    header = [
        "rule", "clips", "infeasible", "certified", "limit", "zero_frac",
        "mean_dcost", "max_dcost",
    ]
    if with_faults:
        header += ["fail", "degraded"]
    return format_table(tuple(header), rows, title=title)


def format_audit_table(study: DeltaCostStudy, title: str = "Audit") -> str:
    """Per-rule trust accounting of the verify layer.

    ``audited`` counts results carrying an independent certificate,
    ``quarantined`` the original results caught lying, ``healed`` the
    quarantined pairs replaced by a certified cold re-solve, and
    ``unhealed`` the pairs that stayed uncertified (reported as ERROR
    and excluded from Δcost).  A chaos-audited sweep passes iff
    ``unhealed`` is zero everywhere and the Δcost table matches the
    clean run byte for byte.

    Deliberately separate from :func:`format_delta_cost_table`: audit
    counts depend on the fault plan and sampling knobs, while the main
    table must stay byte-reproducible across clean, chaos, resumed and
    cache-replayed sweeps.
    """
    rows = []
    for rule_name in study.rule_names:
        rows.append((
            rule_name,
            len(study.outcomes[rule_name]),
            study.audited_count(rule_name),
            study.quarantined_count(rule_name),
            study.healed_count(rule_name),
            study.unhealed_count(rule_name),
        ))
    table = format_table(
        ("rule", "clips", "audited", "quarantined", "healed", "unhealed"),
        rows,
        title=title,
    )
    return table + "\n" + _attempt_summary_line(study)


def _attempt_summary_line(study: DeltaCostStudy) -> str:
    """Retry-diagnostics roll-up from the per-pair attempt logs.

    Counts only, no wall seconds: attempt *timings* legitimately vary
    run to run, so they stay in the journal records (and ``--timing``)
    rather than in a report line that should be stable for a given
    execution configuration.
    """
    pairs = attempts = retried = timeouts = 0
    for rule_name in study.rule_names:
        for outcome in study.outcomes[rule_name]:
            log = tuple(getattr(outcome, "attempt_log", ()) or ())
            pairs += 1
            attempts += len(log)
            if len(log) > 1:
                retried += 1
            for entry in log:
                if entry.get("outcome") == "timeout":
                    timeouts += 1
    return (
        f"attempts: {attempts} across {pairs} pairs "
        f"({retried} retried, {timeouts} timed out)"
    )


def format_timing_table(study: DeltaCostStudy, title: str = "Timing") -> str:
    """Per-rule phase accounting: median build / serialize / solve
    wall times plus warm-shortcut and solve-cache hit counts.

    Opt-in (``repro evaluate --timing``) and deliberately separate
    from :func:`format_delta_cost_table`: wall clocks vary run to run,
    and the main report must stay byte-reproducible across resumed and
    cache-replayed sweeps.
    """
    import statistics

    rows = []
    for rule_name in study.rule_names:
        outcomes = study.outcomes[rule_name]
        if not outcomes:
            continue
        # Worst optimality gap left by budget-exhausted (LIMIT) solves
        # under this rule; "-" when every solve concluded.
        gaps = [o.gap for o in outcomes if o.gap is not None and o.gap > 0]
        rows.append((
            rule_name,
            len(outcomes),
            f"{statistics.median(o.build_seconds for o in outcomes):.4f}",
            f"{statistics.median(o.serialize_seconds for o in outcomes):.4f}",
            f"{statistics.median(o.solve_seconds for o in outcomes):.4f}",
            sum(1 for o in outcomes if o.warm_used == "reused-optimal"),
            sum(1 for o in outcomes if o.warm_used == "inherited-infeasible"),
            sum(1 for o in outcomes if o.cache_hit),
            f"{max(gaps):.1f}" if gaps else "-",
        ))
    return format_table(
        ("rule", "clips", "build_s", "serialize_s", "solve_s",
         "warm_opt", "warm_inf", "cache_hits", "max_gap"),
        rows,
        title=title,
    )


def format_sorted_traces(study: DeltaCostStudy, width: int = 60) -> str:
    """ASCII rendering of the Figure-10 sorted Δcost traces."""
    lines = []
    for rule_name in study.rule_names:
        trace = study.sorted_delta_costs(rule_name)
        if not trace:
            lines.append(f"{rule_name:>8}: (no clips)")
            continue
        cells = []
        for delta in trace[:width]:
            if delta >= INFEASIBLE_DELTA:
                cells.append("X")
            elif delta == 0:
                cells.append(".")
            elif delta <= 4:
                cells.append("+")
            else:
                cells.append("#")
        lines.append(f"{rule_name:>8}: {''.join(cells)}")
    lines.append("legend: '.'=0  '+'=1..4  '#'>4  'X'=infeasible")
    return "\n".join(lines)
