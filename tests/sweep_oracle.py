"""Reference sweep: every (clip, rule) pair routed cold.

The lattice sweep of :func:`repro.eval.flow.evaluate_clips` takes
sound warm-start shortcuts -- inherited infeasibility proofs, settled
routings reused under proven lower bounds -- and must reproduce the
study that a cold solve of every pair gives.  This module builds that
study the plain way: one :class:`OptRouter` configured from the
:class:`EvalConfig`, one ``route`` per pair, with no warm start,
journal, audit or supervisor.
"""

from __future__ import annotations

from repro.eval.flow import DeltaCostStudy, _to_outcome
from repro.router import OptRouter


def cold_study(clips, rules, config) -> DeltaCostStudy:
    """The Δcost study of routing each (clip, rule) pair cold."""
    router = OptRouter(
        wire_cost=config.wire_cost,
        via_cost=config.via_cost,
        backend=config.backend,
        time_limit=config.time_limit_per_clip,
        certify=config.certify,
    )
    study = DeltaCostStudy(
        clip_names=[clip.name for clip in clips],
        rule_names=[rule.name for rule in rules],
        baseline_rule=rules[0].name,
    )
    for rule in rules:
        study.outcomes[rule.name] = [
            _to_outcome(router.route(clip, rule)) for clip in clips
        ]
    return study
