"""The Δcost evaluation flow of Figure 6.

A sweep is planned once (:func:`_plan_sweep`: pair order, racing set,
per-clip deadlines, one time budget) and run by one executor
(:func:`_execute`) under the fault-tolerant supervisor
(:mod:`repro.exec`), whether inline, on each lease worker's slice of
the plan, or in the distributed coordinator's closing pass.
Individual solver crashes and wall-clock blowups become per-pair
ERROR/TIMEOUT outcomes instead of killing the sweep, and an optional
JSONL checkpoint journal makes interrupted sweeps resumable without
re-solving finished pairs.
"""

from __future__ import annotations

import os
import threading
import time
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field, replace
from functools import partial

from repro.analysis.semantics import restriction
from repro.clips.clip import Clip
from repro.eval.rule_configs import INFEASIBLE_DELTA
from repro.exec.checkpoint import CheckpointJournal, dedupe_results
from repro.exec.faults import FaultPlan
from repro.exec.policy import SupervisorConfig
from repro.exec.portfolio import (
    RACE_BACKENDS,
    SweepBudget,
    clip_deadlines,
    hardness,
    order_hardest_first,
    predicted_hard,
)
from repro.exec.runner import RouteJob, SupervisedRunner
from repro.router.optrouter import OptRouteResult, RouteStatus
from repro.router.rules import RuleConfig, is_restriction
from repro.router.solution import ClipRouting

#: Edge gate: (clip, looser rule, follower rule) -> the edge carries a
#: model-level :class:`RestrictionProof`.
EdgeProof = Callable[[Clip, RuleConfig, RuleConfig], bool]

#: Statuses with no usable solve outcome: excluded from Δcost (they
#: prove neither optimality nor infeasibility), surfaced in reports.
FAILURE_STATUSES = (RouteStatus.ERROR, RouteStatus.TIMEOUT)


@dataclass(frozen=True)
class ClipRuleOutcome:
    """One (clip, rule) evaluation.

    ``certified`` marks pairs proven infeasible by the static
    certifier (the ILP was never built or solved).
    ``backend``/``attempts``/``degraded`` are the supervisor's
    provenance tags: a degraded outcome was produced by a fallback
    backend and carries no optimality guarantee.

    ``audited``/``audit_ok``/``quarantined``/``healed`` are the
    trust-but-verify tags (:mod:`repro.verify`): whether the result
    was independently certified, whether its certificate passed,
    whether the original result failed its audit and was set aside,
    and whether a cold re-solve replaced it with a certified one.
    """

    clip_name: str
    rule_name: str
    status: RouteStatus
    cost: float | None
    wirelength: int
    n_vias: int
    solve_seconds: float
    certified: bool = False
    backend: str = ""
    attempts: int = 1
    degraded: bool = False
    #: formulation build time (zero for warm shortcuts / certified).
    build_seconds: float = 0.0
    #: canonical-serialization (solve-cache hashing) time; zero when
    #: no solve cache is configured.
    serialize_seconds: float = 0.0
    #: warm-shortcut provenance ("" = cold solve); see
    #: :class:`repro.router.optrouter.WarmStart`.
    warm_used: str = ""
    #: the solve was replayed from the persistent solve cache.
    cache_hit: bool = False
    #: best proven dual/lower bound (true objective space).
    bound: float | None = None
    #: ``cost - bound``; 0.0 for OPTIMAL, the optimality gap for LIMIT.
    gap: float | None = None
    #: a :mod:`repro.verify` certificate was computed for this pair.
    audited: bool = False
    #: the certificate of the *final* result passed (None = not audited).
    audit_ok: bool | None = None
    #: the original result failed its audit and was quarantined.
    quarantined: bool = False
    #: a cold re-solve replaced the quarantined result and certified.
    healed: bool = False
    #: this pair's warm seed (a lower bound or an inherited
    #: infeasibility) came over an edge carrying a model-level
    #: :class:`~repro.analysis.semantics.restriction.RestrictionProof`,
    #: whether or not the router then took the shortcut (False for
    #: unseeded pairs and for predicate-only gating).
    restriction_certified: bool = False
    #: warm-shortcut provenance, as rule names of the same clip: the
    #: rule whose proven outcome supplied the lower bound of a reused
    #: routing or the infeasibility an inherited proof came from, and
    #: the rule whose settled routing was reused.  "" for cold solves
    #: and static certificates; journaled, never in the Δcost table.
    warm_bound_from: str = ""
    warm_routing_from: str = ""
    #: per-attempt provenance from the supervised runner: one dict per
    #: attempt (backend, outcome, failure detail, elapsed seconds) --
    #: journaled so a resumed sweep keeps the full retry history.
    attempt_log: tuple = ()

    @property
    def feasible(self) -> bool:
        return self.status is RouteStatus.OPTIMAL

    @property
    def failed(self) -> bool:
        return self.status in FAILURE_STATUSES

    @property
    def unhealed(self) -> bool:
        """Quarantined and never replaced by a certified result."""
        return self.quarantined and not self.healed


@dataclass
class DeltaCostStudy:
    """Results of evaluating a clip set under several rules.

    ``outcomes[rule][i]`` is the outcome for ``clips[i]``.  Δcost is
    computed against the baseline rule (RULE1 unless overridden).
    """

    clip_names: list[str]
    rule_names: list[str]
    outcomes: dict[str, list[ClipRuleOutcome]] = field(default_factory=dict)
    baseline_rule: str = "RULE1"
    #: predicate-vs-prover disagreements in the buggy direction (the
    #: syntactic predicate accepted an edge the model-level prover
    #: could not certify); always empty on a healthy formulation.
    restriction_disagreements: list[str] = field(default_factory=list)
    #: :class:`repro.exec.distributed.DistributedReport` of the run
    #: (None for single-process sweeps).
    distributed_report: "object | None" = None
    #: journal appends absorbed as failures (full disk) during the
    #: run.  Per-pair outcomes are unaffected -- the results are
    #: correct, only their durability is -- but a caller that promised
    #: crash-safe resume (the service layer) must degrade.
    journal_write_failures: int = 0

    def delta_costs(self, rule_name: str) -> list[float]:
        """Per-clip Δcost vs the baseline rule, in clip order.

        Infeasible clips get :data:`INFEASIBLE_DELTA` (the paper's
        plotting convention).  Clips whose baseline is infeasible, and
        clips where either solve hit the solver budget (LIMIT) without
        an optimality proof or failed outright (ERROR/TIMEOUT), are
        skipped -- Δcost is only meaningful between proven optima, and
        a failure proves neither optimality nor infeasibility.
        """
        base = self.outcomes[self.baseline_rule]
        this = self.outcomes[rule_name]
        deltas: list[float] = []
        for b, t in zip(base, this):
            if not b.feasible:
                continue
            if t.status is RouteStatus.LIMIT or t.failed:
                continue
            if not t.feasible:
                deltas.append(INFEASIBLE_DELTA)
            else:
                # Round away MILP tolerance noise (costs are exact sums
                # of the configured weights, far coarser than 1e-4).
                delta = round(t.cost - b.cost, 4)
                deltas.append(0.0 if delta == 0 else delta)
        return deltas

    def limit_count(self, rule_name: str) -> int:
        """Clips whose solve exhausted the solver budget under this rule."""
        return sum(
            1
            for outcome in self.outcomes[rule_name]
            if outcome.status is RouteStatus.LIMIT
        )

    def certified_skip_count(self, rule_name: str) -> int:
        """Clips proven infeasible statically, skipping the solver."""
        return sum(
            1 for outcome in self.outcomes[rule_name] if outcome.certified
        )

    def failure_count(self, rule_name: str) -> int:
        """Clips whose job failed outright (worker crash or reaped at
        the hard deadline) under this rule."""
        return sum(1 for outcome in self.outcomes[rule_name] if outcome.failed)

    def degraded_count(self, rule_name: str) -> int:
        """Clips whose result came from a fallback backend (no
        optimality guarantee; excluded from Δcost)."""
        return sum(
            1 for outcome in self.outcomes[rule_name] if outcome.degraded
        )

    def audited_count(self, rule_name: str) -> int:
        """Clips whose final result carries a verify certificate."""
        return sum(1 for o in self.outcomes[rule_name] if o.audited)

    def audit_failure_count(self, rule_name: str) -> int:
        """Clips whose *final* result failed its certificate."""
        return sum(1 for o in self.outcomes[rule_name] if o.audit_ok is False)

    def quarantined_count(self, rule_name: str) -> int:
        """Clips whose original result was caught lying by the audit."""
        return sum(1 for o in self.outcomes[rule_name] if o.quarantined)

    def healed_count(self, rule_name: str) -> int:
        """Quarantined clips replaced by a certified cold re-solve."""
        return sum(1 for o in self.outcomes[rule_name] if o.healed)

    def unhealed_count(self, rule_name: str) -> int:
        """Quarantined clips that stayed uncertified (reported as
        ERROR; a chaos-audited sweep must end with zero of these)."""
        return sum(1 for o in self.outcomes[rule_name] if o.unhealed)

    def restriction_certified_count(self, rule_name: str) -> int:
        """Clips whose warm-start edge carried a model-level
        restriction proof under this rule."""
        return sum(
            1 for o in self.outcomes[rule_name] if o.restriction_certified
        )

    def sorted_delta_costs(self, rule_name: str) -> list[float]:
        """The paper's Figure-10 trace: per-clip Δcost sorted ascending."""
        return sorted(self.delta_costs(rule_name))

    def infeasible_count(self, rule_name: str) -> int:
        """Clips proven infeasible under the rule (LIMIT not counted)."""
        base = self.outcomes[self.baseline_rule]
        this = self.outcomes[rule_name]
        return sum(
            1
            for b, t in zip(base, this)
            if b.feasible and t.status is RouteStatus.INFEASIBLE
        )

    def zero_delta_fraction(self, rule_name: str) -> float:
        """Fraction of clips unaffected by the rule (paper observation
        (2): ~half for upper-layer rules)."""
        deltas = self.delta_costs(rule_name)
        if not deltas:
            return 0.0
        return sum(1 for d in deltas if d == 0) / len(deltas)

    def mean_delta(self, rule_name: str, include_infeasible: bool = False) -> float:
        deltas = self.delta_costs(rule_name)
        if not include_infeasible:
            deltas = [d for d in deltas if d < INFEASIBLE_DELTA]
        if not deltas:
            return 0.0
        return sum(deltas) / len(deltas)


@dataclass(frozen=True)
class EvalConfig:
    """Knobs of the evaluation run.

    ``certify`` short-circuits statically-provable infeasible pairs
    before the solver (sound, so Δcost results are unchanged).

    ``audit`` independently certifies every non-failed result
    (:mod:`repro.verify`): geometry-recomputed objective, independent
    connectivity, DRC oracle, bound tightness, infeasibility
    confirmation.  A result that fails its certificate is quarantined
    and *healed* -- re-solved cold (no warm start, no cache, no fault
    plan) and re-audited; an unhealable pair is reported as ERROR so
    it cannot contaminate Δcost.  ``cross_check_fraction`` additionally
    re-solves that deterministic fraction of pairs on the alternate
    backend and compares claims.
    """

    time_limit_per_clip: float | None = 60.0
    wire_cost: float = 1.0
    via_cost: float = 4.0
    backend: str = "highs"
    certify: bool = True
    #: schedule each clip's rules as one group in lattice order (the
    #: baseline, the rule restricting all others, then the rest by
    #: :func:`is_restriction` rank) so that every settled outcome of
    #: the clip warm-starts the rules after it -- sound shortcuts
    #: only, identical results (see :func:`warm_job` and
    #: docs/performance.md).  Every bound or inherited infeasibility
    #: needs a model-level
    #: :class:`~repro.analysis.semantics.restriction.RestrictionProof`
    #: of its edge; an edge the syntactic predicate accepts but the
    #: prover cannot certify is never warmed and is reported in
    #: ``DeltaCostStudy.restriction_disagreements``.  Off = historical
    #: rule-major order, no warm starts.
    incremental: bool = True
    #: directory of the persistent solve cache (None = disabled).
    solve_cache_dir: str | None = None
    #: certify every result; quarantine and heal audit failures.
    audit: bool = True
    #: deterministic fraction of pairs cross-checked on the alternate
    #: backend (0 = certificates only, no extra solves).
    cross_check_fraction: float = 0.0
    #: worker processes for lease-coordinated distributed execution
    #: (:mod:`repro.exec.distributed`).  1 = the historical
    #: single-process flow; > 1 requires ``checkpoint_path`` (the
    #: journal is the coordination log).  Per-pair results are
    #: deterministic and deduplicated first-wins, so the Δcost table
    #: is byte-identical to a sequential run.
    n_procs: int = 1
    #: portfolio-race both exact backends on the hardest half of the
    #: clips by the paper's pin-cost metric (and on clips whose
    #: journaled prior attempt hit LIMIT).  First *certified* answer
    #: wins; both backends are exact, so results are unchanged -- only
    #: latency.
    race: bool = False
    #: sweep-level wall-clock budget in seconds (None = unbounded).
    #: Per-clip deadlines are allocated hardest-first from it, and the
    #: runner degrades racing -> single backend -> baseline as it
    #: drains (see :class:`repro.exec.portfolio.SweepBudget`).
    time_budget: float | None = None


@dataclass(frozen=True)
class _SweepPlan:
    """Everything the executors of one sweep agree on, computed once.

    ``pairs`` lists every (clip, rule) pair in input order -- clip-major
    with ``incremental``, else rule-major -- which is the order jobs are
    built in.  ``groups`` is the execution order, as indices into
    ``pairs``: one group per clip, its rules in :func:`_lattice_order`,
    with ``incremental``, else one group per pair; hardest clip first when
    racing or budgeted, so the most uncertain work runs while the
    budget is still generous.  ``race_set`` names the clips raced on
    both exact backends, ``deadlines`` is each clip's share of the time
    budget, and ``budget`` is the sweep's one budget, anchored at its
    start on the wall clock so that lease workers and the closing pass
    drain the same budget.
    """

    clips: tuple[Clip, ...]
    rules: tuple[RuleConfig, ...]
    config: EvalConfig
    pairs: tuple[tuple[Clip, RuleConfig], ...]
    groups: tuple[tuple[int, ...], ...]
    race_set: frozenset[str]
    deadlines: "dict[str, float] | None"
    budget: SweepBudget | None

    def lease_keys(self, done: "dict[tuple[str, str], ClipRuleOutcome]") -> list[str]:
        """Clips with a pair still to solve, hardest first: the order
        lease workers claim them in."""
        pending = [
            clip
            for clip in self.clips
            if any((clip.name, rule.name) not in done for rule in self.rules)
        ]
        return [pending[i].name for i in order_hardest_first(pending)]

    def for_clip(self, name: str) -> "_SweepPlan":
        """A lease worker's slice: one clip's pairs in plan order, with
        the sweep's race set, deadlines and budget."""
        keep = [i for i, (clip, _) in enumerate(self.pairs) if clip.name == name]
        renumber = {old: new for new, old in enumerate(keep)}
        groups = (
            tuple(renumber[i] for i in group if i in renumber)
            for group in self.groups
        )
        return replace(
            self,
            clips=tuple(clip for clip in self.clips if clip.name == name),
            pairs=tuple(self.pairs[i] for i in keep),
            groups=tuple(group for group in groups if group),
        )


def _plan_sweep(
    clips: Sequence[Clip], rules: Sequence[RuleConfig], config: EvalConfig
) -> _SweepPlan:
    """Plan a sweep once, at its start (see :class:`_SweepPlan`)."""
    if config.incremental:
        pairs = [(clip, rule) for clip in clips for rule in rules]
        order = _lattice_order(rules)
        by_clip: dict[str, list[int]] = {}
        for c, clip in enumerate(clips):
            by_clip.setdefault(clip.name, []).extend(
                c * len(rules) + r for r in order
            )
        groups = list(by_clip.values())
    else:
        pairs = [(clip, rule) for rule in rules for clip in clips]
        groups = [[i] for i in range(len(pairs))]
    race_set = (
        frozenset(predicted_hard(list(clips))) if config.race else frozenset()
    )
    deadlines = None
    budget = None
    if config.time_budget is not None:
        deadlines = clip_deadlines(list(clips), config.time_budget)
        budget = SweepBudget(
            total=config.time_budget, started=time.time(), clock=time.time
        )
    if race_set or budget is not None:
        # Execution order does not affect per-pair results, so reports
        # are unchanged.
        groups.sort(
            key=lambda g: (-hardness(pairs[g[0]][0]), pairs[g[0]][0].name)
        )
    return _SweepPlan(
        clips=tuple(clips),
        rules=tuple(rules),
        config=config,
        pairs=tuple(pairs),
        groups=tuple(tuple(group) for group in groups),
        race_set=race_set,
        deadlines=deadlines,
        budget=budget,
    )


def _lattice_order(rules: Sequence[RuleConfig]) -> list[int]:
    """One clip's rule order, as indices into ``rules``: the baseline;
    then the lattice top, the rule that :func:`is_restriction` says
    restricts every rule (if one does); then the rest by how many
    rules each restricts, fewest first, ties in input order.

    After the baseline this is a linear extension of the restriction
    order, so a rule runs after the looser rules whose optima can
    bound it.  The top runs early because its routing passes every
    other rule's DRC: on a clip where the rules share one optimum,
    the baseline's bound and the top's routing settle every rule."""
    restricts = [sum(is_restriction(other, rule) for other in rules) for rule in rules]
    rest = list(range(1, len(rules)))
    top = next((i for i in rest if restricts[i] == len(rules)), None)
    if top is not None:
        rest.remove(top)
    rest.sort(key=lambda i: restricts[i])
    return [0] + ([top] if top is not None else []) + rest


def evaluate_clips(
    clips: Sequence[Clip],
    rules: Sequence[RuleConfig],
    config: EvalConfig | None = None,
    *,
    checkpoint_path: "str | os.PathLike[str] | None" = None,
    resume: bool = False,
    supervisor: SupervisorConfig | None = None,
    fault_plan: FaultPlan | None = None,
    chaos_kills: int = 0,
    chaos_seed: int = 0,
    stop_event: "threading.Event | None" = None,
    on_outcome: "Callable[[ClipRuleOutcome], None] | None" = None,
) -> DeltaCostStudy:
    """Run OptRouter on every (clip, rule) pair under the supervisor.

    The first rule in ``rules`` is the Δcost baseline (pass RULE1 first
    to match the paper).

    With ``checkpoint_path``, every completed pair is journaled to a
    JSONL file as it finishes; ``resume=True`` reloads the journal and
    skips already-completed pairs, so an interrupted sweep continues
    where it stopped and reproduces the uninterrupted study exactly
    (results are deterministic per pair).  Without ``resume`` an
    existing journal is truncated.  ``supervisor`` selects isolation /
    retry / fallback policy (default: inline single-worker, matching
    the historical in-process flow; ``config.race`` lifts inline
    isolation to per-attempt processes, since racers are processes);
    ``fault_plan`` is for the robustness tests.

    ``config.n_procs > 1`` switches to the lease-coordinated
    distributed fabric (requires ``checkpoint_path``); ``chaos_kills``
    SIGKILLs that many random workers mid-sweep (the chaos scenario)
    and ``stop_event`` is the graceful-shutdown hook.  ``on_outcome``
    is an observer called with each :class:`ClipRuleOutcome` of a
    single-process sweep right after it is journaled (progress
    streaming; chaos-kill triggers).
    """
    if config is None:
        config = EvalConfig()
    if not rules:
        raise ValueError("need at least one rule configuration")
    journal: CheckpointJournal | None = None
    done: dict[tuple[str, str], ClipRuleOutcome] = {}
    if checkpoint_path is not None:
        _require_unique_names(clips, rules)
        journal = CheckpointJournal(checkpoint_path)
        if resume:
            done = _journaled(journal.load())
        else:
            journal.clear()
    plan = _plan_sweep(clips, rules, config)
    if config.n_procs <= 1:
        return _execute(
            plan,
            supervisor or SupervisorConfig(n_workers=1, isolation="inline"),
            journal,
            done,
            fault_plan=fault_plan,
            stop_event=stop_event,
            on_outcome=on_outcome,
        )
    if journal is None:
        raise ValueError(
            "distributed evaluation (n_procs > 1) requires "
            "checkpoint_path: the journal is the coordination log"
        )
    return _evaluate_distributed(
        plan,
        journal,
        done,
        supervisor=supervisor,
        fault_plan=fault_plan,
        chaos_kills=chaos_kills,
        chaos_seed=chaos_seed,
        stop_event=stop_event,
    )


def _execute(
    plan: _SweepPlan,
    supervisor: SupervisorConfig,
    journal: CheckpointJournal | None,
    done: "dict[tuple[str, str], ClipRuleOutcome]",
    *,
    fault_plan: FaultPlan | None = None,
    stop_event: "threading.Event | None" = None,
    on_outcome: "Callable[[ClipRuleOutcome], None] | None" = None,
) -> DeltaCostStudy:
    """Run the plan's pairs missing from ``done`` (the journaled
    outcomes) on one :class:`SupervisedRunner`; audit, journal and
    observe each result as it lands; return the study of the plan's
    clips.  The one executor behind the sequential sweep, each lease
    worker and the coordinator's closing pass."""
    config = plan.config
    if plan.race_set and supervisor.isolation == "inline":
        # Racers are child processes, which inline isolation never
        # spawns: a raced plan runs its attempts in processes too.
        supervisor = replace(supervisor, isolation="process")
    restriction_disagreements: list[str] = []
    proofs: dict[tuple[str, str, str], bool] = {}

    def proven(clip: Clip, looser: RuleConfig, follower: RuleConfig) -> bool:
        key = (clip.name, looser.name, follower.name)
        if key not in proofs:
            # Looked up on the module at call time, so that a wrapper
            # installed on the module attribute (sweepbench's span
            # tracer) sees the call.
            proof = restriction.prove_restriction(
                clip,
                looser,
                follower,
                wire_cost=config.wire_cost,
                via_cost=config.via_cost,
            )
            if not proof.agrees_with_predicate:
                restriction_disagreements.append(
                    f"{clip.name}: predicate accepts "
                    f"{looser.name} -> {follower.name} but the model-level "
                    "proof failed: " + "; ".join(proof.failures)
                )
            proofs[key] = proof.holds
        return proofs[key]

    # Each clip's settled outcomes by rule: the journaled ones (no
    # routing), then each result of this run as the audit left it.
    settled: dict[str, dict[str, Settled]] = {}
    for (clip_name, rule_name), outcome in done.items():
        settled.setdefault(clip_name, {})[rule_name] = (outcome, None)
    # The job each pair actually ran, warm seed included.
    seeded: dict[tuple[str, str], RouteJob] = {}

    # Clips whose journaled prior attempt hit LIMIT race as well.
    limited = {o.clip_name for o in done.values() if o.status is RouteStatus.LIMIT}

    def make_job(clip: Clip, rule: RuleConfig) -> RouteJob:
        time_limit = config.time_limit_per_clip
        if plan.deadlines is not None and clip.name in plan.deadlines:
            # The clip's budget share, spread across its rule jobs.
            per_pair = plan.deadlines[clip.name] / len(plan.rules)
            time_limit = (
                per_pair if time_limit is None else min(time_limit, per_pair)
            )
        race_with = None
        if (
            plan.race_set
            and config.backend != "baseline"
            and (clip.name in plan.race_set or clip.name in limited)
        ):
            race_with = RACE_BACKENDS
        return RouteJob(
            clip=clip,
            rules=rule,
            wire_cost=config.wire_cost,
            via_cost=config.via_cost,
            backend=config.backend,
            time_limit=time_limit,
            certify=config.certify,
            solve_cache_dir=config.solve_cache_dir,
            race_with=race_with,
        )

    jobs = {
        i: make_job(clip, rule)
        for i, (clip, rule) in enumerate(plan.pairs)
        if (clip.name, rule.name) not in done
    }
    groups = [[jobs[i] for i in group if i in jobs] for group in plan.groups]
    groups = [group for group in groups if group]
    # Flat positions in concatenated group order -- the index space of
    # fault plans and ``on_result``.
    flat = [job for group in groups for job in group]

    fresh: dict[tuple[str, str], ClipRuleOutcome] = {}

    auditor = None
    if config.audit:
        from repro.verify.audit import AuditConfig, ResultAuditor

        auditor = ResultAuditor(
            wire_cost=config.wire_cost,
            via_cost=config.via_cost,
            backend=config.backend,
            config=AuditConfig(
                cross_check_fraction=config.cross_check_fraction,
                time_limit=config.time_limit_per_clip,
            ),
        )

    def heal(clip: Clip, rule: RuleConfig) -> OptRouteResult:
        """Cold re-solve of a quarantined pair: primary backend, no
        warm start, no solve cache, and crucially no fault plan -- the
        heal path must not share the machinery that produced the lie."""
        from repro.router.optrouter import OptRouter

        result = OptRouter(
            wire_cost=config.wire_cost,
            via_cost=config.via_cost,
            backend=config.backend,
            time_limit=config.time_limit_per_clip,
            certify=config.certify,
        ).route(clip, rule)
        result.backend = config.backend
        return result

    def on_result(index: int, result: OptRouteResult) -> None:
        clip, rule = flat[index].clip, flat[index].rules
        audited = False
        audit_ok: "bool | None" = None
        was_quarantined = False
        was_healed = False
        if auditor is not None and not result.failed:
            certificate = auditor.audit(clip, rule, result)
            audited = True
            audit_ok = certificate.ok
            if not certificate.ok:
                was_quarantined = True
                replacement = heal(clip, rule)
                recertificate = auditor.audit(clip, rule, replacement)
                if not replacement.failed and recertificate.ok:
                    result = replacement
                    was_healed = True
                    audit_ok = True
                else:
                    result = OptRouteResult(
                        clip_name=clip.name,
                        rule_name=rule.name,
                        status=RouteStatus.ERROR,
                        backend=result.backend,
                        attempts=result.attempts,
                        diagnostics=(
                            "audit quarantine (unhealed): "
                            + "; ".join(
                                str(check)
                                for check in certificate.failures()
                            )
                        ),
                    )
                    audit_ok = False
        seed = seeded.get((clip.name, rule.name), flat[index])
        outcome = _to_outcome(
            result,
            audited=audited,
            audit_ok=audit_ok,
            quarantined=was_quarantined,
            healed=was_healed,
            restriction_certified=bool(seed.warm_bound_from),
            warm_bound_from=seed.warm_bound_from if result.warm_used else "",
            warm_routing_from=(
                seed.warm_routing_from
                if result.warm_used == "reused-optimal"
                else ""
            ),
        )
        fresh[(clip.name, rule.name)] = outcome
        settled.setdefault(clip.name, {})[rule.name] = (outcome, result.routing)
        if journal is not None:
            journal.append(outcome_to_record(outcome))
        if on_outcome is not None:
            # Observer hook (progress streaming, chaos triggers); runs
            # after the journal append so an observer that kills the
            # process never loses the pair it observed.
            on_outcome(outcome)
        if stop_event is not None and stop_event.is_set():
            # Graceful shutdown: the pair just finished is journaled,
            # so a resume continues exactly here.
            from repro.exec.distributed import SweepInterrupted

            raise SweepInterrupted(
                "sweep interrupted after journaling the current pair",
                str(journal.path) if journal is not None else "",
            )

    def derive(job: RouteJob) -> RouteJob:
        warmed = warm_job(
            job, settled.get(job.clip.name, {}), plan.rules, proven
        )
        seeded[(job.clip.name, job.rules.name)] = warmed
        return warmed

    SupervisedRunner(supervisor, budget=plan.budget).run_groups(
        groups,
        fault_plan=fault_plan,
        on_result=on_result,
        derive=derive if config.incremental else None,
    )

    study = DeltaCostStudy(
        clip_names=[clip.name for clip in plan.clips],
        rule_names=[rule.name for rule in plan.rules],
        baseline_rule=plan.rules[0].name,
        restriction_disagreements=restriction_disagreements,
        journal_write_failures=(
            journal.write_failures if journal is not None else 0
        ),
    )
    for rule in plan.rules:
        study.outcomes[rule.name] = [
            fresh.get((clip.name, rule.name)) or done[(clip.name, rule.name)]
            for clip in plan.clips
        ]
    return study


def _journaled(records: "list[dict]") -> "dict[tuple[str, str], ClipRuleOutcome]":
    """Journaled outcomes by (clip, rule).  A journal written by several
    workers holds lease records and, after lease reclaims, possibly
    several records per pair: result records only, first one wins."""
    outcomes = (outcome_from_record(record) for record in dedupe_results(records))
    return {(o.clip_name, o.rule_name): o for o in outcomes}


def _run_lease_group(
    group_key: str,
    *,
    plan: _SweepPlan,
    journal_path: str,
    supervisor: SupervisorConfig,
    fault_plan: FaultPlan | None,
) -> None:
    """A lease worker's share of the sweep: one clip's slice of the plan
    (module-level so it is picklable on spawn-only platforms).

    The journal is only read tolerantly -- peers are appending, so no
    healing compaction and no truncation -- and already-journaled pairs
    are skipped, which is what makes a lease reclaim re-solve only the
    *unfinished* remainder of a dead worker's group.
    """
    journal = CheckpointJournal(journal_path)
    _execute(
        plan.for_clip(group_key),
        supervisor,
        journal,
        _journaled(journal.read()),
        fault_plan=fault_plan,
    )


def _evaluate_distributed(
    plan: _SweepPlan,
    journal: CheckpointJournal,
    done: "dict[tuple[str, str], ClipRuleOutcome]",
    *,
    supervisor: SupervisorConfig | None,
    fault_plan: FaultPlan | None,
    chaos_kills: int,
    chaos_seed: int,
    stop_event: "threading.Event | None",
) -> DeltaCostStudy:
    """Lease-coordinated multi-process evaluation.

    The journal was healed (or cleared) before any worker started.
    Clip groups are claimed hardest-first by ``config.n_procs`` workers
    via :func:`repro.exec.distributed.run_distributed`, each running its
    clip's slice of the plan.  A closing sequential pass then heals the
    journal (quarantining any line torn by a SIGKILL mid-write),
    re-solves anything still missing on what is left of the sweep's
    budget, and builds the study -- so the returned report is
    byte-identical to a single-process run of the same sweep.
    """
    # Imported at call time, so that a wrapper installed on the module
    # attribute (sweepbench's span tracer) sees the call.
    from repro.exec.chaos import ChaosMonkey, KillPlan
    from repro.exec.distributed import DistributedConfig, run_distributed

    work = partial(
        _run_lease_group,
        plan=plan,
        journal_path=str(journal.path),
        supervisor=replace(
            supervisor or SupervisorConfig(), n_workers=1, isolation="process"
        ),
        fault_plan=fault_plan,
    )
    monkey = None
    dist_config = DistributedConfig(n_procs=plan.config.n_procs)
    if chaos_kills > 0:
        # Chaos runs disable respawn: surviving peers (or, in the
        # extreme, the coordinator's inline floor) must absorb the
        # killed workers' groups -- that is the property under test.
        dist_config = replace(dist_config, respawn=False)
        monkey = ChaosMonkey(
            CheckpointJournal(journal.path),
            KillPlan(plan.config.n_procs, chaos_kills, seed=chaos_seed),
        )
    report = run_distributed(
        journal.path,
        plan.lease_keys(done),
        work,
        dist_config,
        monkey=monkey,
        stop_event=stop_event,
    )
    # Closing pass: ``load`` heals the journal, and the plan's budget
    # has been draining since the sweep started.
    study = _execute(
        plan,
        SupervisorConfig(n_workers=1, isolation="inline"),
        journal,
        _journaled(journal.load()),
    )
    study.distributed_report = report
    return study


#: A settled outcome of one rule on a clip, with its routing while the
#: sweep still holds one (journaled outcomes carry no geometry).
Settled = tuple[ClipRuleOutcome, "ClipRouting | None"]

#: Cost comparison slack (costs are exact sums of the cost weights).
_COST_TOL = 1e-6


def warm_job(
    job: RouteJob,
    settled: "Mapping[str, Settled]",
    rules: Sequence[RuleConfig],
    proven: EdgeProof,
) -> RouteJob:
    """Seed ``job`` from its clip's settled outcomes over the rule lattice.

    ``settled`` maps rule names of ``job.clip`` to their settled
    outcomes; ``rules`` are the sweep's rules, baseline first; and
    ``proven(clip, looser, follower)`` is the sweep's memoized
    model-level restriction proof.  Only trusted outcomes take part:
    not degraded (fallback backends prove nothing), not failed, not
    left quarantined.  Only sound transfers are made:

    - *infeasibility*: the follower is INFEASIBLE when a settled
      INFEASIBLE rule has a proven edge to it;
    - *bound*: the baseline's proven optimum.  It is raised only when
      the cheapest candidate routing that passes the follower's DRC
      costs more: then one proof from a settled OPTIMAL looser rule
      whose optimum reaches the candidate's cost lifts it;
    - *routing*: that cheapest DRC-clean settled routing of any rule
      on the same routing graph (an optimum or a LIMIT incumbent),
      when its cost meets the bound.  The router re-verifies it.

    The baseline's edge is proven for every follower (its optimum is
    the starting bound); any other edge only where
    :func:`is_restriction` accepts it and its proof would change the
    outcome.  The seed's provenance rides on the job
    (``warm_bound_from``/``warm_routing_from``).
    """
    from repro.drc.checker import check_clip_routing  # avoid cycle

    clip, follower = job.clip, job.rules
    baseline = rules[0]
    trusted = [
        (rule, outcome, routing)
        for rule in rules
        if rule.name != follower.name and rule.name in settled
        for outcome, routing in [settled[rule.name]]
        if _trusted(outcome)
    ]

    def edge(looser: RuleConfig) -> bool:
        if looser.name != baseline.name and not is_restriction(looser, follower):
            return False
        return proven(clip, looser, follower)

    for rule, outcome, _ in trusted:
        if outcome.status is RouteStatus.INFEASIBLE and edge(rule):
            return replace(job, warm_infeasible=True, warm_bound_from=rule.name)

    optima = [
        (rule, outcome.cost)
        for rule, outcome, _ in trusted
        if outcome.status is RouteStatus.OPTIMAL and outcome.cost is not None
    ]
    bound: float | None = None
    bound_from = ""
    base_optimum = next(
        (cost for rule, cost in optima if rule.name == baseline.name), None
    )
    if base_optimum is not None and edge(baseline):
        bound, bound_from = base_optimum, baseline.name
    with_bound = (
        replace(job, warm_lower_bound=bound, warm_bound_from=bound_from)
        if bound_from
        else job
    )
    lifts = [
        (rule, cost)
        for rule, cost in optima
        if rule.name != baseline.name and is_restriction(rule, follower)
    ]
    # A candidate dearer than every bound a proof could give is never
    # reusable: skip its DRC check.
    ceiling = max(
        [cost for _, cost in lifts] + ([bound] if bound is not None else []),
        default=None,
    )
    if ceiling is None:
        return with_bound
    candidates: dict[str, tuple[float, ClipRouting]] = {}
    for rule, outcome, routing in trusted:
        source = outcome.warm_routing_from or rule.name
        if (
            routing is not None
            and outcome.cost is not None
            and outcome.status in (RouteStatus.OPTIMAL, RouteStatus.LIMIT)
            and rule.allow_via_shapes == follower.allow_via_shapes
            and outcome.cost <= ceiling + _COST_TOL
            and source not in candidates
        ):
            candidates[source] = (outcome.cost, routing)
    chosen = next(
        (
            (source, cost, routing)
            for source, (cost, routing) in sorted(
                candidates.items(), key=lambda item: item[1][0]
            )
            if not check_clip_routing(clip, follower, routing)
        ),
        None,
    )
    if chosen is None:
        return with_bound
    source, cost, routing = chosen
    if bound is None or cost > bound + _COST_TOL:
        lift = next(
            (
                (rule, optimum)
                for rule, optimum in lifts
                if optimum >= cost - _COST_TOL
            ),
            None,
        )
        if lift is None or not proven(clip, lift[0], follower):
            return with_bound
        bound, bound_from = lift[1], lift[0].name
    return replace(
        job,
        warm_routing=routing,
        warm_cost=cost,
        warm_lower_bound=bound,
        warm_bound_from=bound_from,
        warm_routing_from=source,
    )


def _trusted(outcome: ClipRuleOutcome) -> bool:
    """Whether an outcome may seed other rules: not a fallback result,
    not a failure, not a result the audit rejected without a certified
    replacement."""
    return not (outcome.degraded or outcome.failed or outcome.unhealed)


def _require_unique_names(
    clips: Sequence[Clip], rules: Sequence[RuleConfig]
) -> None:
    clip_names = [clip.name for clip in clips]
    rule_names = [rule.name for rule in rules]
    if len(set(clip_names)) != len(clip_names):
        raise ValueError("checkpointing requires unique clip names")
    if len(set(rule_names)) != len(rule_names):
        raise ValueError("checkpointing requires unique rule names")


def _to_outcome(
    result: OptRouteResult,
    *,
    audited: bool = False,
    audit_ok: "bool | None" = None,
    quarantined: bool = False,
    healed: bool = False,
    restriction_certified: bool = False,
    warm_bound_from: str = "",
    warm_routing_from: str = "",
) -> ClipRuleOutcome:
    return ClipRuleOutcome(
        clip_name=result.clip_name,
        rule_name=result.rule_name,
        status=result.status,
        cost=result.cost,
        wirelength=result.wirelength,
        n_vias=result.n_vias,
        solve_seconds=result.solve_seconds,
        certified=result.certified,
        backend=result.backend,
        attempts=result.attempts,
        degraded=result.degraded,
        build_seconds=result.build_seconds,
        serialize_seconds=result.serialize_seconds,
        warm_used=result.warm_used,
        cache_hit=result.cache_hit,
        bound=result.bound,
        gap=result.gap,
        audited=audited,
        audit_ok=audit_ok,
        quarantined=quarantined,
        healed=healed,
        restriction_certified=restriction_certified,
        warm_bound_from=warm_bound_from,
        warm_routing_from=warm_routing_from,
        attempt_log=tuple(result.attempt_log),
    )


def outcome_to_record(outcome: ClipRuleOutcome) -> dict:
    """Checkpoint-journal form of an outcome (version tag added by the
    journal).  Routing geometry is intentionally not journaled: Δcost
    accounting only needs the metrics below."""
    return {
        "clip": outcome.clip_name,
        "rule": outcome.rule_name,
        "status": outcome.status.value,
        "cost": outcome.cost,
        "wirelength": outcome.wirelength,
        "n_vias": outcome.n_vias,
        "solve_seconds": outcome.solve_seconds,
        "certified": outcome.certified,
        "backend": outcome.backend,
        "attempts": outcome.attempts,
        "degraded": outcome.degraded,
        "build_seconds": outcome.build_seconds,
        "serialize_seconds": outcome.serialize_seconds,
        "warm_used": outcome.warm_used,
        "cache_hit": outcome.cache_hit,
        "bound": outcome.bound,
        "gap": outcome.gap,
        "audited": outcome.audited,
        "audit_ok": outcome.audit_ok,
        "quarantined": outcome.quarantined,
        "healed": outcome.healed,
        "restriction_certified": outcome.restriction_certified,
        "warm_bound_from": outcome.warm_bound_from,
        "warm_routing_from": outcome.warm_routing_from,
        "attempt_log": list(outcome.attempt_log),
    }


def outcome_from_record(record: dict) -> ClipRuleOutcome:
    """Rebuild an outcome from its journal record."""
    return ClipRuleOutcome(
        clip_name=record["clip"],
        rule_name=record["rule"],
        status=RouteStatus(record["status"]),
        cost=record["cost"],
        wirelength=record["wirelength"],
        n_vias=record["n_vias"],
        solve_seconds=record["solve_seconds"],
        certified=record["certified"],
        backend=record.get("backend", ""),
        attempts=record.get("attempts", 1),
        degraded=record.get("degraded", False),
        build_seconds=record.get("build_seconds", 0.0),
        serialize_seconds=record.get("serialize_seconds", 0.0),
        warm_used=record.get("warm_used", ""),
        cache_hit=record.get("cache_hit", False),
        bound=record.get("bound"),
        gap=record.get("gap"),
        audited=record.get("audited", False),
        audit_ok=record.get("audit_ok"),
        quarantined=record.get("quarantined", False),
        healed=record.get("healed", False),
        restriction_certified=record.get("restriction_certified", False),
        warm_bound_from=record.get("warm_bound_from", ""),
        warm_routing_from=record.get("warm_routing_from", ""),
        attempt_log=tuple(record.get("attempt_log", ())),
    )
