"""The Δcost evaluation flow of Figure 6.

A sweep is planned once (:func:`_plan_sweep`: pair order, per-clip
deadlines, one time budget) and run by one executor
(:func:`_execute`) under the fault-tolerant supervisor
(:mod:`repro.exec`), whether inline, on each lease worker's slice of
the plan, or in the distributed coordinator's closing pass.
Individual solver crashes and wall-clock blowups become per-pair
ERROR/TIMEOUT outcomes instead of killing the sweep, and an optional
JSONL checkpoint journal makes interrupted sweeps resumable without
re-solving finished pairs.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field, replace
from functools import partial
from typing import TYPE_CHECKING

from repro.analysis.semantics import restriction
from repro.clips.clip import Clip
from repro.clips.serialization import clip_digest
from repro.eval.rule_configs import INFEASIBLE_DELTA
from repro.exec.checkpoint import CheckpointJournal, dedupe_results
from repro.exec.faults import FaultPlan
from repro.exec.policy import SupervisorConfig
from repro.exec.portfolio import (
    SweepBudget,
    clip_deadlines,
    hardness,
    order_hardest_first,
)
from repro.exec.runner import RouteJob, SupervisedRunner, _mp_context
from repro.ilp.solve_cache import SolveCache, program_digest
from repro.router.formulation import formulation_cache, proof_edge
from repro.router.optrouter import OptRouteResult, OptRouter, RouteStatus, WarmStart
from repro.router.rules import RuleConfig, is_restriction
from repro.router.solution import ClipRouting

if TYPE_CHECKING:
    from multiprocessing.synchronize import Event

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
    #: formulation build time (zero for warm shortcuts, certified
    #: pairs and cache hits read through the solve cache's pair index).
    build_seconds: float = 0.0
    #: canonical-serialization (solve-cache hashing) time; zero when
    #: no solve cache is configured or the pair index replayed the pair.
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
    #: sweep-level wall-clock budget in seconds (None = unbounded).
    #: Per-clip deadlines are allocated hardest-first from it, and the
    #: runner degrades from the exact backend to the heuristic baseline
    #: once it is nearly spent (see
    #: :class:`repro.exec.portfolio.SweepBudget`).
    time_budget: float | None = None


@dataclass(frozen=True)
class _SweepPlan:
    """Everything the executors of one sweep agree on, computed once.

    ``pairs`` lists every (clip, rule) pair in clip-major input order,
    which is the order jobs are built in.  ``groups`` is the execution
    order, as indices into ``pairs``: one group per clip, its rules in
    :func:`_lattice_order` (the baseline, the rule restricting all
    others, then the rest by :func:`is_restriction` rank), so that
    every settled outcome of the clip warm-starts the rules after it
    through :func:`warm_job` -- sound shortcuts only, identical results
    (see docs/performance.md).  Groups run hardest clip first when
    budgeted, so the most uncertain work runs while the budget is
    still generous.  ``deadlines`` is each clip's share of the time
    budget, and ``budget`` is the sweep's one budget, anchored at its
    start on the wall clock so that lease workers and the closing pass
    drain the same budget.
    """

    clips: tuple[Clip, ...]
    rules: tuple[RuleConfig, ...]
    config: EvalConfig
    pairs: tuple[tuple[Clip, RuleConfig], ...]
    groups: tuple[tuple[int, ...], ...]
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
        the sweep's deadlines and budget."""
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
    pairs = [(clip, rule) for clip in clips for rule in rules]
    order = _lattice_order(rules)
    by_clip: dict[str, list[int]] = {}
    for c, clip in enumerate(clips):
        by_clip.setdefault(clip.name, []).extend(
            c * len(rules) + r for r in order
        )
    groups = list(by_clip.values())
    deadlines = None
    budget = None
    if config.time_budget is not None:
        deadlines = clip_deadlines(list(clips), config.time_budget)
        budget = SweepBudget(
            total=config.time_budget, started=time.time(), clock=time.time
        )
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
    to match the paper).  A sweep keys its pairs by (clip name, rule
    name), so duplicate clip or rule names raise ``ValueError``.

    With ``checkpoint_path``, every completed pair is journaled to a
    JSONL file as it finishes; ``resume=True`` reloads the journal and
    skips already-completed pairs, so an interrupted sweep continues
    where it stopped and reproduces the uninterrupted study exactly
    (results are deterministic per pair).  Without ``resume`` an
    existing journal is truncated.  ``supervisor`` selects isolation /
    retry / fallback policy (default: inline, the in-process flow);
    ``fault_plan`` is for the robustness tests.

    ``config.n_procs > 1`` switches to the lease-coordinated
    distributed fabric (requires ``checkpoint_path``), the one way a
    sweep runs in parallel; ``chaos_kills`` SIGKILLs that many random
    workers mid-sweep (the chaos scenario) and ``stop_event`` is the
    graceful-shutdown hook.  ``on_outcome`` is an observer called once
    with the :class:`ClipRuleOutcome` of each pair this sweep journals,
    right after it is journaled (progress streaming; chaos-kill
    triggers); a distributed sweep reports a pair when the
    coordinator's journal poll first sees it.
    """
    if config is None:
        config = EvalConfig()
    if not rules:
        raise ValueError("need at least one rule configuration")
    # Pairs are keyed by (clip name, rule name) throughout a sweep.
    _require_unique_names(clips, rules)
    if config.solve_cache_dir is not None:
        # Before any lease worker or attempt process forks, so each
        # inherits it (the solve cache's pair index keys carry it).
        program_digest()
    journal: CheckpointJournal | None = None
    done: dict[tuple[str, str], ClipRuleOutcome] = {}
    if checkpoint_path is not None:
        journal = CheckpointJournal(checkpoint_path)
        if resume:
            done = _journaled(journal.load())
        else:
            journal.clear()
    plan = _plan_sweep(clips, rules, config)
    if config.n_procs <= 1:
        return _execute(
            plan,
            supervisor or SupervisorConfig(isolation="inline"),
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
        on_outcome=on_outcome,
    )


def _execute(
    plan: _SweepPlan,
    supervisor: SupervisorConfig,
    journal: CheckpointJournal | None,
    done: "dict[tuple[str, str], ClipRuleOutcome]",
    *,
    fault_plan: FaultPlan | None = None,
    stop_event: "threading.Event | Event | None" = None,
    on_outcome: "Callable[[ClipRuleOutcome], None] | None" = None,
) -> DeltaCostStudy:
    """Run the plan's pairs missing from ``done`` (the journaled
    outcomes) on one :class:`SupervisedRunner`; audit, journal and
    observe each result as it lands; return the study of the plan's
    clips.  The one executor behind the sequential sweep, each lease
    worker and the coordinator's closing pass."""
    config = plan.config
    restriction_disagreements: list[str] = []
    # The edges this sweep has used (names are unique within a sweep).
    used: dict[tuple[str, str, str], bool] = {}
    solve_cache = (
        SolveCache(config.solve_cache_dir)
        if config.solve_cache_dir is not None
        else None
    )
    sheets = _ProofSheets(solve_cache, config) if solve_cache is not None else None

    def proven(clip: Clip, looser: RuleConfig, follower: RuleConfig) -> bool:
        key = (clip.name, looser.name, follower.name)
        if key in used:
            return used[key]
        # Memoized per process, and persisted in the solve cache's
        # proof sheets when the sweep has one, so a later sweep over an
        # equal clip proves nothing again.  The prover is looked up on
        # the module at call time, so that a wrapper installed on the
        # module attribute (sweepbench's span tracer) sees the call.
        proof, made = formulation_cache().restriction_proof(
            clip,
            looser,
            follower,
            wire_cost=config.wire_cost,
            via_cost=config.via_cost,
            prove=restriction.prove_restriction,
            load=(
                None
                if sheets is None
                else partial(sheets.load, clip, looser.allow_via_shapes)
            ),
        )
        if made and sheets is not None:
            sheets.add(clip, looser, follower, proof)
        if not proof.agrees_with_predicate:
            # Reported by every sweep that uses the edge, memoized or not.
            restriction_disagreements.append(
                f"{clip.name}: predicate accepts "
                f"{looser.name} -> {follower.name} but the model-level "
                "proof failed: " + "; ".join(proof.failures)
            )
        used[key] = proof.holds
        return proof.holds

    # Each clip's settled outcomes by rule: the journaled ones (no
    # routing), then each result of this run as the audit left it.
    settled: dict[str, dict[str, Settled]] = {}
    for (clip_name, rule_name), outcome in done.items():
        settled.setdefault(clip_name, {})[rule_name] = (outcome, None)
    # The job each pair actually ran, warm seed included.
    seeded: dict[tuple[str, str], RouteJob] = {}

    router = OptRouter(
        wire_cost=config.wire_cost,
        via_cost=config.via_cost,
        backend=config.backend,
        time_limit=config.time_limit_per_clip,
        certify=config.certify,
        solve_cache=solve_cache,
    )

    def make_job(clip: Clip, rule: RuleConfig) -> RouteJob:
        job_router = router
        if plan.deadlines is not None and clip.name in plan.deadlines:
            # The clip's budget share, spread across its rule jobs.
            per_pair = plan.deadlines[clip.name] / len(plan.rules)
            if router.time_limit is None or per_pair < router.time_limit:
                job_router = replace(router, time_limit=per_pair)
        return RouteJob(clip, rule, job_router)

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
        result = replace(router, solve_cache=None).route(clip, rule)
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
                if result.cache_key and router.solve_cache is not None:
                    # A wrong entry under a valid seal: no later sweep
                    # may replay it.
                    router.solve_cache.quarantine(
                        result.cache_key, "failed its result audit"
                    )
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

    try:
        SupervisedRunner(supervisor, budget=plan.budget).run_groups(
            groups,
            fault_plan=fault_plan,
            on_result=on_result,
            derive=derive,
        )
    finally:
        if sheets is not None:
            sheets.flush()

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


class _ProofSheets:
    """A sweep's restriction proofs in its solve cache: one proof sheet
    per (clip, ``allow_via_shapes``), read into the process's proof
    memo the first time the process needs one of the clip's proofs,
    and written once, when the sweep ends, for each clip on which the
    sweep proved an edge (merged with what the sheet holds by then).

    A sheet's key carries the program digest, so a sheet written by
    other code is never read; its proofs are keyed by
    :func:`~repro.router.formulation.proof_edge`, the rules' values
    without their names.
    """

    def __init__(self, cache: SolveCache, config: EvalConfig):
        self.cache = cache
        self.weights = repr((config.wire_cost, config.via_cost))
        #: the proofs this sweep made, by sheet key and edge
        self.made: dict[str, dict[str, restriction.RestrictionProof]] = {}

    def key(self, clip: Clip, allow_via_shapes: bool) -> str:
        parts = (
            program_digest(),
            clip_digest(clip),
            self.weights,
            repr(allow_via_shapes),
        )
        return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()

    def load(
        self, clip: Clip, allow_via_shapes: bool
    ) -> "dict[str, restriction.RestrictionProof]":
        return self._read(self.key(clip, allow_via_shapes))

    def _read(self, key: str) -> "dict[str, restriction.RestrictionProof]":
        return self.cache.get_proofs(key, decode=_decode_sheet) or {}

    def add(
        self,
        clip: Clip,
        looser: RuleConfig,
        follower: RuleConfig,
        proof: restriction.RestrictionProof,
    ) -> None:
        key = self.key(clip, looser.allow_via_shapes)
        self.made.setdefault(key, {})[proof_edge(looser, follower)] = proof

    def flush(self) -> None:
        for key, made in self.made.items():
            proofs = {**self._read(key), **made}
            self.cache.put_proofs(
                key, {edge: proof.persisted() for edge, proof in proofs.items()}
            )
        self.made.clear()


def _decode_sheet(entries: dict) -> "dict[str, restriction.RestrictionProof]":
    return {
        edge: restriction.RestrictionProof.from_persisted(fields)
        for edge, fields in entries.items()
    }


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
    stop_event: "Event | None" = None,
) -> None:
    """A lease worker's share of the sweep: one clip's slice of the plan
    (module-level so it is picklable on spawn-only platforms).

    The journal is only read tolerantly -- peers are appending, so no
    healing compaction and no truncation -- and already-journaled pairs
    are skipped, which is what makes a lease reclaim re-solve only the
    *unfinished* remainder of a dead worker's group.  ``stop_event``
    (the sweep's shared ``over`` event) is checked after each journaled
    pair, as in the sequential sweep.
    """
    journal = CheckpointJournal(journal_path)
    _execute(
        plan.for_clip(group_key),
        supervisor,
        journal,
        _journaled(journal.read()),
        fault_plan=fault_plan,
        stop_event=stop_event,
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
    on_outcome: "Callable[[ClipRuleOutcome], None] | None",
) -> DeltaCostStudy:
    """Lease-coordinated multi-process evaluation.

    The journal was healed (or cleared) before any worker started.
    Clip groups are claimed hardest-first by ``config.n_procs`` workers
    via :func:`repro.exec.distributed.run_distributed`, each running its
    clip's slice of the plan under the caller's ``supervisor`` (inline
    by default, as in the sequential sweep).  A group a process may
    have died on -- taken over from a holder that lost its lease, or
    finished by the coordinator's inline floor -- runs under process
    isolation.  Workers stop after their current pair once the sweep is
    stopped.  A closing sequential pass then heals the journal
    (quarantining any line torn by a SIGKILL mid-write), re-solves
    anything still missing on what is left of the sweep's budget, and
    builds the study -- so the returned report is byte-identical to a
    single-process run of the same sweep.

    ``on_outcome`` sees each result record the coordinator's journal
    snapshots hold that is neither in ``done`` nor already reported,
    and each pair the closing pass solves itself: every pair this
    sweep journals, once.
    """
    # Imported at call time, so that a wrapper installed on the module
    # attribute (sweepbench's span tracer) sees the call.
    from repro.exec.chaos import ChaosMonkey, KillPlan
    from repro.exec.distributed import DistributedConfig, run_distributed

    supervisor = supervisor or SupervisorConfig(isolation="inline")
    over = _mp_context().Event()
    work = partial(
        _run_lease_group,
        plan=plan,
        journal_path=str(journal.path),
        supervisor=supervisor,
        fault_plan=fault_plan,
        stop_event=over,
    )
    isolated_work = partial(
        work, supervisor=replace(supervisor, isolation="process")
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
    reported = set(done)

    def report_new(records: "list[dict]") -> None:
        for record in dedupe_results(records):
            key = (record["clip"], record["rule"])
            if key not in reported and on_outcome is not None:
                reported.add(key)
                on_outcome(outcome_from_record(record))

    report = run_distributed(
        journal.path,
        plan.lease_keys(done),
        work,
        dist_config,
        monkey=monkey,
        stop_event=stop_event,
        on_snapshot=report_new if on_outcome is not None else None,
        isolated_work=isolated_work,
        over=over,
    )
    # Closing pass: ``load`` heals the journal, and the plan's budget
    # has been draining since the sweep started.
    study = _execute(
        plan,
        SupervisorConfig(isolation="inline"),
        journal,
        _journaled(journal.load()),
        on_outcome=on_outcome,
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
    ``proven(clip, looser, follower)`` is the memoized model-level
    restriction proof.  Only trusted outcomes take part:
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
      when its cost meets the bound.  The warm start carries the
      DRC verdict (``drc_clean``), so the router does not check it
      again; the result audit does, independently;
    - *incumbents*: the points of all those settled routings, cheapest
      first, for a cold HiGHS solve to meet its certified LP bound
      with (rows, bounds and integrality re-checked on its model).

    The baseline's edge is proven for every follower (its optimum is
    the starting bound); any other edge only where
    :func:`is_restriction` accepts it and its proof would change the
    outcome.  The seed rides on the job as a :class:`WarmStart`, and
    its provenance as ``warm_bound_from``/``warm_routing_from``.

    Every bound or inherited infeasibility needs a model-level
    :class:`~repro.analysis.semantics.restriction.RestrictionProof` of
    its edge; an edge the syntactic predicate accepts but the prover
    cannot certify is never warmed, and the sweep reports it in
    ``DeltaCostStudy.restriction_disagreements``.
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
            return replace(
                job, warm=WarmStart(infeasible=True), warm_bound_from=rule.name
            )

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
    routings = _settled_routings(trusted, follower)
    incumbents = tuple(routing.point for _, _, routing in routings if routing.point)
    with_bound = (
        replace(
            job,
            warm=WarmStart(lower_bound=bound, incumbents=incumbents),
            warm_bound_from=bound_from,
        )
        if bound_from or incumbents
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
    chosen = next(
        (
            (source, cost, routing)
            for source, cost, routing in routings
            if cost <= ceiling + _COST_TOL
            and not check_clip_routing(clip, follower, routing)
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
        warm=WarmStart(
            routing=routing,
            cost=cost,
            lower_bound=bound,
            incumbents=incumbents,
            drc_clean=True,
        ),
        warm_bound_from=bound_from,
        warm_routing_from=source,
    )


def _settled_routings(
    trusted: "list[tuple[RuleConfig, ClipRuleOutcome, ClipRouting | None]]",
    follower: RuleConfig,
) -> "list[tuple[str, float, ClipRouting]]":
    """The settled routings (optima and LIMIT incumbents) of ``trusted``
    on the follower's routing graph, as (source rule, cost, routing):
    one per source routing (a reused routing is its source's),
    cheapest first, ties in rule order."""
    found: dict[str, tuple[str, float, ClipRouting]] = {}
    for rule, outcome, routing in trusted:
        source = outcome.warm_routing_from or rule.name
        if (
            routing is not None
            and outcome.cost is not None
            and outcome.status in (RouteStatus.OPTIMAL, RouteStatus.LIMIT)
            and rule.allow_via_shapes == follower.allow_via_shapes
            and source not in found
        ):
            found[source] = (source, outcome.cost, routing)
    return sorted(found.values(), key=lambda item: item[1])


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
        raise ValueError("a sweep requires unique clip names")
    if len(set(rule_names)) != len(rule_names):
        raise ValueError("a sweep requires unique rule names")


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
