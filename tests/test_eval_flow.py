"""Tests for the Δcost evaluation flow."""

import pytest

from repro.clips import Clip, ClipNet, ClipPin, SyntheticClipSpec, make_synthetic_clip
from repro.clips.clip import paper_directions
from repro.eval import (
    INFEASIBLE_DELTA,
    EvalConfig,
    evaluate_clips,
    format_delta_cost_table,
    format_rule_table,
    paper_rule,
    paper_rules,
    validate_against_baseline,
)
from repro.eval.report import format_sorted_traces
from repro.router import RuleConfig, ViaRestriction


@pytest.fixture(scope="module")
def study():
    clips = [
        make_synthetic_clip(
            SyntheticClipSpec(nx=6, ny=7, nz=3, n_nets=3, sinks_per_net=1,
                              access_points_per_pin=2, pin_spacing_cols=1),
            seed=s,
        )
        for s in range(5)
    ]
    rules = [
        paper_rule("RULE1"),
        RuleConfig(name="RULE6", via_restriction=ViaRestriction.ORTHOGONAL),
        RuleConfig(name="RULE9", via_restriction=ViaRestriction.FULL),
    ]
    return evaluate_clips(clips, rules, EvalConfig(time_limit_per_clip=30.0))


class TestDeltaCostStudy:
    def test_outcome_grid_complete(self, study):
        for rule_name in study.rule_names:
            assert len(study.outcomes[rule_name]) == len(study.clip_names)

    def test_deltas_nonnegative(self, study):
        # Adding constraints can never reduce the optimal cost.
        for rule_name in study.rule_names[1:]:
            for delta in study.delta_costs(rule_name):
                assert delta >= 0

    def test_baseline_deltas_zero(self, study):
        assert all(d == 0 for d in study.delta_costs("RULE1"))

    def test_sorted_trace_ascending(self, study):
        trace = study.sorted_delta_costs("RULE9")
        assert trace == sorted(trace)

    def test_infeasible_convention(self, study):
        for rule_name in study.rule_names:
            n_inf = study.infeasible_count(rule_name)
            trace = study.sorted_delta_costs(rule_name)
            assert sum(1 for d in trace if d >= INFEASIBLE_DELTA) == n_inf

    def test_zero_fraction_bounds(self, study):
        for rule_name in study.rule_names:
            assert 0.0 <= study.zero_delta_fraction(rule_name) <= 1.0

    def test_requires_rules(self):
        with pytest.raises(ValueError):
            evaluate_clips([], [])


class TestReports:
    def test_rule_table_renders(self):
        text = format_rule_table([paper_rule("RULE1"), paper_rule("RULE8")])
        assert "RULE8" in text and "SADP >= M3" in text

    def test_delta_table_renders(self, study):
        text = format_delta_cost_table(study, title="demo")
        assert "RULE6" in text
        assert "infeasible" in text

    def test_traces_render(self, study):
        text = format_sorted_traces(study)
        assert "RULE1" in text and "legend" in text


def _cut_saturated_clip():
    """Two nets forced through one 2x2 via window: certified
    infeasible under full via-adjacency blocking, feasible under
    RULE1."""
    def net(name, *sets):
        return ClipNet(name, tuple(ClipPin(access=frozenset(v)) for v in sets))

    return Clip(
        name="zcut", nx=2, ny=2, nz=2, horizontal=paper_directions(2),
        nets=(
            net("a", [(0, 0, 0)], [(0, 1, 1)]),
            net("b", [(1, 0, 0)], [(1, 1, 1)]),
        ),
    )


class TestStaticAnalysisIntegration:
    @pytest.fixture(scope="class")
    def clip_set(self):
        synthetic = [
            make_synthetic_clip(
                SyntheticClipSpec(nx=5, ny=6, nz=3, n_nets=2, sinks_per_net=1,
                                  access_points_per_pin=2, pin_spacing_cols=1),
                seed=s,
            )
            for s in range(3)
        ]
        return synthetic + [_cut_saturated_clip()]

    @pytest.fixture(scope="class")
    def rules(self):
        return [
            paper_rule("RULE1"),
            RuleConfig(name="RULE9", via_restriction=ViaRestriction.FULL),
        ]

    def test_certified_skip_reported(self, clip_set, rules):
        study = evaluate_clips(
            clip_set, rules, EvalConfig(time_limit_per_clip=30.0)
        )
        assert study.certified_skip_count("RULE9") >= 1
        # Certified pairs count as ordinary infeasibilities downstream.
        assert (
            study.infeasible_count("RULE9")
            >= study.certified_skip_count("RULE9")
        )

    def test_certified_deltas_byte_identical(self, clip_set, rules):
        """Short-circuiting certified pairs must not change any Δcost."""
        with_cert = evaluate_clips(
            clip_set, rules, EvalConfig(time_limit_per_clip=30.0)
        )
        without = evaluate_clips(
            clip_set, rules,
            EvalConfig(time_limit_per_clip=30.0, certify=False),
        )
        assert without.certified_skip_count("RULE9") == 0
        for rule_name in with_cert.rule_names:
            assert (
                repr(with_cert.delta_costs(rule_name))
                == repr(without.delta_costs(rule_name))
            )
            assert with_cert.infeasible_count(
                rule_name
            ) == without.infeasible_count(rule_name)


class TestValidation:
    def test_footnote6_property(self):
        clips = [
            make_synthetic_clip(
                SyntheticClipSpec(nx=6, ny=7, nz=3, n_nets=3, sinks_per_net=1),
                seed=s,
            )
            for s in range(4)
        ]
        records = validate_against_baseline(clips)
        comparable = [r for r in records if r.comparable]
        assert comparable
        for record in comparable:
            assert record.delta <= 1e-9

    def test_delta_requires_comparable(self):
        from repro.eval import ValidationRecord

        record = ValidationRecord("c", None, 5.0)
        with pytest.raises(ValueError):
            record.delta


class TestDistributedEvaluation:
    """The tentpole path: lease-coordinated multi-process sweeps."""

    def _population(self):
        return [
            make_synthetic_clip(
                SyntheticClipSpec(nx=5, ny=6, nz=3, n_nets=2,
                                  sinks_per_net=1,
                                  access_points_per_pin=2,
                                  pin_spacing_cols=1),
                seed=s,
            )
            for s in range(4)
        ]

    def _rules(self):
        return [
            paper_rule("RULE1"),
            RuleConfig(name="RULE6", via_restriction=ViaRestriction.ORTHOGONAL),
        ]

    def _snapshot(self, study):
        return {
            rule: [
                (o.clip_name, o.status, o.cost)
                for o in study.outcomes[rule]
            ]
            for rule in study.rule_names
        }

    def test_distributed_matches_sequential_byte_for_byte(self, tmp_path):
        clips, rules = self._population(), self._rules()
        sequential = evaluate_clips(
            clips, rules, EvalConfig(time_limit_per_clip=30.0),
            checkpoint_path=tmp_path / "seq.jsonl",
        )
        distributed = evaluate_clips(
            clips, rules,
            EvalConfig(time_limit_per_clip=30.0, n_procs=2),
            checkpoint_path=tmp_path / "dist.jsonl",
        )
        assert self._snapshot(distributed) == self._snapshot(sequential)
        for rule in sequential.rule_names:
            assert distributed.delta_costs(rule) == sequential.delta_costs(rule)
        report = distributed.distributed_report
        assert report is not None and report.n_procs == 2
        from repro.eval import format_delta_cost_table

        assert format_delta_cost_table(distributed) == format_delta_cost_table(
            sequential
        )

    def test_distributed_requires_checkpoint(self):
        with pytest.raises(ValueError):
            evaluate_clips(
                self._population(), self._rules(),
                EvalConfig(time_limit_per_clip=30.0, n_procs=2),
            )

    def test_chaos_kill_loses_no_clips(self, tmp_path):
        clips, rules = self._population(), self._rules()
        sequential = evaluate_clips(
            clips, rules, EvalConfig(time_limit_per_clip=30.0),
            checkpoint_path=tmp_path / "seq.jsonl",
        )
        chaotic = evaluate_clips(
            clips, rules,
            EvalConfig(time_limit_per_clip=30.0, n_procs=2),
            checkpoint_path=tmp_path / "chaos.jsonl",
            chaos_kills=1,
        )
        assert self._snapshot(chaotic) == self._snapshot(sequential)
        report = chaotic.distributed_report
        assert report is not None
        # Every pair present exactly once after dedupe, killed or not.
        from repro.exec import CheckpointJournal, dedupe_results

        records = dedupe_results(
            CheckpointJournal(tmp_path / "chaos.jsonl").read()
        )
        pairs = {(r["clip"], r["rule"]) for r in records}
        assert pairs == {
            (c.name, r.name) for c in clips for r in rules
        }

    def test_closing_pass_keeps_the_sweep_budget(self, tmp_path, monkeypatch):
        """The coordinator's closing resume pass must draw on the budget
        the workers drained, not a fresh one: a pair it re-solves gets
        the remainder, never the full budget again."""
        from repro.exec import SupervisedRunner

        handed: list[tuple[object, float]] = []
        original_init = SupervisedRunner.__init__

        def init(self, config=None, budget=None):
            original_init(self, config, budget=budget)
            if budget is not None:
                handed.append((budget, budget.elapsed()))

        # Patched in the coordinator only; forked workers record into
        # their own copies of the list.
        monkeypatch.setattr(SupervisedRunner, "__init__", init)
        study = evaluate_clips(
            self._population(), self._rules(),
            EvalConfig(time_limit_per_clip=30.0, n_procs=2,
                       time_budget=600.0),
            checkpoint_path=tmp_path / "dist.jsonl",
        )
        report = study.distributed_report
        assert report is not None and report.elapsed > 0
        assert handed, "the closing pass built no budgeted runner"
        budget, elapsed_at_close = handed[-1]
        assert budget.total == 600.0
        assert elapsed_at_close >= report.elapsed


class TestRacedBudgetedSweeps:
    """Racing and a sweep time budget through :func:`evaluate_clips`:
    the race set, the per-clip deadline shares and the Δcost report,
    sequential under process isolation, sequential with the default
    (inline) supervisor, and on two lease workers."""

    BUDGET = 600.0

    def _population(self):
        return TestDistributedEvaluation()._population()

    def _rules(self):
        return TestDistributedEvaluation()._rules()

    def _record_time_limits(self, monkeypatch, log_path):
        """Log every job's time limit as ``run_one`` receives it (before
        the budget clamp).  Patched before any worker forks, so lease
        workers inherit it and append to the same file."""
        import json

        from repro.exec import SupervisedRunner

        original = SupervisedRunner.run_one

        def run_one(self, job, fault=None, index=0):
            with open(log_path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(
                    [job.clip.name, job.rules.name, job.time_limit]
                ) + "\n")
            return original(self, job, fault, index)

        monkeypatch.setattr(SupervisedRunner, "run_one", run_one)

    def _check(self, study, clips, rules, log_path):
        import json

        from repro.exec import clip_deadlines, predicted_hard

        hard = predicted_hard(clips)
        raced = {
            (o.clip_name, o.rule_name)
            for rule in study.rule_names
            for o in study.outcomes[rule]
            if any(
                str(entry.get("backend", "")).startswith("race:")
                for entry in o.attempt_log
            )
        }
        assert raced == {(c, r.name) for c in hard for r in rules}

        shares = clip_deadlines(clips, self.BUDGET)
        logged = [
            json.loads(line)
            for line in log_path.read_text(encoding="utf-8").splitlines()
        ]
        assert {(c, r) for c, r, _ in logged} == {
            (c.name, r.name) for c in clips for r in rules
        }
        for clip_name, _, time_limit in logged:
            assert time_limit == pytest.approx(
                shares[clip_name] / len(rules)
            )

        reference = evaluate_clips(
            clips, rules, EvalConfig(time_limit_per_clip=None)
        )
        assert format_delta_cost_table(study) == format_delta_cost_table(
            reference
        )

    def test_sequential_process_isolation(self, tmp_path, monkeypatch):
        from repro.exec import SupervisorConfig

        clips, rules = self._population(), self._rules()
        log_path = tmp_path / "limits.jsonl"
        self._record_time_limits(monkeypatch, log_path)
        study = evaluate_clips(
            clips, rules,
            EvalConfig(time_limit_per_clip=None, race=True,
                       time_budget=self.BUDGET),
            supervisor=SupervisorConfig(n_workers=1, isolation="process"),
        )
        self._check(study, clips, rules, log_path)

    def test_default_supervisor_races(self, tmp_path, monkeypatch):
        # No ``supervisor=``: the default single inline worker must
        # still race the predicted-hard clips.
        clips, rules = self._population(), self._rules()
        log_path = tmp_path / "limits.jsonl"
        self._record_time_limits(monkeypatch, log_path)
        study = evaluate_clips(
            clips, rules,
            EvalConfig(time_limit_per_clip=None, race=True,
                       time_budget=self.BUDGET),
        )
        self._check(study, clips, rules, log_path)

    def test_two_lease_workers(self, tmp_path, monkeypatch):
        clips, rules = self._population(), self._rules()
        log_path = tmp_path / "limits.jsonl"
        self._record_time_limits(monkeypatch, log_path)
        study = evaluate_clips(
            clips, rules,
            EvalConfig(time_limit_per_clip=None, n_procs=2, race=True,
                       time_budget=self.BUDGET),
            checkpoint_path=tmp_path / "dist.jsonl",
        )
        assert study.distributed_report is not None
        self._check(study, clips, rules, log_path)


class TestColumnarSweep:
    def test_all_optimal_study_builds_no_object_model(self, monkeypatch):
        # Restriction proofs read the CSR rule delta and HiGHS takes
        # the CSR arrays.  With every pair OPTIMAL no audit re-solves
        # on B&B (which still converts), so a default incremental sweep
        # never materializes an object Model.
        from repro.ilp.csr import CsrModel

        def to_model(self):
            raise AssertionError("the sweep built an object Model")

        monkeypatch.setattr(CsrModel, "to_model", to_model)
        spec = SyntheticClipSpec(nx=5, ny=6, nz=3, n_nets=2, sinks_per_net=1,
                                 access_points_per_pin=2)
        clips = [make_synthetic_clip(spec, seed=s) for s in range(2)]
        study = evaluate_clips(
            clips, paper_rules(), EvalConfig(time_limit_per_clip=30.0)
        )
        for rule in study.rule_names:
            assert all(o.feasible for o in study.outcomes[rule]), rule
        assert sum(
            study.restriction_certified_count(rule) for rule in study.rule_names
        ) == 20


class TestLatticeOrder:
    """Each clip's rules run baseline first, then the lattice top, then
    the rest by how many rules each restricts, fewest first."""

    def _order(self, rules):
        from repro.eval.flow import _plan_sweep

        clips = [
            make_synthetic_clip(
                SyntheticClipSpec(nx=4, ny=5, nz=3, n_nets=2, sinks_per_net=1),
                seed=s,
            )
            for s in range(2)
        ]
        plan = _plan_sweep(clips, rules, EvalConfig())
        orders = [[plan.pairs[i][1].name for i in group] for group in plan.groups]
        assert orders[0] == orders[1]
        return orders[0]

    def test_table3_order(self):
        assert self._order(paper_rules()) == [
            "RULE1", "RULE10", "RULE5", "RULE6", "RULE4", "RULE9",
            "RULE3", "RULE2", "RULE8", "RULE7", "RULE11",
        ]

    def test_n7_order_starts_with_its_top(self):
        from repro.eval import rules_for_technology

        assert self._order(rules_for_technology("N7-9T"))[:2] == [
            "RULE1", "RULE8",
        ]

    def test_rule_set_without_top_keeps_the_baseline_first(self):
        # RULE2 restricts RULE4 but neither restricts RULE6: no top.
        rules = [paper_rule(name) for name in ("RULE4", "RULE2", "RULE6")]
        assert self._order(rules) == ["RULE4", "RULE6", "RULE2"]


def _via_pair_clip():
    """Two one-via nets side by side: net b may drop its via next to
    net a's (``ADJACENT``, which orthogonal via blocking forbids) or
    one site further (``APART``, legal under every rule).  Both cost
    two vias."""
    def net(name, *sets):
        return ClipNet(name, tuple(ClipPin(access=frozenset(v)) for v in sets))

    return Clip(
        name="zvias", nx=3, ny=1, nz=2, horizontal=paper_directions(2),
        nets=(
            net("a", [(0, 0, 0)], [(0, 0, 1)]),
            net("b", [(1, 0, 0), (2, 0, 0)], [(1, 0, 1), (2, 0, 1)]),
        ),
    )


def _routing(b_via):
    from repro.router.solution import ClipRouting, NetSolution

    return ClipRouting(
        nets=[
            NetSolution("a", vias=[(0, 0, 0)]),
            NetSolution("b", vias=[b_via]),
        ],
        cost=8.0,
    )


ADJACENT = _routing((1, 0, 0))
APART = _routing((2, 0, 0))


class _Prover:
    """Stand-in for the sweep's memoized restriction prover: records
    every edge asked about and proves all but ``refused``."""

    def __init__(self, refused=()):
        self.calls = []
        self.refused = set(refused)

    def __call__(self, clip, looser, follower):
        self.calls.append((looser.name, follower.name))
        return (looser.name, follower.name) not in self.refused


class TestWarmJob:
    """:func:`warm_job` on hand-built settled outcomes: no solver runs."""

    def _settled(self, rule, status, cost=None, routing=None, **flags):
        from repro.eval import ClipRuleOutcome

        outcome = ClipRuleOutcome(
            clip_name="zvias", rule_name=rule, status=status, cost=cost,
            wirelength=0, n_vias=2 if cost is not None else 0,
            solve_seconds=0.0, **flags,
        )
        return outcome, routing

    def _warm(self, follower, settled, names, prover):
        from repro.eval.flow import warm_job
        from repro.exec import RouteJob

        job = RouteJob(clip=_via_pair_clip(), rules=paper_rule(follower))
        rules = [paper_rule(name) for name in names]
        return job, warm_job(job, settled, rules, prover)

    def test_infeasibility_follows_proven_edges_only(self):
        from repro.router import RouteStatus

        names = ("RULE1", "RULE3", "RULE6", "RULE8")
        settled = {
            "RULE1": self._settled("RULE1", RouteStatus.OPTIMAL, 8.0),
            "RULE3": self._settled("RULE3", RouteStatus.INFEASIBLE),
        }
        prover = _Prover()
        _, rule8 = self._warm("RULE8", settled, names, prover)
        assert rule8.warm_infeasible and rule8.warm_bound_from == "RULE3"
        # RULE6 does not restrict RULE3: it keeps only RULE1's bound.
        _, rule6 = self._warm("RULE6", settled, names, prover)
        assert not rule6.warm_infeasible
        assert (rule6.warm_lower_bound, rule6.warm_bound_from) == (8.0, "RULE1")
        assert ("RULE3", "RULE6") not in prover.calls
        # An edge the prover cannot certify transfers nothing.
        _, unproven = self._warm(
            "RULE8", settled, names, _Prover(refused={("RULE3", "RULE8")})
        )
        assert not unproven.warm_infeasible

    def test_no_lift_proof_when_the_baseline_bound_is_met(self):
        from repro.router import RouteStatus

        settled = {
            "RULE1": self._settled("RULE1", RouteStatus.OPTIMAL, 8.0, ADJACENT),
            "RULE6": self._settled("RULE6", RouteStatus.OPTIMAL, 8.0, APART),
        }
        prover = _Prover()
        _, job = self._warm("RULE9", settled, ("RULE1", "RULE6", "RULE9"), prover)
        assert job.warm_routing is APART
        assert (job.warm_cost, job.warm_lower_bound) == (8.0, 8.0)
        assert (job.warm_bound_from, job.warm_routing_from) == ("RULE1", "RULE6")
        # RULE6 -> RULE9 could lift the bound, but nothing needs it.
        assert prover.calls == [("RULE1", "RULE9")]

    def test_a_dearer_clean_routing_lifts_the_bound_by_one_proof(self):
        from repro.router import RouteStatus

        settled = {
            "RULE1": self._settled("RULE1", RouteStatus.OPTIMAL, 7.0),
            "RULE6": self._settled("RULE6", RouteStatus.OPTIMAL, 8.0, APART),
        }
        prover = _Prover()
        names = ("RULE1", "RULE6", "RULE9")
        _, job = self._warm("RULE9", settled, names, prover)
        assert job.warm_routing is APART and job.warm_lower_bound == 8.0
        assert (job.warm_bound_from, job.warm_routing_from) == ("RULE6", "RULE6")
        assert prover.calls == [("RULE1", "RULE9"), ("RULE6", "RULE9")]
        # Without that proof the routing is not offered.
        _, refused = self._warm(
            "RULE9", settled, names, _Prover(refused={("RULE6", "RULE9")})
        )
        assert refused.warm_routing is None
        assert (refused.warm_lower_bound, refused.warm_bound_from) == (7.0, "RULE1")

    def test_degraded_or_quarantined_outcomes_seed_nothing(self):
        from repro.router import RouteStatus

        names = ("RULE1", "RULE6", "RULE9")
        untrusted = [
            {
                "RULE1": self._settled(
                    "RULE1", RouteStatus.OPTIMAL, 8.0, APART, degraded=True
                ),
                "RULE6": self._settled(
                    "RULE6", RouteStatus.OPTIMAL, 8.0, APART, quarantined=True
                ),
            },
            {
                "RULE6": self._settled(
                    "RULE6", RouteStatus.INFEASIBLE, quarantined=True
                ),
            },
        ]
        for settled in untrusted:
            prover = _Prover()
            job, warmed = self._warm("RULE9", settled, names, prover)
            assert warmed == job
            assert prover.calls == []

    def test_a_routing_failing_the_followers_drc_is_never_chosen(self):
        from repro.router import RouteStatus

        names = ("RULE1", "RULE5", "RULE6")
        settled = {
            "RULE1": self._settled("RULE1", RouteStatus.OPTIMAL, 8.0, ADJACENT),
            "RULE5": self._settled("RULE5", RouteStatus.OPTIMAL, 8.0, APART),
        }
        _, job = self._warm("RULE6", settled, names, _Prover())
        assert job.warm_routing is APART and job.warm_routing_from == "RULE5"
        # With only the failing routing settled, none is offered; the
        # baseline's bound still seeds the job.
        _, alone = self._warm(
            "RULE6", {"RULE1": settled["RULE1"]}, names, _Prover()
        )
        assert alone.warm_routing is None
        assert alone.warm_bound_from == "RULE1"


class TestLatticeSweep:
    """The two sweep-benchmark clips whose follower rules need cold
    solves under the star schedule, swept over the lattice."""

    @pytest.fixture(scope="class")
    def studies(self):
        spec = SyntheticClipSpec(nx=6, ny=6, nz=3, n_nets=3, sinks_per_net=1,
                                 access_points_per_pin=3)
        clips = [make_synthetic_clip(spec, seed=s) for s in (7003, 7034)]
        return (
            evaluate_clips(clips, paper_rules(), EvalConfig()),
            evaluate_clips(clips, paper_rules(), EvalConfig(incremental=False)),
        )

    def test_rule_major_results_in_at_most_six_cold_solves(self, studies):
        lattice, rule_major = studies
        assert format_delta_cost_table(lattice) == format_delta_cost_table(
            rule_major
        )
        for rule in lattice.rule_names:
            assert [(o.status, o.cost) for o in lattice.outcomes[rule]] == [
                (o.status, o.cost) for o in rule_major.outcomes[rule]
            ]
        # The star schedule from RULE1 makes 15, rule-major order 22.
        cold = [
            (o.clip_name, o.rule_name)
            for rule in lattice.rule_names
            for o in lattice.outcomes[rule]
            if not (o.warm_used or o.cache_hit or o.certified)
        ]
        assert len(cold) <= 6, cold

    def test_lifted_bounds_come_from_certified_settled_rules(self, studies):
        from repro.router import RouteStatus

        lattice, _ = studies
        baseline = {o.clip_name: o.cost for o in lattice.outcomes["RULE1"]}
        pairs = {
            (o.clip_name, o.rule_name): o
            for rule in lattice.rule_names
            for o in lattice.outcomes[rule]
        }
        lifted = [
            o
            for o in pairs.values()
            if o.warm_used == "reused-optimal" and o.cost > baseline[o.clip_name]
        ]
        assert lifted
        for outcome in lifted:
            assert outcome.restriction_certified
            source = pairs[(outcome.clip_name, outcome.warm_bound_from)]
            assert source.rule_name != outcome.rule_name
            assert source.status is RouteStatus.OPTIMAL
            assert source.cost == outcome.cost
