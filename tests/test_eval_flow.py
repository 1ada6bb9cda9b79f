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

from .sweep_oracle import cold_study


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


class TestBudgetedSweeps:
    """A sweep time budget through :func:`evaluate_clips`: the per-clip
    deadline shares and the Δcost report, sequential under process
    isolation, sequential with the default (inline) supervisor, and on
    two lease workers."""

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
                    [job.clip.name, job.rules.name, job.router.time_limit]
                ) + "\n")
            return original(self, job, fault, index)

        monkeypatch.setattr(SupervisedRunner, "run_one", run_one)

    def _check(self, study, clips, rules, log_path):
        import json

        from repro.exec import clip_deadlines

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
        # The budget is never nearly spent: every pair ran the exact
        # backend.
        assert {
            (o.backend, o.degraded)
            for rule in study.rule_names
            for o in study.outcomes[rule]
        } == {("highs", False)}

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
            EvalConfig(time_limit_per_clip=None, time_budget=self.BUDGET),
            supervisor=SupervisorConfig(isolation="process"),
        )
        self._check(study, clips, rules, log_path)

    def test_default_inline_supervisor(self, tmp_path, monkeypatch):
        clips, rules = self._population(), self._rules()
        log_path = tmp_path / "limits.jsonl"
        self._record_time_limits(monkeypatch, log_path)
        study = evaluate_clips(
            clips, rules,
            EvalConfig(time_limit_per_clip=None, time_budget=self.BUDGET),
        )
        self._check(study, clips, rules, log_path)

    def test_two_lease_workers(self, tmp_path, monkeypatch):
        clips, rules = self._population(), self._rules()
        log_path = tmp_path / "limits.jsonl"
        self._record_time_limits(monkeypatch, log_path)
        study = evaluate_clips(
            clips, rules,
            EvalConfig(time_limit_per_clip=None, n_procs=2,
                       time_budget=self.BUDGET),
            checkpoint_path=tmp_path / "dist.jsonl",
        )
        assert study.distributed_report is not None
        self._check(study, clips, rules, log_path)


class TestOnOutcome:
    """``on_outcome`` reports each pair a sweep journals exactly once:
    inline, on lease workers (also with one or both SIGKILLed, when the
    coordinator finishes the groups left inline), on a resume, and in
    the coordinator's closing pass."""

    def _clips(self):
        spec = SyntheticClipSpec(nx=5, ny=6, nz=3, n_nets=2, sinks_per_net=1)
        return [make_synthetic_clip(spec, seed=s) for s in range(4)]

    def _pairs(self, clips):
        from repro.eval import rules_for_technology

        return sorted(
            (clip.name, rule.name)
            for clip in clips
            for rule in rules_for_technology("N7-9T")
        )

    def _sweep(self, clips, path, n_procs=1, **kwargs):
        """The (clip, rule) pairs ``on_outcome`` saw, in report order."""
        from repro.eval import rules_for_technology

        seen = []
        evaluate_clips(
            clips, rules_for_technology("N7-9T"),
            EvalConfig(time_limit_per_clip=30.0, n_procs=n_procs),
            checkpoint_path=path,
            on_outcome=lambda o: seen.append((o.clip_name, o.rule_name)),
            **kwargs,
        )
        return seen

    @pytest.mark.parametrize(
        "n_procs, chaos_kills", [(1, 0), (2, 0), (2, 1), (2, 2)],
        ids=["inline", "lease-workers", "chaos-kill", "all-workers-killed"],
    )
    def test_every_pair_once(self, tmp_path, n_procs, chaos_kills):
        clips = self._clips()
        seen = self._sweep(
            clips, tmp_path / "sweep.jsonl", n_procs, chaos_kills=chaos_kills
        )
        assert sorted(seen) == self._pairs(clips)

    def test_resume_reports_only_the_missing_pairs(self, tmp_path):
        clips = self._clips()
        path = tmp_path / "sweep.jsonl"
        self._sweep(clips[:2], path)
        seen = self._sweep(clips, path, 2, resume=True)
        assert sorted(seen) == self._pairs(clips[2:])

    def test_closing_pass_reports_the_pairs_it_solves(
        self, tmp_path, monkeypatch
    ):
        import repro.exec.distributed as distributed
        from repro.exec import DistributedReport

        def no_workers(journal_path, keys, work, config, **_):
            return DistributedReport(config.n_procs, len(keys))

        # Workers that journal nothing leave every pair to the
        # coordinator's closing pass.
        monkeypatch.setattr(distributed, "run_distributed", no_workers)
        clips = self._clips()[:2]
        seen = self._sweep(clips, tmp_path / "sweep.jsonl", 2)
        assert sorted(seen) == self._pairs(clips)


class TestColumnarSweep:
    def test_all_optimal_study_builds_no_object_model(self):
        # Restriction proofs read the CSR rule delta and HiGHS takes
        # the CSR arrays; every ILP exists only as a CsrModel.
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
        from repro.router import OptRouter

        job = RouteJob(_via_pair_clip(), paper_rule(follower), OptRouter())
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
        assert rule8.warm.infeasible and rule8.warm_bound_from == "RULE3"
        # RULE6 does not restrict RULE3: it keeps only RULE1's bound.
        _, rule6 = self._warm("RULE6", settled, names, prover)
        assert not rule6.warm.infeasible
        assert (rule6.warm.lower_bound, rule6.warm_bound_from) == (8.0, "RULE1")
        assert ("RULE3", "RULE6") not in prover.calls
        # An edge the prover cannot certify transfers nothing.
        _, unproven = self._warm(
            "RULE8", settled, names, _Prover(refused={("RULE3", "RULE8")})
        )
        assert not unproven.warm.infeasible

    def test_no_lift_proof_when_the_baseline_bound_is_met(self):
        from repro.router import RouteStatus

        settled = {
            "RULE1": self._settled("RULE1", RouteStatus.OPTIMAL, 8.0, ADJACENT),
            "RULE6": self._settled("RULE6", RouteStatus.OPTIMAL, 8.0, APART),
        }
        prover = _Prover()
        _, job = self._warm("RULE9", settled, ("RULE1", "RULE6", "RULE9"), prover)
        assert job.warm.routing is APART
        assert (job.warm.cost, job.warm.lower_bound) == (8.0, 8.0)
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
        assert job.warm.routing is APART and job.warm.lower_bound == 8.0
        assert (job.warm_bound_from, job.warm_routing_from) == ("RULE6", "RULE6")
        assert prover.calls == [("RULE1", "RULE9"), ("RULE6", "RULE9")]
        # Without that proof the routing is not offered.
        _, refused = self._warm(
            "RULE9", settled, names, _Prover(refused={("RULE6", "RULE9")})
        )
        assert refused.warm.routing is None
        assert (refused.warm.lower_bound, refused.warm_bound_from) == (7.0, "RULE1")

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
        assert job.warm.routing is APART and job.warm_routing_from == "RULE5"
        # With only the failing routing settled, none is offered; the
        # baseline's bound still seeds the job.
        _, alone = self._warm(
            "RULE6", {"RULE1": settled["RULE1"]}, names, _Prover()
        )
        assert alone.warm.routing is None
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
            cold_study(clips, paper_rules(), EvalConfig()),
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


class TestUniqueNames:
    """A sweep keys its pairs by (clip name, rule name) on every path,
    journaled or not."""

    def test_two_clips_of_one_name_are_rejected_without_a_journal(self):
        # Swept together, these two different clips shared their warm
        # seeds and their outcome slots, and the study reported the
        # second clip's cost (21) for both (the first alone costs 18).
        import dataclasses

        spec = SyntheticClipSpec(nx=5, ny=5, nz=3, n_nets=2, sinks_per_net=1)
        first, second = (
            dataclasses.replace(make_synthetic_clip(spec, seed=s), name="x")
            for s in (1, 2)
        )
        assert first != second
        with pytest.raises(ValueError, match="unique clip names"):
            evaluate_clips(
                [first, second],
                [paper_rule("RULE1"), paper_rule("RULE6")],
                EvalConfig(time_limit_per_clip=30.0),
            )

    def test_duplicate_rule_names_are_rejected_without_a_journal(self):
        spec = SyntheticClipSpec(nx=5, ny=5, nz=3, n_nets=2, sinks_per_net=1)
        with pytest.raises(ValueError, match="unique rule names"):
            evaluate_clips(
                [make_synthetic_clip(spec, seed=1)],
                [paper_rule("RULE1"), paper_rule("RULE1")],
                EvalConfig(time_limit_per_clip=30.0),
            )


@pytest.fixture
def fresh_proofs():
    """An empty process-wide formulation cache (and with it, an empty
    restriction-proof memo) before and after the test."""
    from repro.router.formulation import formulation_cache

    formulation_cache().clear()
    yield
    formulation_cache().clear()


class TestProofMemo:
    """Restriction proofs are memoized per process on the clip's content,
    beside its base formulation: a second sweep over equal clips, or a
    clip that differs from a swept one only in name, proves nothing
    again, and still reports what the proofs said."""

    RULES = ("RULE1", "RULE3", "RULE6", "RULE9")

    @staticmethod
    def _clips():
        spec = SyntheticClipSpec(nx=5, ny=6, nz=3, n_nets=2, sinks_per_net=1,
                                 access_points_per_pin=2)
        return [make_synthetic_clip(spec, seed=s) for s in range(2)]

    @staticmethod
    def _counting_prover(monkeypatch, fail_edge=None):
        """Count ``prove_restriction`` calls; with ``fail_edge`` (looser,
        follower rule names), that edge's proof fails although the
        predicate accepts it."""
        import dataclasses

        from repro.analysis.semantics import restriction

        real = restriction.prove_restriction
        calls: list[tuple[str, str, str]] = []

        def prove(clip, base, other, **kwargs):
            calls.append((clip.name, base.name, other.name))
            proof = real(clip, base, other, **kwargs)
            if (base.name, other.name) == fail_edge:
                proof = dataclasses.replace(
                    proof, holds=False, failures=("injected failure",)
                )
            return proof

        monkeypatch.setattr(restriction, "prove_restriction", prove)
        return calls

    def test_second_sweep_over_equal_clips_proves_nothing(
        self, monkeypatch, fresh_proofs
    ):
        import pickle

        calls = self._counting_prover(monkeypatch)
        rules = [paper_rule(name) for name in self.RULES]
        config = EvalConfig(time_limit_per_clip=30.0)
        clips = self._clips()
        first = evaluate_clips(clips, rules, config)
        assert calls
        calls.clear()
        again = evaluate_clips(pickle.loads(pickle.dumps(clips)), rules, config)
        assert calls == []
        assert format_delta_cost_table(again) == format_delta_cost_table(first)
        assert [
            again.restriction_certified_count(rule) for rule in again.rule_names
        ] == [
            first.restriction_certified_count(rule) for rule in first.rule_names
        ]
        assert sum(
            first.restriction_certified_count(rule) for rule in first.rule_names
        ) > 0

    def test_a_different_clip_of_the_same_name_proves_again(
        self, monkeypatch, fresh_proofs
    ):
        import dataclasses

        calls = self._counting_prover(monkeypatch)
        rules = [paper_rule(name) for name in self.RULES]
        config = EvalConfig(time_limit_per_clip=30.0)
        first, second = self._clips()
        evaluate_clips([first], rules, config)
        calls.clear()
        evaluate_clips([dataclasses.replace(second, name=first.name)], rules, config)
        # Every follower's baseline edge is proven again, on this clip.
        assert {call[1:] for call in calls} >= {
            ("RULE1", name) for name in self.RULES[1:]
        }

    def test_every_sweep_reports_a_memoized_disagreement(
        self, monkeypatch, fresh_proofs
    ):
        import pickle

        calls = self._counting_prover(monkeypatch, fail_edge=("RULE1", "RULE6"))
        rules = [paper_rule(name) for name in self.RULES]
        config = EvalConfig(time_limit_per_clip=30.0)
        clips = self._clips()
        studies = []
        for sweep in range(2):
            calls.clear()
            studies.append(
                evaluate_clips(pickle.loads(pickle.dumps(clips)), rules, config)
            )
            failing = [call for call in calls if call[1:] == ("RULE1", "RULE6")]
            assert len(failing) == (len(clips) if sweep == 0 else 0)
        for study in studies:
            assert len(study.restriction_disagreements) == len(clips)
            assert all(
                "RULE1 -> RULE6" in message and "injected failure" in message
                for message in study.restriction_disagreements
            )
        assert (
            studies[0].restriction_disagreements
            == studies[1].restriction_disagreements
        )
        # The unproven edge warmed nothing, in either sweep.
        for study in studies:
            assert not any(
                o.warm_bound_from == "RULE1" for o in study.outcomes["RULE6"]
            )

    def test_clips_differing_only_in_name_share_their_proofs(
        self, monkeypatch, fresh_proofs
    ):
        import dataclasses

        calls = self._counting_prover(monkeypatch, fail_edge=("RULE1", "RULE6"))
        rules = [paper_rule(name) for name in self.RULES]
        clip = self._clips()[0]
        twins = [clip, dataclasses.replace(clip, name=f"{clip.name}_twin")]
        study = evaluate_clips(twins, rules, EvalConfig(time_limit_per_clip=30.0))
        # Each edge is proved once, over one of the twins.
        assert calls
        assert len({call[1:] for call in calls}) == len(calls)
        assert len({call[0] for call in calls}) == 1
        # The memoized failure is reported for each clip swept, by its
        # own name.
        assert sorted(
            message.split(":")[0] for message in study.restriction_disagreements
        ) == sorted(twin.name for twin in twins)

    def test_memo_does_not_need_the_base(self):
        import dataclasses

        from repro.router.formulation import FormulationCache, proof_edge

        cache = FormulationCache(max_entries=2)
        clip = self._clips()[0]
        rules = [paper_rule(name) for name in ("RULE1", "RULE3")]
        made = []

        def prove(clip, looser, follower, **kwargs):
            made.append((looser.name, follower.name))
            return "proof"

        def lookup(looser, follower, load=None):
            return cache.restriction_proof(
                clip, looser, follower, wire_cost=1.0, via_cost=4.0,
                prove=prove, load=load,
            )

        loaded = {proof_edge(rules[1], rules[0]): "persisted"}
        assert lookup(rules[1], rules[0], load=lambda: loaded) == ("persisted", False)
        assert lookup(*rules) == ("proof", True)
        # Another name for the same rule values reads the same proof.
        renamed = [dataclasses.replace(rule, name=f"x{rule.name}") for rule in rules]
        assert lookup(*renamed, load=lambda: {}) == ("proof", False)
        assert made == [("RULE1", "RULE3")]
        # No base was built, and evicting bases keeps the proofs.
        assert (cache.hits, cache.misses) == (0, 0)
        for seed in range(3):
            cache.base_for(make_synthetic_clip(self._spec(), seed=seed + 5))
        assert lookup(*rules) == ("proof", False)
        cache.clear()
        assert lookup(*rules) == ("proof", True)

    @staticmethod
    def _spec():
        return SyntheticClipSpec(nx=4, ny=4, nz=2, n_nets=1, sinks_per_net=1)


class TestProofSheets:
    """Restriction proofs persist in the solve cache, one sealed sheet
    per clip: a process with an empty memo (a fresh process) replays a
    sweep without proving or building anything, a failed proof still
    reports its disagreement, and a damaged or foreign sheet is proved
    again and rewritten."""

    @staticmethod
    def _sweep(tmp_path, clips, journal="1"):
        rules = [paper_rule(name) for name in TestProofMemo.RULES]
        config = EvalConfig(
            time_limit_per_clip=30.0, solve_cache_dir=str(tmp_path / "cache")
        )
        return evaluate_clips(
            clips, rules, config, checkpoint_path=tmp_path / f"{journal}.jsonl"
        )

    @staticmethod
    def _cache(tmp_path):
        from repro.ilp import SolveCache

        return SolveCache(tmp_path / "cache")

    @staticmethod
    def _count(monkeypatch, owner, name, wrap=None):
        calls = []
        real = owner.__dict__[name]
        fn = real.__func__ if wrap is not None else real

        def counted(*args, **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrap(counted) if wrap else counted)
        return calls

    def test_fresh_memo_replays_without_proving_or_building(
        self, tmp_path, monkeypatch, fresh_proofs
    ):
        import pickle

        import repro.router.optrouter as optrouter_mod
        from repro.ilp import SolveCache
        from repro.router.formulation import BaseFormulation, formulation_cache

        proofs = TestProofMemo._counting_prover(monkeypatch)
        writes = self._count(monkeypatch, SolveCache, "put_proofs")
        clips = TestProofMemo._clips()
        first = self._sweep(tmp_path, clips)
        assert proofs
        # One sheet per clip, each written once.
        assert len(writes) == len(clips)
        stats = self._cache(tmp_path).stats()
        assert stats["proof_sheets"] == len(clips)
        sheets = {p: p.read_bytes() for p in self._cache(tmp_path)._proof_files()}

        formulation_cache().clear()
        proofs.clear()
        writes.clear()
        builds = self._count(monkeypatch, BaseFormulation, "build", classmethod)
        solves = self._count(monkeypatch, optrouter_mod, "solve_with_highs")
        again = self._sweep(tmp_path, pickle.loads(pickle.dumps(clips)), "2")
        assert proofs == builds == solves == writes == []
        assert format_delta_cost_table(again) == format_delta_cost_table(first)
        assert [
            again.restriction_certified_count(rule) for rule in again.rule_names
        ] == [
            first.restriction_certified_count(rule) for rule in first.rule_names
        ]
        assert self._cache(tmp_path).stats() == stats
        assert {
            p: p.read_bytes() for p in self._cache(tmp_path)._proof_files()
        } == sheets

    def test_persisted_failed_proof_reports_its_disagreement(
        self, tmp_path, monkeypatch, fresh_proofs
    ):
        from repro.router.formulation import formulation_cache

        proofs = TestProofMemo._counting_prover(
            monkeypatch, fail_edge=("RULE1", "RULE6")
        )
        clips = TestProofMemo._clips()
        first = self._sweep(tmp_path, clips)
        formulation_cache().clear()
        proofs.clear()
        again = self._sweep(tmp_path, clips, "2")
        assert proofs == []
        assert len(again.restriction_disagreements) == len(clips)
        assert again.restriction_disagreements == first.restriction_disagreements
        assert all(
            "RULE1 -> RULE6" in message and "injected failure" in message
            for message in again.restriction_disagreements
        )
        assert not any(
            o.warm_bound_from == "RULE1" for o in again.outcomes["RULE6"]
        )

    def test_sheet_of_another_program_is_never_read(
        self, tmp_path, monkeypatch, fresh_proofs
    ):
        import repro.eval.flow as flow_mod
        from repro.router.formulation import formulation_cache

        proofs = TestProofMemo._counting_prover(monkeypatch)
        clips = TestProofMemo._clips()
        with monkeypatch.context() as patch:
            patch.setattr(flow_mod, "program_digest", lambda: "0" * 64)
            first = self._sweep(tmp_path, clips)
        n_proofs = len(proofs)
        formulation_cache().clear()
        proofs.clear()
        again = self._sweep(tmp_path, clips, "2")
        assert len(proofs) == n_proofs
        assert format_delta_cost_table(again) == format_delta_cost_table(first)
        assert self._cache(tmp_path).stats()["proof_sheets"] == 2 * len(clips)

    @pytest.mark.parametrize("damage", ["bit-flip", "truncated", "other-version"])
    def test_damaged_sheet_is_quarantined_proved_and_rewritten(
        self, tmp_path, monkeypatch, fresh_proofs, damage
    ):
        import json

        from repro.exec import flip_bit
        from repro.router.formulation import formulation_cache
        from repro.util.integrity import seal_record

        proofs = TestProofMemo._counting_prover(monkeypatch)
        clips = TestProofMemo._clips()
        first = self._sweep(tmp_path, clips)
        sheet = self._cache(tmp_path)._proof_files()[0]
        good = sheet.read_bytes()
        if damage == "bit-flip":
            flip_bit(sheet, byte_index=len(good) // 2)
        elif damage == "truncated":
            sheet.write_bytes(good[: len(good) // 2])
        else:
            payload = json.loads(good)
            payload["v"] += 1
            sheet.write_text(json.dumps(seal_record(payload)))
        formulation_cache().clear()
        proofs.clear()
        again = self._sweep(tmp_path, clips, "2")
        # Only the damaged sheet's clip is proved again.
        assert proofs and len({clip for clip, _, _ in proofs}) == 1
        assert format_delta_cost_table(again) == format_delta_cost_table(first)
        stats = self._cache(tmp_path).stats()
        assert (stats["quarantined"], stats["proof_sheets"]) == (1, len(clips))
        assert sheet.read_bytes() == good


class TestDrcVerdict:
    """``warm_job``'s DRC verdict on the routing it offers rides with
    the warm start, so the router does not check that routing again,
    inline or in an attempt process; the audit still checks it."""

    @pytest.mark.parametrize("isolation", ["inline", "process"])
    def test_the_router_repeats_no_sweep_check(
        self, tmp_path, monkeypatch, isolation
    ):
        import collections
        import sys

        import repro.drc.checker as checker
        from repro.exec import SupervisorConfig

        log = tmp_path / "callers"
        real = checker.check_clip_routing

        def logged(*args, **kwargs):
            # Appended by whichever process checks (the attempt process
            # inherits this wrapper through fork): the calling function,
            # past generator expressions.
            frame = sys._getframe(1)
            while frame.f_code.co_name.startswith("<"):
                frame = frame.f_back
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(frame.f_code.co_name + "\n")
            return real(*args, **kwargs)

        monkeypatch.setattr(checker, "check_clip_routing", logged)
        study = evaluate_clips(
            TestProofMemo._clips(),
            [paper_rule(name) for name in TestProofMemo.RULES],
            EvalConfig(time_limit_per_clip=30.0),
            supervisor=SupervisorConfig(isolation=isolation),
        )
        reused = sum(
            o.warm_used == "reused-optimal"
            for rule in study.rule_names
            for o in study.outcomes[rule]
        )
        assert reused > 0
        callers = collections.Counter(log.read_text().split())
        assert set(callers) == {"warm_job", "_certify_geometry"}
        assert callers["_certify_geometry"] == len(study.clip_names) * len(
            study.rule_names
        )

    def test_sweep_study_checks_130_routings(self, monkeypatch):
        import repro.drc.checker as checker
        from repro.clips import select_top_clips
        from repro.eval import rules_for_technology

        from .test_router_formulation import POOL_SPEC

        clips = select_top_clips(
            [make_synthetic_clip(POOL_SPEC, seed=s) for s in range(7000, 7040)], 6
        )
        calls = []
        real = checker.check_clip_routing

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(checker, "check_clip_routing", counted)
        study = evaluate_clips(clips, rules_for_technology("N28-12T"), EvalConfig())
        reused = sum(
            o.warm_used == "reused-optimal"
            for rule in study.rule_names
            for o in study.outcomes[rule]
        )
        assert reused == 57
        # 64 while warm_job picks its candidates and 66 in the audit;
        # 57 more in the router before its checks rode with the warm
        # start.
        assert len(calls) == 130
