"""Chaos-audited evaluation: injected lies and artifact corruption
must be detected, quarantined, and healed, with the final Δcost table
byte-identical to a clean run's.
"""

import json

from repro.clips import SyntheticClipSpec, make_synthetic_clip
from repro.eval import (
    EvalConfig,
    evaluate_clips,
    format_audit_table,
    format_delta_cost_table,
    paper_rules,
)
from repro.exec import (
    CheckpointJournal,
    FaultKind,
    FaultPlan,
    FaultSpec,
    flip_bit,
)
from repro.ilp.solve_cache import SolveCache
from repro.router import OptRouter, RouteStatus


def clips(n=2):
    return [
        make_synthetic_clip(
            SyntheticClipSpec(
                nx=5, ny=6, nz=3, n_nets=2, sinks_per_net=1,
                access_points_per_pin=2,
            ),
            seed=s,
        )
        for s in range(n)
    ]


CONFIG = EvalConfig(time_limit_per_clip=30.0)


class TestCleanSweepCertification:
    def test_full_rule_sweep_every_optimal_is_certified(self):
        """The acceptance bar: a full RULE1..RULE11 sweep in which
        every OPTIMAL result carries a passing certificate and a tight
        dual bound."""
        study = evaluate_clips(clips(), paper_rules(), CONFIG)
        seen_optimal = 0
        for rule_name in study.rule_names:
            for outcome in study.outcomes[rule_name]:
                assert outcome.audited, (rule_name, outcome.clip_name)
                assert outcome.audit_ok, (rule_name, outcome.clip_name)
                assert not outcome.quarantined
                if outcome.status is RouteStatus.OPTIMAL:
                    seen_optimal += 1
                    assert outcome.bound is not None
                    assert abs(outcome.bound - outcome.cost) <= 1e-6
                    assert outcome.gap == 0.0
        assert seen_optimal > 0
        table = format_audit_table(study)
        assert "unhealed" in table

    def test_audit_off_skips_certification(self):
        study = evaluate_clips(
            clips(1), paper_rules()[:2],
            EvalConfig(time_limit_per_clip=30.0, audit=False),
        )
        for rule_name in study.rule_names:
            for outcome in study.outcomes[rule_name]:
                assert not outcome.audited
                assert outcome.audit_ok is None


class TestChaosSweep:
    def test_injected_lies_are_quarantined_healed_and_invisible(self):
        population = clips()
        rule_set = paper_rules()[:4]
        clean = evaluate_clips(population, rule_set, CONFIG)
        clean_table = format_delta_cost_table(clean, title="chaos")

        # One lie per kind, including one on the warm-start *baseline*:
        # the audit must catch it before any follower rule is seeded,
        # so only its healed replacement warms the clip's other rules.
        plan = FaultPlan(by_key={
            (population[0].name, "RULE1"):
                FaultSpec(kind=FaultKind.WRONG_OBJECTIVE),
            (population[1].name, "RULE2"):
                FaultSpec(kind=FaultKind.WRONG_STATUS),
        })
        chaos = evaluate_clips(population, rule_set, CONFIG, fault_plan=plan)

        quarantined = sum(
            chaos.quarantined_count(r) for r in chaos.rule_names
        )
        healed = sum(chaos.healed_count(r) for r in chaos.rule_names)
        unhealed = sum(chaos.unhealed_count(r) for r in chaos.rule_names)
        assert quarantined >= 2  # both direct lies caught
        assert healed == quarantined
        assert unhealed == 0
        # The whole point: the published numbers are unaffected.
        assert format_delta_cost_table(chaos, title="chaos") == clean_table

    def test_quarantined_result_seeds_no_follower(self):
        """Followers are warmed from what the audit kept: a lying
        baseline is quarantined and healed before any follower reads
        it, so the lie stays confined to its own pair."""
        population = clips()
        plan = FaultPlan(by_key={
            (population[0].name, "RULE1"):
                FaultSpec(kind=FaultKind.WRONG_OBJECTIVE),
        })
        chaos = evaluate_clips(
            population, paper_rules()[:4], CONFIG, fault_plan=plan
        )
        quarantined = [
            (o.clip_name, o.rule_name)
            for rule in chaos.rule_names
            for o in chaos.outcomes[rule]
            if o.quarantined
        ]
        assert quarantined == [(population[0].name, "RULE1")]
        assert chaos.healed_count("RULE1") == 1

    def test_wrong_objective_alone_is_caught_without_cross_check(self):
        """A shifted objective disagrees with its own geometry and
        bound -- the solver-free certificate suffices."""
        population = clips(1)
        rule_set = paper_rules()[:2]
        plan = FaultPlan(by_key={
            (population[0].name, "RULE2"):
                FaultSpec(kind=FaultKind.WRONG_OBJECTIVE, objective_delta=2.0),
        })
        study = evaluate_clips(population, rule_set, CONFIG, fault_plan=plan)
        assert study.quarantined_count("RULE2") == 1
        assert study.healed_count("RULE2") == 1
        assert study.unhealed_count("RULE2") == 0


class TestArtifactChaosResume:
    def test_corrupted_journal_and_cache_resume_to_identical_table(
        self, tmp_path
    ):
        population = clips()
        rule_set = paper_rules()[:3]
        journal_path = tmp_path / "sweep.jsonl"
        cache_dir = tmp_path / "cache"
        config = EvalConfig(
            time_limit_per_clip=30.0, solve_cache_dir=str(cache_dir)
        )

        clean = evaluate_clips(
            population, rule_set, config, checkpoint_path=journal_path
        )
        clean_table = format_delta_cost_table(clean, title="artifact-chaos")

        # Bit-flip one cold-solved pair's journal record and that same
        # pair's cache entry: the resumed sweep must detect both,
        # re-solve exactly the damaged pair (cold, so it reads the
        # damaged entry), and publish the same numbers.
        lines = journal_path.read_bytes().splitlines(keepends=True)
        victim = next(
            i
            for i, line in enumerate(lines)
            if not any(
                json.loads(line)[flag]
                for flag in ("warm_used", "cache_hit", "certified")
            )
        )
        record = json.loads(lines[victim])
        flip_bit(
            journal_path,
            sum(map(len, lines[:victim])) + len(lines[victim]) // 2,
        )
        (clip,) = [c for c in population if c.name == record["clip"]]
        (rule,) = [r for r in rule_set if r.name == record["rule"]]
        router = OptRouter(time_limit=config.time_limit_per_clip)
        cache = SolveCache(cache_dir)
        entry = cache._path(
            SolveCache.key_for(
                router.build(clip, rule).csr, router._cache_options()
            )
        )
        assert entry in cache._entry_files()
        flip_bit(entry, byte_index=30)

        resumed = evaluate_clips(
            population, rule_set, config,
            checkpoint_path=journal_path, resume=True,
        )
        assert (
            format_delta_cost_table(resumed, title="artifact-chaos")
            == clean_table
        )
        # The journal healed: sidecar evidence exists, records clean.
        journal = CheckpointJournal(journal_path)
        assert journal.quarantine_path.exists()
        records = journal.load()
        assert journal.quarantined == []
        assert len(records) == len(population) * len(rule_set)
        # The damaged cache entry was quarantined, not trusted.
        assert SolveCache(cache_dir).stats()["quarantined"] == 1

    def test_audit_cli_flags_and_heals_corruption(self, tmp_path, capsys):
        from repro.cli import main

        population = clips(1)
        rule_set = paper_rules()[:2]
        journal_path = tmp_path / "sweep.jsonl"
        evaluate_clips(
            population, rule_set, CONFIG, checkpoint_path=journal_path
        )
        assert main(["audit", "--journal", str(journal_path)]) == 0
        capsys.readouterr()

        flip_bit(journal_path, journal_path.stat().st_size // 2)
        assert main(["audit", "--journal", str(journal_path)]) == 1
        out = capsys.readouterr().out
        assert "quarantined" in out
        # One-shot healing: a second scan is clean.
        assert main(["audit", "--journal", str(journal_path)]) == 0

    def test_audit_cli_requires_a_target(self, capsys):
        from repro.cli import main

        assert main(["audit"]) == 2
        assert "needs" in capsys.readouterr().err
