"""Tests for the JSONL checkpoint journal and resumable eval sweeps."""

import json

import pytest

from repro.clips import SyntheticClipSpec, make_synthetic_clip
from repro.eval import (
    EvalConfig,
    evaluate_clips,
    format_delta_cost_table,
    outcome_from_record,
    outcome_to_record,
)
from repro.exec import (
    CheckpointJournal,
    FaultKind,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    SupervisorConfig,
    SweepAborted,
)
from repro.router import RouteStatus, RuleConfig, ViaRestriction


def clips(n=3):
    return [
        make_synthetic_clip(
            SyntheticClipSpec(nx=5, ny=6, nz=3, n_nets=2, sinks_per_net=1),
            seed=s,
        )
        for s in range(n)
    ]


def rules():
    return [
        RuleConfig(name="RULE1"),
        RuleConfig(name="RULE6", via_restriction=ViaRestriction.ORTHOGONAL),
    ]


CONFIG = EvalConfig(time_limit_per_clip=30.0)


class TestJournal:
    def test_round_trip(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "ckpt.jsonl")
        journal.append({"clip": "a", "rule": "R", "cost": 21.0})
        journal.append({"clip": "b", "rule": "R", "cost": None})
        records = journal.load()
        assert [r["clip"] for r in records] == ["a", "b"]
        assert records[0]["v"] == 2
        assert "sha" in records[0]
        assert not journal.quarantined

    def test_missing_file_loads_empty(self, tmp_path):
        assert CheckpointJournal(tmp_path / "absent.jsonl").load() == []

    def test_clear_truncates(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "ckpt.jsonl")
        journal.append({"clip": "a", "rule": "R"})
        journal.clear()
        assert journal.load() == []

    def test_truncated_last_line_tolerated(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        journal = CheckpointJournal(path)
        journal.append({"clip": "a", "rule": "R"})
        journal.append({"clip": "b", "rule": "R"})
        # Simulate a kill mid-write: chop the final line in half.
        text = path.read_text()
        path.write_text(text[: len(text) - 12])
        records = journal.load()
        assert [r["clip"] for r in records] == ["a"]
        assert len(journal.quarantined) == 1
        assert "JSON" in journal.quarantined[0][1]
        assert journal.quarantine_path.exists()

    def test_corrupt_middle_line_quarantined(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        journal = CheckpointJournal(path)
        journal.append({"clip": "a", "rule": "R"})
        journal.append({"clip": "b", "rule": "R"})
        lines = path.read_text().splitlines()
        lines[0] = "{broken"
        path.write_text("\n".join(lines) + "\n")
        records = journal.load()
        assert [r["clip"] for r in records] == ["b"]
        assert len(journal.quarantined) == 1
        # The sidecar keeps the raw evidence for post-mortem.
        sidecar = [
            json.loads(line)
            for line in journal.quarantine_path.read_text().splitlines()
        ]
        assert sidecar[0]["raw"] == "{broken"

    def test_unknown_version_quarantined(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        path.write_text(json.dumps({"v": 99, "clip": "a"}) + "\n")
        journal = CheckpointJournal(path)
        assert journal.load() == []
        assert "version" in journal.quarantined[0][1]

    def test_tampered_record_quarantined(self, tmp_path):
        """A well-formed record whose content no longer matches its
        seal (a flipped digit, a manual edit) must not be trusted."""
        path = tmp_path / "ckpt.jsonl"
        journal = CheckpointJournal(path)
        journal.append({"clip": "a", "rule": "R", "cost": 21.0})
        path.write_text(path.read_text().replace("21.0", "12.0"))
        assert journal.load() == []
        assert "checksum" in journal.quarantined[0][1]

    def test_load_heals_by_compacting(self, tmp_path):
        """Quarantining is one-shot: after a load, the journal holds
        only valid records and re-loads clean."""
        path = tmp_path / "ckpt.jsonl"
        journal = CheckpointJournal(path)
        journal.append({"clip": "a", "rule": "R"})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("garbage\n")
        assert len(journal.load()) == 1
        assert len(journal.quarantined) == 1
        assert "garbage" not in path.read_text()
        assert len(journal.load()) == 1
        assert journal.quarantined == []


class TestOutcomeRecords:
    def test_outcome_record_round_trip(self):
        study = evaluate_clips(clips(1), rules(), CONFIG)
        for rule_name in study.rule_names:
            for outcome in study.outcomes[rule_name]:
                assert outcome_from_record(outcome_to_record(outcome)) == outcome

    def test_failure_status_round_trips(self):
        from repro.eval import ClipRuleOutcome

        outcome = ClipRuleOutcome(
            clip_name="c", rule_name="R", status=RouteStatus.TIMEOUT,
            cost=None, wirelength=0, n_vias=0, solve_seconds=0.0,
            backend="highs", attempts=3, degraded=False,
        )
        assert outcome_from_record(outcome_to_record(outcome)) == outcome


class TestResume:
    def test_interrupted_sweep_resumes_to_identical_table(self, tmp_path):
        population = clips()
        rule_set = rules()
        path = tmp_path / "sweep.jsonl"

        reference = evaluate_clips(population, rule_set, CONFIG)
        reference_table = format_delta_cost_table(reference)

        # Kill the sweep partway through (keyed, so it fires at that
        # exact pair regardless of batch position).  The lattice
        # schedule is clip-major: clip0 finishes both rules, clip1
        # finishes RULE1, then the abort fires on clip1/RULE6.
        abort_plan = FaultPlan(
            by_key={(population[1].name, "RULE6"): FaultSpec(FaultKind.ABORT)}
        )
        with pytest.raises(SweepAborted):
            evaluate_clips(
                population, rule_set, CONFIG,
                checkpoint_path=path, fault_plan=abort_plan,
            )
        journal = CheckpointJournal(path)
        assert len(journal.load()) == 3  # clip0 x2 rules + clip1 RULE1

        # Resume with a crash fault armed on an already-completed pair:
        # if the pair were re-solved it would come back ERROR and the
        # Δcost table could not match the uninterrupted reference.
        tripwire = FaultPlan(
            by_key={(population[0].name, "RULE1"): FaultSpec(FaultKind.CRASH)}
        )
        resumed = evaluate_clips(
            population, rule_set, CONFIG,
            checkpoint_path=path, resume=True,
            supervisor=SupervisorConfig(
                isolation="inline", retry=RetryPolicy(max_attempts=1)
            ),
            fault_plan=tripwire,
        )
        assert format_delta_cost_table(resumed) == reference_table
        for rule_name in reference.rule_names:
            assert resumed.delta_costs(rule_name) == reference.delta_costs(rule_name)

        # Completed pairs were journaled exactly once, never re-solved.
        records = journal.load()
        keys = [(r["clip"], r["rule"]) for r in records]
        assert len(records) == 6
        assert len(set(keys)) == 6

    def test_resume_of_finished_sweep_solves_nothing(self, tmp_path):
        population = clips(2)
        rule_set = rules()
        path = tmp_path / "sweep.jsonl"
        first = evaluate_clips(
            population, rule_set, CONFIG, checkpoint_path=path
        )
        # Arm a crash on every pair: any solve at all would now fail.
        tripwire = FaultPlan(
            by_key={
                (clip.name, rule.name): FaultSpec(FaultKind.CRASH)
                for clip in population
                for rule in rule_set
            }
        )
        again = evaluate_clips(
            population, rule_set, CONFIG,
            checkpoint_path=path, resume=True,
            supervisor=SupervisorConfig(
                isolation="inline", retry=RetryPolicy(max_attempts=1)
            ),
            fault_plan=tripwire,
        )
        assert format_delta_cost_table(again) == format_delta_cost_table(first)
        assert len(CheckpointJournal(path).load()) == 4

    def test_fresh_run_truncates_stale_journal(self, tmp_path):
        population = clips(1)
        path = tmp_path / "sweep.jsonl"
        CheckpointJournal(path).append(
            {"clip": "stale", "rule": "RULE1", "status": "optimal",
             "cost": 1.0, "wirelength": 1, "n_vias": 0,
             "solve_seconds": 0.0, "certified": False}
        )
        evaluate_clips(population, rules(), CONFIG, checkpoint_path=path)
        records = CheckpointJournal(path).load()
        assert len(records) == 2
        assert all(r["clip"] != "stale" for r in records)

    def test_duplicate_clip_names_rejected(self, tmp_path):
        clip = clips(1)[0]
        with pytest.raises(ValueError, match="unique"):
            evaluate_clips(
                [clip, clip], rules(), CONFIG,
                checkpoint_path=tmp_path / "x.jsonl",
            )

    def test_failures_are_journaled_and_reported(self, tmp_path):
        """A crashed pair lands in the journal as ERROR and the report
        flags it instead of silently losing the clip."""
        population = clips(2)
        rule_set = rules()
        path = tmp_path / "sweep.jsonl"
        crash = FaultPlan(
            by_key={(population[1].name, "RULE6"): FaultSpec(FaultKind.CRASH)}
        )
        study = evaluate_clips(
            population, rule_set, CONFIG,
            checkpoint_path=path,
            supervisor=SupervisorConfig(
                isolation="inline", retry=RetryPolicy(max_attempts=1)
            ),
            fault_plan=crash,
        )
        assert study.failure_count("RULE6") == 1
        assert study.failure_count("RULE1") == 0
        # Failures are excluded from Δcost, not conflated with
        # infeasibility.
        assert study.infeasible_count("RULE6") == 0
        assert len(study.delta_costs("RULE6")) == 1
        table = format_delta_cost_table(study)
        assert "fail" in table
        records = CheckpointJournal(path).load()
        statuses = {(r["clip"], r["rule"]): r["status"] for r in records}
        assert statuses[(population[1].name, "RULE6")] == "error"
