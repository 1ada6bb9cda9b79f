"""Forward-compatibility of durable artifacts.

A future version of this code base will write journal records and
cache entries with a schema version this version does not know.  A
rollback (or a shared artifact directory) must therefore *quarantine*
future records -- never crash on them, never trust them -- and a
resume over them must re-solve the affected pairs and still produce
byte-identical reports.
"""

import json

import pytest

from repro.clips import SyntheticClipSpec, make_synthetic_clip
from repro.eval import (
    EvalConfig,
    evaluate_clips,
    format_delta_cost_table,
    paper_rule,
)
from repro.eval.report import format_sorted_traces
from repro.exec.checkpoint import RECORD_VERSION, CheckpointJournal
from repro.util.integrity import seal_record


def _clips(n=1):
    spec = SyntheticClipSpec(
        nx=4, ny=5, nz=3, n_nets=2, sinks_per_net=1,
        access_points_per_pin=2,
    )
    return [make_synthetic_clip(spec, seed=s) for s in range(n)]


def _rules():
    return [paper_rule("RULE1"), paper_rule("RULE3")]


def _config():
    return EvalConfig(time_limit_per_clip=10.0, audit=False)


def _render(study):
    return (
        format_delta_cost_table(study, title="fc")
        + "\n"
        + format_sorted_traces(study)
        + "\n"
    )


class TestJournalForwardCompat:
    def test_future_record_version_is_quarantined(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "journal.jsonl")
        # A *sealed* record from the future: checksum valid, version
        # unknown.  The seal must not make it trusted.
        future = seal_record({
            "v": RECORD_VERSION + 97,
            "clip": "c0",
            "rule": "RULE1",
            "status": "optimal",
            "some_future_field": {"nested": True},
        })
        journal._append_locked(
            journal.path, [json.dumps(future, sort_keys=True)]
        )
        records = journal.load()
        assert records == []
        assert len(journal.quarantined) == 1
        assert "version" in journal.quarantined[0][1]
        assert journal.quarantine_path.exists()

    def test_resume_over_future_records_is_byte_correct(self, tmp_path):
        clips, rules = _clips(), _rules()
        baseline_path = tmp_path / "baseline.jsonl"
        study = evaluate_clips(
            clips, rules, _config(), checkpoint_path=baseline_path
        )
        expected = _render(study)

        # Second sweep: journal one real run, then replace one pair's
        # record with a future-versioned one (a partial upgrade).
        victim_path = tmp_path / "victim.jsonl"
        evaluate_clips(
            clips, rules, _config(), checkpoint_path=victim_path
        )
        lines = victim_path.read_text().splitlines()
        assert len(lines) == len(clips) * len(rules)
        doctored = json.loads(lines[0])
        doctored.pop("sha", None)
        doctored["v"] = RECORD_VERSION + 1
        lines[0] = json.dumps(seal_record(doctored), sort_keys=True)
        victim_path.write_text("".join(line + "\n" for line in lines))

        resumed = evaluate_clips(
            clips, rules, _config(),
            checkpoint_path=victim_path, resume=True,
        )
        assert _render(resumed) == expected
        # The future record went to quarantine, and the re-solved
        # pair healed the journal: every pair is v-current again.
        healed = CheckpointJournal(victim_path)
        records = healed.load()
        assert len(records) == len(clips) * len(rules)
        assert all(r["v"] == RECORD_VERSION for r in records)


class TestProvenanceRecords:
    """Warm-shortcut provenance rides in the journal as optional keys:
    the record version stays, and records written before the keys
    existed still load."""

    def _outcome(self, **provenance):
        from repro.eval import ClipRuleOutcome
        from repro.router import RouteStatus

        return ClipRuleOutcome(
            clip_name="c0", rule_name="RULE8", status=RouteStatus.OPTIMAL,
            cost=24.0, wirelength=8, n_vias=4, solve_seconds=0.0,
            warm_used="reused-optimal", restriction_certified=True,
            **provenance,
        )

    def test_provenance_round_trips_through_the_journal(self, tmp_path):
        from repro.eval import outcome_from_record, outcome_to_record

        outcome = self._outcome(
            warm_bound_from="RULE3", warm_routing_from="RULE10"
        )
        journal = CheckpointJournal(tmp_path / "journal.jsonl")
        journal.append(outcome_to_record(outcome))
        (record,) = journal.load()
        assert record["v"] == RECORD_VERSION == 2
        assert outcome_from_record(record) == outcome

    def test_record_without_provenance_loads_with_empty_names(self, tmp_path):
        from repro.eval import outcome_from_record, outcome_to_record

        old = outcome_to_record(self._outcome())
        del old["warm_bound_from"], old["warm_routing_from"]
        journal = CheckpointJournal(tmp_path / "journal.jsonl")
        journal.append(old)
        (record,) = journal.load()
        assert journal.quarantined == []
        outcome = outcome_from_record(record)
        assert (outcome.warm_bound_from, outcome.warm_routing_from) == ("", "")
        assert outcome == self._outcome()


class TestCacheForwardCompat:
    def test_future_entry_version_is_miss_and_quarantined(self, tmp_path):
        from repro.ilp import CooBuilder, SolveCache, Solution, SolveStatus

        builder = CooBuilder()
        x = builder.binary("x")
        builder.le(x, 1)
        builder.minimize(-x)
        model = builder.freeze("m")
        cache = SolveCache(tmp_path)
        assert cache.put(model, {}, Solution(status=SolveStatus.LIMIT))

        (entry_file,) = cache._entry_files()
        payload = json.loads(entry_file.read_text())
        payload.pop("sha", None)
        payload["v"] = 99
        entry_file.write_text(
            json.dumps(seal_record(payload), sort_keys=True)
        )

        assert cache.get(model, {}) is None  # miss, not a crash
        assert cache.stats()["quarantined"] == 1
        assert cache.stats()["entries"] == 0
        # The slot heals on the next put (the re-solve).
        assert cache.put(model, {}, Solution(status=SolveStatus.LIMIT))
        assert cache.get(model, {}) is not None


class TestArtifactsWithPresolveAccounting:
    """Journals and cache entries written while the router still ran a
    presolve engine carry its accounting keys; they load unchanged and
    the keys are ignored."""

    def test_journal_with_presolve_keys_resumes_without_solves(
        self, tmp_path, monkeypatch
    ):
        clips, rules = _clips(), _rules()
        path = tmp_path / "journal.jsonl"
        expected = _render(
            evaluate_clips(clips, rules, _config(), checkpoint_path=path)
        )
        lines = []
        for line in path.read_text().splitlines():
            record = json.loads(line)
            record.pop("sha", None)
            record["presolve_seconds"] = 0.0125
            record["presolve_nnz_removed"] = 42
            lines.append(json.dumps(seal_record(record), sort_keys=True))
        path.write_text("".join(line + "\n" for line in lines))

        journal = CheckpointJournal(path)
        assert len(journal.load()) == len(clips) * len(rules)
        assert journal.quarantined == []

        import repro.router.optrouter as optrouter_mod

        def no_solve(*args, **kwargs):
            raise AssertionError("backend solve on a complete journal")

        monkeypatch.setattr(optrouter_mod, "solve_with_highs", no_solve)
        monkeypatch.setattr(optrouter_mod, "solve_with_bnb", no_solve)
        resumed = evaluate_clips(
            clips, rules, _config(), checkpoint_path=path, resume=True
        )
        assert _render(resumed) == expected

    def test_cache_entry_with_presolve_stats_parses_and_counts(
        self, tmp_path, capsys
    ):
        from repro.cli import main
        from repro.ilp import CooBuilder, Solution, SolveCache, SolveStatus
        from repro.ilp.solve_cache import CacheEntry

        builder = CooBuilder()
        x = builder.binary("x")
        builder.le(x, 1)
        builder.minimize(-x)
        model = builder.freeze("m")
        cache = SolveCache(tmp_path)
        assert cache.put(
            model, {}, Solution(status=SolveStatus.OPTIMAL, objective=-1.0,
                                values={0: 1.0}, best_bound=-1.0)
        )
        (entry_file,) = cache._entry_files()
        payload = json.loads(entry_file.read_text())
        payload.pop("sha", None)
        payload["presolve_stats"] = {
            "nonzeros_removed": 3.0, "presolve_seconds": 0.002,
        }
        sealed = seal_record(payload)
        entry_file.write_text(json.dumps(sealed, sort_keys=True))

        entry = CacheEntry.from_dict(sealed)
        assert (entry.status, entry.objective) == (SolveStatus.OPTIMAL, -1.0)
        assert cache.get(model, {}) == entry
        assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
        assert ": 1 entries," in capsys.readouterr().out
        assert SolveCache(tmp_path).stats()["quarantined"] == 0


class TestServiceWalForwardCompat:
    def test_recovery_skips_future_wal_records(self, tmp_path):
        from repro.service import ExperimentState, ExperimentStore
        from repro.service.experiments import resolve_payload

        store = ExperimentStore(tmp_path)
        resolved = resolve_payload({
            "synthetic": {"count": 1, "nx": 4, "ny": 5, "nz": 3, "nets": 2},
            "rules": ["RULE1"],
        })
        experiment, created = store.submit(resolved)
        assert created
        store.transition(experiment.id, ExperimentState.RUNNING)

        # A future service writes an event kind this version does not
        # know, at a future record version.
        future = seal_record({
            "v": RECORD_VERSION + 5,
            "kind": "svc-priority",
            "id": experiment.id,
            "priority": "urgent",
        })
        store.wal._append_locked(
            store.wal.path, [json.dumps(future, sort_keys=True)]
        )

        recovered = ExperimentStore(tmp_path)
        summary = recovered.recover()
        assert summary["quarantined_records"] == 1
        assert summary["experiments"] == 1
        # The non-terminal experiment was requeued, not lost.
        assert recovered.get(experiment.id).state is ExperimentState.QUEUED


class TestArtifactsOfRacedRuns:
    """Sweeps once raced HiGHS against B&B on predicted-hard clips: the
    service payload carried a ``race`` flag, and raced pairs journaled a
    ``race:highs+bnb`` attempt and, where B&B won, ``backend: "bnb"``.
    Racing is gone; these pin what becomes of what it wrote."""

    PAYLOAD = {
        "synthetic": {"count": 1, "nx": 4, "ny": 5, "nz": 3, "nets": 2},
        "rules": ["RULE1"],
    }

    def test_race_key_of_a_payload_is_ignored(self):
        from repro.service.experiments import experiment_id, resolve_payload

        plain = resolve_payload(self.PAYLOAD)
        raced = resolve_payload({**self.PAYLOAD, "race": True})
        assert "race" not in raced.canonical
        assert raced.canonical == plain.canonical
        assert experiment_id(raced.tenant, raced.canonical) == experiment_id(
            plain.tenant, plain.canonical
        )

    def test_recovery_skips_a_submission_whose_payload_holds_race(
        self, tmp_path
    ):
        from repro.service import ExperimentState, ExperimentStore
        from repro.service.experiments import resolve_payload

        store = ExperimentStore(tmp_path)
        # What a server from before racing was retired journaled: the
        # canonical payload, and the id over it, with a ``race`` key.
        old = resolve_payload(self.PAYLOAD)
        old.canonical = {**old.canonical, "race": True}
        queued, created = store.submit(old)
        assert created
        store.transition(queued.id, ExperimentState.RUNNING)
        journal = store.journal_path(queued.id)
        journal.parent.mkdir(parents=True, exist_ok=True)
        journal.write_text("{}\n", encoding="utf-8")
        current, _ = store.submit(
            resolve_payload({**self.PAYLOAD, "time_limit": 11.0})
        )

        recovered = ExperimentStore(tmp_path)
        summary = recovered.recover()
        assert summary == {
            "experiments": 1, "requeued": 0, "quarantined_records": 0,
        }
        with pytest.raises(KeyError):
            recovered.get(queued.id)
        assert recovered.get(current.id).state is ExperimentState.QUEUED
        # Its checkpoint journal stays on disk.
        assert journal.read_text(encoding="utf-8") == "{}\n"

    def test_journal_of_a_raced_sweep_resumes_without_solves(
        self, tmp_path, monkeypatch
    ):
        from repro.eval.report import format_audit_table

        clips, rules = _clips(), _rules()
        path = tmp_path / "journal.jsonl"
        expected = _render(
            evaluate_clips(clips, rules, _config(), checkpoint_path=path)
        )
        lines = []
        for line in path.read_text().splitlines():
            record = json.loads(line)
            record.pop("sha", None)
            record["backend"] = "bnb"
            record["attempt_log"] = [{
                "attempt": 1,
                "backend": "race:highs+bnb",
                "outcome": "ok",
                "detail": "winner=bnb; cancelled=highs",
                "seconds": 0.25,
            }]
            lines.append(json.dumps(seal_record(record), sort_keys=True))
        path.write_text("".join(line + "\n" for line in lines))

        import repro.router.optrouter as optrouter_mod

        def no_solve(*args, **kwargs):
            raise AssertionError("backend solve on a complete journal")

        monkeypatch.setattr(optrouter_mod, "solve_with_highs", no_solve)
        monkeypatch.setattr(optrouter_mod, "solve_with_bnb", no_solve)
        resumed = evaluate_clips(
            clips, rules, _config(), checkpoint_path=path, resume=True
        )
        assert _render(resumed) == expected
        n_pairs = len(clips) * len(rules)
        assert format_audit_table(resumed).endswith(
            f"attempts: {n_pairs} across {n_pairs} pairs "
            "(0 retried, 0 timed out)"
        )
