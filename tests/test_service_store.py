"""Tests for the service experiment model and WAL-backed store."""

import pytest

from repro.service import (
    ALLOWED_TRANSITIONS,
    TERMINAL_STATES,
    ExperimentState,
    ExperimentStore,
    PayloadError,
    StoreWriteError,
    TransitionError,
    experiment_id,
    resolve_payload,
)


def payload(**overrides):
    base = {
        "synthetic": {"count": 1, "nx": 4, "ny": 5, "nz": 3, "nets": 2},
        "rules": ["RULE1", "RULE3"],
        "time_limit": 10.0,
    }
    base.update(overrides)
    return base


class TestPayloadResolution:
    def test_synthetic_payload_resolves(self):
        resolved = resolve_payload(payload())
        assert resolved.tenant == "default"
        assert [r.name for r in resolved.rules] == ["RULE1", "RULE3"]
        assert len(resolved.clips) == 1
        assert resolved.n_pairs == 2
        assert resolved.hardness > 0

    def test_resolution_is_canonical_fixpoint(self):
        resolved = resolve_payload(payload())
        again = resolve_payload(resolved.canonical)
        assert again.canonical == resolved.canonical

    def test_explicit_clips_payload(self):
        from repro.clips.serialization import clip_to_dict

        resolved = resolve_payload(payload())
        clip_dicts = [clip_to_dict(c) for c in resolved.clips]
        spec = payload()
        del spec["synthetic"]
        spec["clips"] = clip_dicts
        explicit = resolve_payload(spec)
        # Materialization makes the two submission styles converge on
        # the same canonical form -- and therefore the same id.
        assert explicit.canonical == resolved.canonical

    def test_default_rules_follow_technology(self):
        spec = payload()
        del spec["rules"]
        resolved = resolve_payload(spec)
        assert resolved.rules[0].name == "RULE1"
        assert len(resolved.rules) == 6  # N7-9T's applicable subset

    @pytest.mark.parametrize("bad", [
        {"rules": []},
        {"rules": ["RULE99"]},
        {"rules": ["RULE1", "RULE1"]},
        {"time_limit": -1},
        {"time_limit": "soon"},
        {"time_budget": 0},
        {"version": 99},
        {"synthetic": {"count": 0}},
        {"synthetic": {"count": 10_000}},
        {"tenant": "a/b"},
    ])
    def test_bad_payloads_rejected(self, bad):
        with pytest.raises(PayloadError):
            resolve_payload(payload(**bad))

    def test_needs_exactly_one_clip_source(self):
        spec = payload()
        del spec["synthetic"]
        with pytest.raises(PayloadError):
            resolve_payload(spec)
        spec["synthetic"] = {"count": 1}
        spec["clips"] = []
        with pytest.raises(PayloadError):
            resolve_payload(spec)


class TestContentAddressing:
    def test_same_payload_same_id(self):
        a = resolve_payload(payload())
        b = resolve_payload(payload())
        assert experiment_id(a.tenant, a.canonical) == (
            experiment_id(b.tenant, b.canonical)
        )

    def test_different_payload_different_id(self):
        a = resolve_payload(payload())
        b = resolve_payload(payload(time_limit=11.0))
        assert experiment_id(a.tenant, a.canonical) != (
            experiment_id(b.tenant, b.canonical)
        )

    def test_tenant_isolates_ids(self):
        # Identical payloads under different tenants are different
        # experiments (isolation); their *solves* still share the
        # content-addressed cache tier.
        resolved = resolve_payload(payload())
        assert experiment_id("alice", resolved.canonical) != (
            experiment_id("bob", resolved.canonical)
        )


class TestLifecycle:
    def test_transition_table_shape(self):
        # Terminal states only re-enter via QUEUED (rerun/resume).
        for state in TERMINAL_STATES:
            assert ALLOWED_TRANSITIONS[state] == {ExperimentState.QUEUED}
        # And every state has an entry (no KeyError paths).
        assert set(ALLOWED_TRANSITIONS) == set(ExperimentState)

    def test_store_validates_transitions(self, tmp_path):
        store = ExperimentStore(tmp_path)
        experiment, _ = store.submit(resolve_payload(payload()))
        with pytest.raises(TransitionError):
            store.transition(experiment.id, ExperimentState.DONE)
        store.transition(experiment.id, ExperimentState.RUNNING)
        store.transition(experiment.id, ExperimentState.DEGRADED,
                         degraded=True)
        store.transition(experiment.id, ExperimentState.DONE)
        with pytest.raises(TransitionError):
            store.transition(experiment.id, ExperimentState.RUNNING)

    def test_unknown_id_raises_keyerror(self, tmp_path):
        store = ExperimentStore(tmp_path)
        with pytest.raises(KeyError):
            store.get("deadbeef")


class TestStore:
    def test_submit_is_idempotent(self, tmp_path):
        store = ExperimentStore(tmp_path)
        first, created_first = store.submit(resolve_payload(payload()))
        second, created_second = store.submit(resolve_payload(payload()))
        assert created_first and not created_second
        assert first is second
        assert store.counts()["n_experiments"] == 1

    def test_submission_fails_closed_on_disk_full(self, tmp_path):
        from repro.exec.faults import clear_disk_full, inject_disk_full

        store = ExperimentStore(tmp_path)
        inject_disk_full(str(tmp_path))
        try:
            with pytest.raises(StoreWriteError):
                store.submit(resolve_payload(payload()))
        finally:
            clear_disk_full()
        # Nothing half-accepted: the id is free to submit again.
        experiment, created = store.submit(resolve_payload(payload()))
        assert created
        assert store.get(experiment.id).state is ExperimentState.QUEUED

    def test_state_writes_absorb_disk_full_as_degraded(self, tmp_path):
        from repro.exec.faults import clear_disk_full, inject_disk_full

        store = ExperimentStore(tmp_path)
        experiment, _ = store.submit(resolve_payload(payload()))
        inject_disk_full(str(tmp_path))
        try:
            store.transition(experiment.id, ExperimentState.RUNNING)
        finally:
            clear_disk_full()
        assert experiment.state is ExperimentState.RUNNING
        assert experiment.degraded
        assert store.degraded_writes == 1

    def test_recovery_replays_and_requeues(self, tmp_path):
        store = ExperimentStore(tmp_path)
        running, _ = store.submit(resolve_payload(payload()))
        done, _ = store.submit(resolve_payload(payload(time_limit=11.0)))
        cancelled, _ = store.submit(
            resolve_payload(payload(time_limit=12.0))
        )
        store.transition(running.id, ExperimentState.RUNNING)
        store.transition(done.id, ExperimentState.RUNNING)
        store.transition(done.id, ExperimentState.DONE)
        store.transition(cancelled.id, ExperimentState.CANCELLED)

        # Simulated SIGKILL: a brand-new store over the same WAL.
        recovered = ExperimentStore(tmp_path)
        summary = recovered.recover()
        assert summary["experiments"] == 3
        assert summary["requeued"] == 1
        assert recovered.get(running.id).state is ExperimentState.QUEUED
        assert "recover" in recovered.get(running.id).detail
        assert recovered.get(done.id).state is ExperimentState.DONE
        assert recovered.get(cancelled.id).state is (
            ExperimentState.CANCELLED
        )

    def test_recovery_quarantines_corrupt_wal_records(self, tmp_path):
        from repro.exec.faults import flip_bit

        store = ExperimentStore(tmp_path)
        a, _ = store.submit(resolve_payload(payload()))
        b, _ = store.submit(resolve_payload(payload(time_limit=11.0)))
        # Corrupt the WAL tail (b's submit record): recovery must
        # keep a, quarantine b's record, and not crash.
        flip_bit(store.wal.path, -10)
        recovered = ExperimentStore(tmp_path)
        summary = recovered.recover()
        assert summary["quarantined_records"] == 1
        assert summary["experiments"] == 1
        assert recovered.get(a.id).state is ExperimentState.QUEUED
        with pytest.raises(KeyError):
            recovered.get(b.id)

    def test_requeue_resets_runtime_flags(self, tmp_path):
        store = ExperimentStore(tmp_path)
        experiment, _ = store.submit(resolve_payload(payload()))
        store.transition(experiment.id, ExperimentState.RUNNING)
        experiment.cancel_requested = True
        experiment.degrade_tier = 1
        store.transition(experiment.id, ExperimentState.QUEUED)
        assert not experiment.cancel_requested
        assert experiment.degrade_tier == 0

    def test_counts_reflect_pending_by_tenant(self, tmp_path):
        store = ExperimentStore(tmp_path)
        store.submit(resolve_payload(payload(tenant="alice")))
        store.submit(resolve_payload(payload(tenant="bob")))
        done, _ = store.submit(
            resolve_payload(payload(tenant="bob", time_limit=11.0))
        )
        store.transition(done.id, ExperimentState.RUNNING)
        store.transition(done.id, ExperimentState.DONE)
        counts = store.counts()
        assert counts["pending_total"] == 2
        assert counts["pending_by_tenant"] == {"alice": 1, "bob": 1}
        assert counts["by_state"]["DONE"] == 1
