"""Tests for the deterministic fault-injection harness itself."""

import time

import pytest

from repro.exec import (
    CORRUPT_PAYLOAD,
    FaultKind,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    apply_fault,
)


class TestFaultSpec:
    def test_applies_to_any_backend_by_default(self):
        spec = FaultSpec(FaultKind.CRASH)
        assert spec.applies_to("highs") and spec.applies_to("baseline")

    def test_only_backend_restricts(self):
        spec = FaultSpec(FaultKind.CRASH, only_backend="highs")
        assert spec.applies_to("highs")
        assert not spec.applies_to("bnb")


class TestFaultPlan:
    def test_by_index_lookup(self):
        plan = FaultPlan(by_index={2: FaultSpec(FaultKind.CRASH)})
        assert plan.fault_for(2, "c", "r") is not None
        assert plan.fault_for(0, "c", "r") is None

    def test_by_key_lookup_survives_reindexing(self):
        spec = FaultSpec(FaultKind.SLEEP)
        plan = FaultPlan(by_key={("clip7", "RULE6"): spec})
        # Same pair at any batch position still draws the fault.
        assert plan.fault_for(0, "clip7", "RULE6") is spec
        assert plan.fault_for(99, "clip7", "RULE6") is spec
        assert plan.fault_for(0, "clip7", "RULE1") is None

    def test_key_takes_precedence_over_index(self):
        by_key = FaultSpec(FaultKind.SLEEP)
        by_index = FaultSpec(FaultKind.CRASH)
        plan = FaultPlan(by_index={0: by_index}, by_key={("c", "r"): by_key})
        assert plan.fault_for(0, "c", "r") is by_key


class TestApplyFault:
    def test_no_fault_is_noop(self):
        assert apply_fault(None, "highs", 1, inline=True) is None

    def test_inline_crash_raises(self):
        with pytest.raises(InjectedCrash):
            apply_fault(FaultSpec(FaultKind.CRASH), "highs", 1, inline=True)

    def test_crash_skips_other_backends(self):
        spec = FaultSpec(FaultKind.CRASH, only_backend="highs")
        assert apply_fault(spec, "bnb", 1, inline=True) is None

    def test_flaky_fails_then_succeeds(self):
        spec = FaultSpec(FaultKind.FLAKY, fail_attempts=2)
        for attempt in (1, 2):
            with pytest.raises(InjectedCrash):
                apply_fault(spec, "highs", attempt, inline=True)
        assert apply_fault(spec, "highs", 3, inline=True) is None

    def test_corrupt_returns_marker(self):
        payload = apply_fault(
            FaultSpec(FaultKind.CORRUPT), "highs", 1, inline=True
        )
        assert payload == CORRUPT_PAYLOAD

    def test_sleep_sleeps_then_proceeds(self):
        spec = FaultSpec(FaultKind.SLEEP, sleep_seconds=0.05)
        t0 = time.perf_counter()
        assert apply_fault(spec, "highs", 1, inline=True) is None
        assert time.perf_counter() - t0 >= 0.05

    def test_abort_is_worker_noop(self):
        # ABORT is interpreted by the supervisor, never by the worker.
        assert apply_fault(FaultSpec(FaultKind.ABORT), "highs", 1, inline=True) is None


class TestDiskFullFault:
    """The DISK_FULL artifact fault and the degrade-not-crash paths
    it exists to exercise (journal appends, solve-cache writes)."""

    @pytest.fixture(autouse=True)
    def _disarm(self):
        from repro.exec.faults import clear_disk_full

        clear_disk_full()
        yield
        clear_disk_full()

    def test_arm_match_and_clear(self):
        import errno

        from repro.exec.faults import (
            clear_disk_full,
            disk_full_active,
            inject_disk_full,
            maybe_raise_disk_full,
        )

        inject_disk_full("journal.jsonl")
        assert disk_full_active("/data/run3/journal.jsonl")
        assert not disk_full_active("/data/run3/cache/ab.json")
        with pytest.raises(OSError) as excinfo:
            maybe_raise_disk_full("/data/run3/journal.jsonl")
        assert excinfo.value.errno == errno.ENOSPC
        clear_disk_full("journal.jsonl")
        maybe_raise_disk_full("/data/run3/journal.jsonl")  # disarmed
        with pytest.raises(ValueError):
            inject_disk_full("")

    def test_journal_append_degrades_not_crashes(self, tmp_path):
        from repro.exec.checkpoint import CheckpointJournal
        from repro.exec.faults import clear_disk_full, inject_disk_full

        journal = CheckpointJournal(tmp_path / "journal.jsonl")
        assert journal.append({"clip": "c0", "rule": "RULE1"})
        inject_disk_full(str(tmp_path))
        assert not journal.append({"clip": "c0", "rule": "RULE2"})
        assert journal.write_failures == 1
        assert "ENOSPC" in journal.last_write_error or (
            "No space left" in journal.last_write_error
        )
        clear_disk_full()
        # The journal is still usable, and the pre-fault record and
        # post-fault appends survive (only the ENOSPC'd one is gone).
        assert journal.append({"clip": "c0", "rule": "RULE3"})
        records = journal.load()
        assert [r["rule"] for r in records] == ["RULE1", "RULE3"]

    def test_cache_put_degrades_and_cleans_temp(self, tmp_path):
        from repro.exec.faults import inject_disk_full
        from repro.ilp import CooBuilder, Solution, SolveCache, SolveStatus

        builder = CooBuilder()
        x = builder.binary("x")
        builder.le(x, 1)
        builder.minimize(-x)
        model = builder.freeze("m")
        cache = SolveCache(tmp_path / "cache")
        inject_disk_full(str(tmp_path))
        ok = cache.put(
            model, {}, Solution(status=SolveStatus.INFEASIBLE)
        )
        assert not ok
        assert cache.write_failures == 1
        # No temp litter, no half-written entry.
        leftovers = [
            p for p in (tmp_path / "cache").rglob("*")
            if p.is_file()
        ] if (tmp_path / "cache").exists() else []
        assert leftovers == []
        assert cache.get(model, {}) is None  # a miss, not a crash

    def test_heal_path_skips_when_disk_full(self, tmp_path):
        from repro.exec.checkpoint import CheckpointJournal
        from repro.exec.faults import inject_disk_full

        journal = CheckpointJournal(tmp_path / "journal.jsonl")
        journal.append({"clip": "c0", "rule": "RULE1"})
        with open(journal.path, "a", encoding="utf-8") as fh:
            fh.write("{torn garbage\n")
        inject_disk_full(str(tmp_path))
        # Load still succeeds: the corrupt line is quarantined in
        # memory; only the sidecar/compaction persistence is skipped.
        records = journal.load()
        assert len(records) == 1
        assert len(journal.quarantined) == 1
        assert journal.write_failures == 1
        assert not journal.quarantine_path.exists()
