"""Tests for lease-coordinated distributed execution.

Work functions are module-level (picklable on spawn-only platforms)
and append their own result records, mirroring the eval layer's
contract.  The chaos scenarios SIGKILL live workers mid-group and
assert the zero-lost-groups guarantee.
"""

import multiprocessing
import os
import time
from functools import partial

import pytest

from repro.exec import (
    ChaosMonkey,
    CheckpointJournal,
    DistributedConfig,
    DistributedReport,
    KillPlan,
    LeaseBoard,
    LeaseManager,
    dedupe_results,
    flip_bit,
    parallel_map,
    run_distributed,
    truncate_file,
    worker_name,
)


def append_result(group, journal_path):
    """Trivial work: journal one result record for the group."""
    CheckpointJournal(journal_path).append({
        "clip": group, "rule": "RULE1", "status": "optimal",
        "pid": os.getpid(),
    })


def slow_append_result(group, journal_path):
    """Work slow enough for the chaos monkey to land a mid-group kill."""
    time.sleep(0.4)
    append_result(group, journal_path)


def stuck_append_result(group, journal_path):
    """Work that outlasts any grace period: only a SIGTERM ends it."""
    time.sleep(30.0)
    append_result(group, journal_path)


def crash_once_then_append(group, journal_path):
    """Die hard on the first attempt of g0; succeed on any retry.

    The marker file distinguishes first from second attempt across
    processes, emulating a poisoned group that a reclaiming peer (or a
    respawned worker) completes.
    """
    marker = journal_path + ".crashed"
    if group == "g0" and not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("x")
        os.kill(os.getpid(), 9)
    append_result(group, journal_path)


def double(x):
    return x * 2


def groups_done(journal_path, keys):
    board = LeaseBoard.from_records(CheckpointJournal(journal_path).read())
    return [g for g in keys if board.is_done(g)]


def result_clips(journal_path):
    records = dedupe_results(CheckpointJournal(journal_path).read())
    return sorted(r["clip"] for r in records)


class TestRunDistributed:
    def test_all_groups_complete_without_chaos(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        keys = [f"g{i}" for i in range(5)]
        report = run_distributed(
            path, keys, partial(append_result, journal_path=path),
            DistributedConfig(n_procs=2, lease_ttl=2.0,
                              heartbeat_interval=0.2),
        )
        assert isinstance(report, DistributedReport)
        assert groups_done(path, keys) == keys
        assert result_clips(path) == sorted(keys)
        assert report.respawns == 0
        assert report.inline_groups == []

    def test_empty_group_list_is_a_noop(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        report = run_distributed(
            path, [], partial(append_result, journal_path=path)
        )
        assert report.n_groups == 0

    def test_sigkilled_worker_group_is_reclaimed(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        keys = [f"g{i}" for i in range(4)]
        monkey = ChaosMonkey(
            CheckpointJournal(path), KillPlan(n_workers=2, n_kills=1, seed=0)
        )
        report = run_distributed(
            path, keys, partial(slow_append_result, journal_path=path),
            DistributedConfig(n_procs=2, lease_ttl=1.0,
                              heartbeat_interval=0.2, respawn=False),
            monkey=monkey,
        )
        assert groups_done(path, keys) == keys
        assert result_clips(path) == sorted(keys)  # nothing lost, no dupes
        assert report.killed == monkey.plan.victims()

    def test_all_workers_killed_degrades_to_inline(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        keys = [f"g{i}" for i in range(3)]
        monkey = ChaosMonkey(
            CheckpointJournal(path), KillPlan(n_workers=2, n_kills=2, seed=1)
        )
        report = run_distributed(
            path, keys, partial(slow_append_result, journal_path=path),
            DistributedConfig(n_procs=2, lease_ttl=1.0,
                              heartbeat_interval=0.2, respawn=False),
            monkey=monkey,
        )
        assert groups_done(path, keys) == keys
        assert result_clips(path) == sorted(keys)
        assert sorted(report.killed) == [0, 1]
        assert report.respawns == 0
        # With every worker dead and respawn off, the coordinator
        # finished the remaining groups itself.
        assert report.inline_groups

    def test_worker_crash_respawns_and_completes(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        keys = [f"g{i}" for i in range(3)]
        report = run_distributed(
            path, keys, partial(crash_once_then_append, journal_path=path),
            DistributedConfig(n_procs=2, lease_ttl=1.0,
                              heartbeat_interval=0.2),
        )
        assert groups_done(path, keys) == keys
        assert result_clips(path) == sorted(keys)
        assert report.respawns >= 1

    def test_stop_event_raises_sweep_interrupted(self, tmp_path):
        import threading

        from repro.exec import SweepInterrupted

        path = str(tmp_path / "j.jsonl")
        stop = threading.Event()
        stop.set()
        with pytest.raises(SweepInterrupted) as info:
            run_distributed(
                path, ["g0"], partial(slow_append_result, journal_path=path),
                DistributedConfig(n_procs=1, lease_ttl=1.0,
                                  heartbeat_interval=0.2, join_grace=2.0),
                stop_event=stop,
            )
        assert info.value.journal_path == path

    def test_reaped_worker_does_not_signal_the_parent_loop(self, tmp_path):
        """``repro serve`` coordinates under an asyncio loop whose
        SIGTERM handler drains the server; the SIGTERM that reaps a
        worker past its grace must not reach that handler."""
        import asyncio
        import signal
        import threading

        from repro.exec import SweepInterrupted

        path = str(tmp_path / "j.jsonl")
        stop = threading.Event()
        fired = []

        def coordinate():
            with pytest.raises(SweepInterrupted):
                run_distributed(
                    path, ["g0"],
                    partial(stuck_append_result, journal_path=path),
                    DistributedConfig(n_procs=1, lease_ttl=1.0,
                                      heartbeat_interval=0.2, join_grace=0.2),
                    stop_event=stop,
                )

        async def supervise():
            loop = asyncio.get_running_loop()
            loop.add_signal_handler(signal.SIGTERM, fired.append, "TERM")
            try:
                loop.call_later(1.0, stop.set)  # the worker is solving
                await loop.run_in_executor(None, coordinate)
                await asyncio.sleep(0.5)  # a stray wakeup would land here
            finally:
                loop.remove_signal_handler(signal.SIGTERM)

        asyncio.run(supervise())
        assert fired == []
        assert result_clips(path) == []  # reaped before it journaled

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DistributedConfig(n_procs=0)
        with pytest.raises(ValueError):
            DistributedConfig(lease_ttl=1.0, heartbeat_interval=1.0)


class TestParallelMap:
    def test_preserves_order(self):
        assert parallel_map(double, [3, 1, 2], n_procs=2) == [6, 2, 4]

    def test_sequential_fallback(self):
        assert parallel_map(double, [3, 1], n_procs=1) == [6, 2]
        assert parallel_map(double, [], n_procs=4) == []


def stress_writer(journal_path, worker, n_records):
    """Appends interleaved lease and result records as fast as it can."""
    journal = CheckpointJournal(journal_path)
    manager = LeaseManager(journal, worker, ttl=5.0)
    for i in range(n_records):
        group = f"{worker}-g{i}"
        manager.try_claim(group)
        journal.append({
            "clip": group, "rule": "RULE1", "status": "optimal",
        })
        manager.done(group)


class TestMultiWriterJournalStress:
    """Satellite: concurrent appends + injected corruption.

    Two OS processes hammer the journal with lease and result records
    while the main process reads concurrently; then deterministic
    corruption (bit flip + torn tail) is injected.  Reads must never
    crash, dedupe must never yield a duplicate pair, and healing must
    quarantine exactly the corrupted lines.
    """

    N = 25

    def _run_writers(self, path):
        procs = [
            multiprocessing.Process(
                target=stress_writer, args=(path, worker_name(slot), self.N)
            )
            for slot in range(2)
        ]
        for proc in procs:
            proc.start()
        journal = CheckpointJournal(path)
        while any(proc.is_alive() for proc in procs):
            # Concurrent read mid-write must never raise.
            journal.read()
            time.sleep(0.01)
        for proc in procs:
            proc.join()
            assert proc.exitcode == 0

    def test_interleaved_writers_then_corruption(self, tmp_path):
        path = str(tmp_path / "stress.jsonl")
        self._run_writers(path)

        journal = CheckpointJournal(path)
        records = journal.read()
        results = dedupe_results(records)
        expected = {
            f"{worker_name(slot)}-g{i}"
            for slot in range(2) for i in range(self.N)
        }
        assert {r["clip"] for r in results} == expected
        assert len(results) == len(expected)  # no duplicates
        # No writer interleaving at the line level: every line parses.
        assert journal.quarantined == []
        n_before = len(records)

        # Inject corruption: flip a bit in the middle of the third
        # line (never a newline byte, so exactly one record breaks)
        # and tear the tail.
        with open(path, "rb") as fh:
            lines = fh.readlines()
        offset = sum(len(line) for line in lines[:2]) + len(lines[2]) // 2
        flip_bit(path, byte_index=offset)
        with open(path, "ab") as fh:
            fh.write(b'{"clip": "torn-tail", "rule": "RULE1"')
        tolerant = CheckpointJournal(path)
        seen = tolerant.read()  # must not raise
        assert len(seen) >= n_before - 1
        assert len(tolerant.quarantined) == 2  # flipped line + torn line

        healed = CheckpointJournal(path)
        kept = healed.load(heal=True)
        assert len(healed.quarantined) == 2
        assert os.path.exists(healed.quarantine_path)
        reread = CheckpointJournal(path)
        assert len(reread.read()) == len(kept)
        assert reread.quarantined == []
        # The surviving results still cover every pair except at most
        # the one whose line was flipped.
        survivors = {r["clip"] for r in dedupe_results(kept)}
        assert len(expected - survivors) <= 1

    def test_truncated_tail_quarantines_only_last_line(self, tmp_path):
        path = str(tmp_path / "torn.jsonl")
        journal = CheckpointJournal(path)
        for i in range(5):
            journal.append({
                "clip": f"g{i}", "rule": "RULE1", "status": "optimal",
            })
        truncate_file(path, drop_bytes=10)
        torn = CheckpointJournal(path)
        records = torn.read()
        assert [r["clip"] for r in dedupe_results(records)] == [
            "g0", "g1", "g2", "g3",
        ]
        assert len(torn.quarantined) == 1
