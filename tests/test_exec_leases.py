"""Unit tests for the journal-backed lease protocol.

The lease board is a pure function of the record sequence, so every
claim race, expiry, and reclaim scenario can be tested deterministically
by replaying hand-built record lists -- no processes, no sleeps.
"""

import pytest

from repro.exec import CheckpointJournal, LeaseBoard, LeaseManager
from repro.exec.leases import CLAIM, DONE, HEARTBEAT, LEASE_KIND, RELEASE


def rec(event, group, worker, ts, ttl=10.0):
    return {
        "kind": LEASE_KIND,
        "event": event,
        "group": group,
        "worker": worker,
        "ts": ts,
        "ttl": ttl,
    }


class TestLeaseBoardReplay:
    def test_claim_then_done(self):
        board = LeaseBoard.from_records([
            rec(CLAIM, "g1", "worker-0", 100.0),
            rec(DONE, "g1", "worker-0", 105.0),
        ])
        assert board.is_done("g1")
        assert board.holder("g1", now=106.0) is None
        assert not board.available("g1", now=106.0)

    def test_contested_claim_against_live_holder_is_ignored(self):
        board = LeaseBoard.from_records([
            rec(CLAIM, "g1", "worker-0", 100.0),
            rec(CLAIM, "g1", "worker-1", 101.0),
        ])
        assert board.holder("g1", now=102.0) == "worker-0"
        assert board.reclaim_count() == 0

    def test_expired_lease_is_reclaimed(self):
        board = LeaseBoard.from_records([
            rec(CLAIM, "g1", "worker-0", 100.0, ttl=5.0),
            rec(CLAIM, "g1", "worker-1", 106.0, ttl=5.0),
        ])
        assert board.holder("g1", now=107.0) == "worker-1"
        assert board.reclaim_count() == 1

    def test_heartbeat_extends_only_for_holder(self):
        base = [rec(CLAIM, "g1", "worker-0", 100.0, ttl=5.0)]
        extended = LeaseBoard.from_records(
            base + [rec(HEARTBEAT, "g1", "worker-0", 104.0, ttl=5.0)]
        )
        assert extended.holder("g1", now=108.0) == "worker-0"
        hijack = LeaseBoard.from_records(
            base + [rec(HEARTBEAT, "g1", "worker-1", 104.0, ttl=50.0)]
        )
        assert hijack.holder("g1", now=106.0) is None  # expired at 105

    def test_release_frees_only_for_holder(self):
        board = LeaseBoard.from_records([
            rec(CLAIM, "g1", "worker-0", 100.0),
            rec(RELEASE, "g1", "worker-1", 101.0),  # not the holder
        ])
        assert board.holder("g1", now=102.0) == "worker-0"
        board = LeaseBoard.from_records([
            rec(CLAIM, "g1", "worker-0", 100.0),
            rec(RELEASE, "g1", "worker-0", 101.0),
        ])
        assert board.available("g1", now=102.0)

    def test_done_is_terminal(self):
        board = LeaseBoard.from_records([
            rec(CLAIM, "g1", "worker-0", 100.0),
            rec(DONE, "g1", "worker-0", 101.0),
            rec(CLAIM, "g1", "worker-1", 200.0),
        ])
        assert board.is_done("g1")
        assert board.holder("g1", now=201.0) is None

    def test_expiry_without_new_claim_leaves_group_available(self):
        board = LeaseBoard.from_records([
            rec(CLAIM, "g1", "worker-0", 100.0, ttl=5.0),
        ])
        assert not board.available("g1", now=104.0)
        assert board.available("g1", now=106.0)

    def test_malformed_lease_records_are_ignored(self):
        board = LeaseBoard.from_records([
            {"kind": LEASE_KIND, "event": "nonsense", "group": "g1"},
            {"kind": LEASE_KIND, "event": CLAIM, "group": 42},
            rec(CLAIM, "g1", "worker-0", 100.0),
        ])
        assert board.holder("g1", now=101.0) == "worker-0"

    def test_taken_over_after_expiry_or_release(self):
        first = [rec(CLAIM, "g1", "worker-0", 100.0, ttl=5.0)]
        board = LeaseBoard.from_records(first + [
            rec(CLAIM, "g1", "worker-1", 101.0),  # contested: ignored
            rec(HEARTBEAT, "g1", "worker-0", 102.0, ttl=5.0),
        ])
        assert not board.taken_over("g1")
        assert not LeaseBoard.from_records([]).taken_over("g1")
        expired = LeaseBoard.from_records(
            first + [rec(CLAIM, "g1", "worker-1", 106.0)]
        )
        assert expired.taken_over("g1")
        released = LeaseBoard.from_records(first + [
            rec(RELEASE, "g1", "worker-0", 101.0),
            rec(CLAIM, "g1", "worker-1", 102.0),
        ])
        assert released.taken_over("g1")
        assert released.reclaim_count() == 0

    def test_replay_is_deterministic_for_every_reader(self):
        records = [
            rec(CLAIM, "g1", "worker-0", 100.0, ttl=5.0),
            rec(CLAIM, "g2", "worker-1", 100.5, ttl=5.0),
            rec(CLAIM, "g1", "worker-1", 106.0, ttl=5.0),
            rec(DONE, "g2", "worker-1", 107.0),
        ]
        a = LeaseBoard.from_records(records)
        b = LeaseBoard.from_records(list(records))
        assert a.groups == b.groups


class TestLeaseManager:
    def test_claim_release_done_roundtrip(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j.jsonl")
        manager = LeaseManager(journal, "worker-0", ttl=10.0)
        assert manager.try_claim("g1")
        assert manager.held == {"g1"}
        manager.release("g1")
        assert manager.held == set()
        assert manager.try_claim("g1")
        manager.done("g1")
        board = LeaseBoard.from_records(journal.read())
        assert board.is_done("g1")

    def test_claim_race_has_exactly_one_winner(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j.jsonl")
        a = LeaseManager(journal, "worker-0", ttl=10.0)
        b = LeaseManager(journal, "worker-1", ttl=10.0)
        won_a = a.try_claim("g1")
        won_b = b.try_claim("g1")
        assert won_a and not won_b

    def test_release_all_frees_every_held_group(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j.jsonl")
        manager = LeaseManager(journal, "worker-0", ttl=10.0)
        assert manager.try_claim("g1")
        assert manager.try_claim("g2")
        manager.release_all()
        assert manager.held == set()
        board = LeaseBoard.from_records(journal.read())
        assert board.available("g1", now=1e12)
        assert board.available("g2", now=0.0)

    def test_claim_returns_the_board_it_won_on(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j.jsonl")
        a = LeaseManager(journal, "worker-0", ttl=10.0)
        b = LeaseManager(journal, "worker-1", ttl=10.0)
        board = a.try_claim("g1")
        assert board is not None and board.holder("g1") == "worker-0"
        assert b.try_claim("g1") is None
        a.release("g1")
        board = b.try_claim("g1")
        assert board is not None and board.taken_over("g1")

    def test_paused_heartbeat_writes_nothing(self, tmp_path):
        import threading
        import time

        from repro.exec import Heartbeat

        journal = CheckpointJournal(tmp_path / "j.jsonl")
        manager = LeaseManager(journal, "worker-0", ttl=10.0)
        assert manager.try_claim("g1")
        paused = threading.Event()
        paused.set()
        beat = Heartbeat(manager, "g1", 0.02, paused=paused.is_set)
        beat.start()
        try:
            time.sleep(0.2)
            assert [r["event"] for r in journal.read()] == [CLAIM]
            paused.clear()
            deadline = time.monotonic() + 5.0
            while len(journal.read()) == 1 and time.monotonic() < deadline:
                time.sleep(0.02)
        finally:
            beat.stop()
        assert journal.read()[1]["event"] == HEARTBEAT

    def test_ttl_must_be_positive(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j.jsonl")
        with pytest.raises(ValueError):
            LeaseManager(journal, "worker-0", ttl=0.0)

    def test_lease_records_coexist_with_results(self, tmp_path):
        from repro.exec import dedupe_results, result_records

        journal = CheckpointJournal(tmp_path / "j.jsonl")
        manager = LeaseManager(journal, "worker-0", ttl=10.0)
        manager.try_claim("g1")
        journal.append({"clip": "g1", "rule": "RULE1", "status": "optimal"})
        manager.done("g1")
        journal.append({"clip": "g1", "rule": "RULE1", "status": "optimal"})
        records = journal.read()
        assert len(result_records(records)) == 2
        assert len(dedupe_results(records)) == 1
