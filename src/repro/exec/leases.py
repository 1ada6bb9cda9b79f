"""Lease coordination over the checkpoint journal.

Distributed sweeps shard *clip-major groups* across worker processes.
The only shared state is the checkpoint journal itself: workers append
small ``kind="lease"`` records (sealed like every other record) and
derive the current ownership table by replaying them in file order.
There is no lock server and no coordinator in the data path -- any
worker can die at any point (including mid-write; the quarantine path
absorbs torn lines) and the group it held simply becomes reclaimable
once its lease TTL elapses.

Lease state machine per group::

    free --claim--> held --heartbeat--> held (deadline extended)
                      |--release--> free
                      |--done-----> done        (terminal)
                      |--(ttl elapses)--> free  (expired, reclaimable)

Claim conflicts are resolved deterministically from the record order:
a claim against an unexpired holder is simply ignored, so every reader
of the same journal prefix agrees on the holder.  The claim protocol
is therefore *append, then re-read and check*: :meth:`LeaseManager.try_claim`
returns None for the loser, who moves on to another group.

Timestamps are wall-clock seconds from the writer; workers are
expected to share a machine (or closely synchronized clocks), and TTLs
should comfortably exceed any plausible clock skew plus one heartbeat
interval.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.exec.checkpoint import CheckpointJournal, record_kind

#: ``kind`` tag of lease records in the journal.
LEASE_KIND = "lease"

#: Lease events, in the order they may occur for one group.
CLAIM = "claim"
HEARTBEAT = "heartbeat"
RELEASE = "release"
DONE = "done"

_EVENTS = (CLAIM, HEARTBEAT, RELEASE, DONE)


def lease_records(records: "list[dict]") -> "list[dict]":
    """The lease records of a journal snapshot, in file order."""
    return [r for r in records if record_kind(r) == LEASE_KIND]


@dataclass
class _GroupLease:
    holder: str | None = None
    expires: float = 0.0
    done: bool = False
    reclaims: int = 0
    #: claims that made a worker the holder (the first, and each one
    #: after a release or an expiry).
    claims: int = 0


@dataclass
class LeaseBoard:
    """Ownership table derived by replaying lease records in order.

    A pure function of the record sequence plus the evaluation time:
    two workers reading the same journal prefix always agree on every
    holder, which is what makes append-then-check claims safe.
    """

    groups: dict[str, _GroupLease] = field(default_factory=dict)

    @classmethod
    def from_records(cls, records: "list[dict]") -> "LeaseBoard":
        board = cls()
        for record in lease_records(records):
            board._apply(record)
        return board

    def _apply(self, record: dict) -> None:
        event = record.get("event")
        group = record.get("group")
        worker = record.get("worker")
        if event not in _EVENTS or not isinstance(group, str):
            return  # unknown lease record; ignore, never crash
        ts = float(record.get("ts", 0.0))
        ttl = float(record.get("ttl", 0.0))
        lease = self.groups.setdefault(group, _GroupLease())
        if lease.done:
            return  # terminal
        if event == CLAIM:
            if lease.holder is None or lease.holder == worker:
                if lease.holder is None:
                    lease.claims += 1
                lease.holder = str(worker)
                lease.expires = ts + ttl
            elif ts > lease.expires:
                # The previous holder's lease expired before this
                # claim was written: the claimant reclaims the group.
                lease.holder = str(worker)
                lease.expires = ts + ttl
                lease.reclaims += 1
                lease.claims += 1
            # else: contested claim against a live holder -- ignored,
            # deterministically, by every reader.
        elif event == HEARTBEAT:
            if lease.holder == worker:
                lease.expires = max(lease.expires, ts + ttl)
        elif event == RELEASE:
            if lease.holder == worker:
                lease.holder = None
                lease.expires = 0.0
        elif event == DONE:
            lease.done = True
            lease.holder = None

    # -- queries -------------------------------------------------------------

    def is_done(self, group: str) -> bool:
        lease = self.groups.get(group)
        return lease is not None and lease.done

    def holder(self, group: str, now: float | None = None) -> str | None:
        """The live holder of the group, or None (free/expired/done)."""
        lease = self.groups.get(group)
        if lease is None or lease.done or lease.holder is None:
            return None
        if now is not None and now > lease.expires:
            return None  # expired: reclaimable by anyone
        return lease.holder

    def available(self, group: str, now: float) -> bool:
        """True when the group is neither done nor held by a live lease."""
        return not self.is_done(group) and self.holder(group, now) is None

    def reclaim_count(self) -> int:
        """Total expired-lease takeovers observed across all groups."""
        return sum(lease.reclaims for lease in self.groups.values())

    def taken_over(self, group: str) -> bool:
        """True when an earlier holder lost the group's lease (it
        expired or was released) and another claim took it: whoever
        holds it now, or held it last, is not its first holder."""
        lease = self.groups.get(group)
        return lease is not None and lease.claims > 1


class LeaseManager:
    """One worker's view of the lease protocol on a shared journal."""

    def __init__(
        self,
        journal: CheckpointJournal,
        worker: str,
        ttl: float = 10.0,
        clock: "Callable[[], float]" = time.time,
    ):
        if ttl <= 0:
            raise ValueError("lease ttl must be positive")
        self.journal = journal
        self.worker = worker
        self.ttl = ttl
        #: single injected clock: every timestamp this manager writes
        #: or compares comes from here, so replay/conformance tests
        #: can drive the protocol on a logical clock.
        self.clock = clock
        #: groups this manager currently believes it holds (used by
        #: graceful shutdown to release everything in one sweep).
        self.held: set[str] = set()

    def _append(self, event: str, group: str) -> None:
        self.journal.append({
            "kind": LEASE_KIND,
            "event": event,
            "group": group,
            "worker": self.worker,
            "ts": self.clock(),
            "ttl": self.ttl,
        })

    def try_claim(self, group: str) -> "LeaseBoard | None":
        """Append a claim, then re-read to learn whether it won.

        Two workers may race the same free group; both append, both
        re-read, and the deterministic replay picks one winner (the
        first claim in file order).  The winner gets the re-read board,
        which shows it holding ``group``; the loser gets None and is
        expected to move on.
        """
        self._append(CLAIM, group)
        board = LeaseBoard.from_records(self.journal.read())
        if board.holder(group, self.clock()) != self.worker:
            return None
        self.held.add(group)
        return board

    def heartbeat(self, group: str) -> None:
        self._append(HEARTBEAT, group)

    def release(self, group: str) -> None:
        self._append(RELEASE, group)
        self.held.discard(group)

    def release_all(self) -> None:
        """Release every held lease (graceful-shutdown path)."""
        for group in sorted(self.held):
            self._append(RELEASE, group)
        self.held.clear()

    def done(self, group: str) -> None:
        self._append(DONE, group)
        self.held.discard(group)


class Heartbeat(threading.Thread):
    """Background lease refresher for one held group.

    Runs while the worker solves the group; a SIGKILL kills the thread
    with the process, the heartbeats stop, and the lease expires --
    exactly the signal peers need to reclaim the group.  While
    ``paused()`` returns True (a lease worker passes "an in-process
    attempt is past its hard deadline") no heartbeat is written, so a
    wedged worker's lease lapses the same way.
    """

    def __init__(
        self,
        manager: LeaseManager,
        group: str,
        interval: float,
        paused: "Callable[[], bool] | None" = None,
    ):
        super().__init__(daemon=True)
        self.manager = manager
        self.group = group
        self.interval = interval
        self.paused = paused
        # NB: must not be named ``_stop`` -- that would shadow
        # ``threading.Thread._stop()`` and break ``join()``.
        self._halt = threading.Event()

    def run(self) -> None:  # pragma: no cover - timing-dependent loop
        while not self._halt.wait(self.interval):
            if self.paused is not None and self.paused():
                continue
            try:
                self.manager.heartbeat(self.group)
            except Exception:
                return  # journal gone (shutdown); stop quietly

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=2.0)
