"""Chaos scenario for distributed sweeps: SIGKILL random workers.

The distributed coordinator's crash story is only credible if it is
exercised with the harshest signal there is -- ``SIGKILL``, which gives
the victim no chance to flush, release leases, or say goodbye.  The
:class:`KillPlan` here picks victims *deterministically* from a seed,
so a chaos run that loses a clip is replayable bit-for-bit, in the
spirit of :mod:`repro.exec.faults`.

The killer is progress-gated rather than timer-based: a victim is only
shot after the journal shows it holding a lease (so the kill lands
mid-group, the interesting window), and the scenario degrades to a
no-op instead of hanging when a sweep finishes before its victims ever
claim work.
"""

from __future__ import annotations

import os
import random
import signal
import threading
import time
from dataclasses import dataclass, field

from repro.exec.checkpoint import CheckpointJournal
from repro.exec.leases import LeaseBoard

#: Seconds between the monkey's journal polls.
POLL_INTERVAL = 0.05


@dataclass(frozen=True)
class KillPlan:
    """Deterministic choice of which workers to SIGKILL.

    ``n_kills`` victims are drawn (without replacement) from
    ``n_workers`` using ``seed``; the same plan always shoots the same
    worker slots.
    """

    n_workers: int
    n_kills: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_kills < 0 or self.n_kills > self.n_workers:
            raise ValueError("need 0 <= n_kills <= n_workers")

    def victims(self) -> "list[int]":
        """Worker slots (0-based) to kill, in kill order."""
        rng = random.Random(self.seed)
        return rng.sample(range(self.n_workers), self.n_kills)


@dataclass
class ChaosMonkey:
    """Background killer thread driven by a :class:`KillPlan`.

    Watches the shared journal with the side-effect-free
    :meth:`~repro.exec.checkpoint.CheckpointJournal.read` and SIGKILLs
    each victim as soon as it is seen holding a lease -- i.e. actually
    mid-group, where a crash can lose the most.  Used by the
    distributed bench's kill-injection smoke and the CLI's
    ``--chaos-kill`` flag.
    """

    journal: CheckpointJournal
    plan: KillPlan
    #: worker slot -> live PID, registered by the coordinator as it
    #: spawns workers (and re-registered for replacements).
    pids: dict = field(default_factory=dict)
    #: worker slot -> the lease-record name of its live worker.
    names: dict = field(default_factory=dict)
    killed: "list[int]" = field(default_factory=list)
    _stop: threading.Event = field(default_factory=threading.Event)
    _thread: "threading.Thread | None" = None

    def register(self, slot: int, pid: int, name: str) -> None:
        self.pids[slot] = pid
        self.names[slot] = name

    def start(self) -> None:
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)

    # -- internals ----------------------------------------------------------

    def _run(self) -> None:
        pending = self.plan.victims()
        while pending and not self._stop.is_set():
            board = LeaseBoard.from_records(self.journal.read())
            now = time.time()
            holders = {
                board.holder(group, now)
                for group in board.groups
            }
            for slot in list(pending):
                pid = self.pids.get(slot)
                if pid is None:
                    continue
                if self.names.get(slot) in holders:
                    self._kill(slot, pid)
                    pending.remove(slot)
            self._stop.wait(POLL_INTERVAL)

    def _kill(self, slot: int, pid: int) -> None:
        try:
            os.kill(pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            return  # already gone; the crash story still holds
        self.killed.append(slot)


def worker_name(slot: int, generation: int = 0) -> str:
    """Canonical lease-record worker id for a coordinator worker slot.

    ``generation`` counts the slot's respawns: a replacement worker
    gets a name of its own (``worker-0.1``), so its claim on a lease
    its dead predecessor held counts as a reclaim.
    """
    return f"worker-{slot}" if generation == 0 else f"worker-{slot}.{generation}"
