"""Lease-coordinated multi-process sweep execution.

The distributed fabric shards *groups* of work (the eval layer uses
one group per clip) across ``n_procs`` worker processes.  All
coordination happens through the shared checkpoint journal
(:mod:`repro.exec.checkpoint`): workers claim groups with lease
records (:mod:`repro.exec.leases`), heartbeat while solving, append
result records as pairs finish, and mark groups done.  There is no
queue, no socket, and no shared memory -- which is exactly why any
worker can be SIGKILLed at any instant and the sweep still completes:

- a worker killed *between* appends loses nothing (its finished pairs
  are journaled; its lease expires and a peer re-solves the rest);
- a worker killed *mid-append* leaves one torn line, which the
  journal's quarantine path absorbs on the next coordinator load;
- results are deterministic per pair and deduplicated first-wins, so
  at-least-once execution never produces a duplicate or divergent
  outcome.

The coordinator supervises worker processes (bounded respawn of dead
workers), and as a last resort finishes any remaining groups *inline*
-- so even a chaos scenario that kills every worker loses zero groups.
The ``work`` callable must be picklable (a module-level function or a
:func:`functools.partial` of one) and is responsible for appending its
own result records and for skipping pairs already journaled.
"""

from __future__ import annotations

import signal
import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.exec.chaos import ChaosMonkey, worker_name
from repro.exec.checkpoint import CheckpointJournal
from repro.exec.leases import Heartbeat, LeaseBoard, LeaseManager
from repro.exec.runner import _detach_wakeup_fd, _mp_context


#: Seconds between the coordinator's journal polls (and between a
#: worker's claim attempts while every remaining group is held).
POLL_INTERVAL = 0.05

#: Replacements of dead workers per run; past it, the coordinator
#: finishes the remaining groups inline.
MAX_RESPAWNS = 4


class SweepInterrupted(RuntimeError):
    """A distributed sweep was stopped by SIGINT/SIGTERM.

    Carries the journal path so the CLI can print the exact
    ``--resume`` command; all completed pairs are already flushed.
    """

    def __init__(self, message: str, journal_path: "str | Path"):
        super().__init__(message)
        self.journal_path = str(journal_path)


@dataclass(frozen=True)
class DistributedConfig:
    """Knobs of the lease-coordinated coordinator.

    ``lease_ttl`` must comfortably exceed ``heartbeat_interval`` (a
    live worker refreshes its lease several times per TTL) yet stay
    small enough that a killed worker's group is reclaimed quickly.
    ``respawn`` replaces dead workers, up to :data:`MAX_RESPAWNS`.
    """

    n_procs: int = 2
    lease_ttl: float = 5.0
    heartbeat_interval: float = 1.0
    join_grace: float = 10.0
    respawn: bool = True

    def __post_init__(self) -> None:
        if self.n_procs < 1:
            raise ValueError("n_procs must be >= 1")
        if self.lease_ttl <= self.heartbeat_interval:
            raise ValueError("lease_ttl must exceed heartbeat_interval")


@dataclass
class DistributedReport:
    """What the coordinator observed during one distributed run."""

    n_procs: int
    n_groups: int
    respawns: int = 0
    #: groups the coordinator had to finish inline (all workers dead).
    inline_groups: list[str] = field(default_factory=list)
    #: worker slots the chaos monkey killed (empty without chaos).
    killed: list[int] = field(default_factory=list)
    #: expired-lease takeovers observed in the final lease board.
    reclaims: int = 0
    elapsed: float = 0.0


def _worker_entry(
    journal_path: str,
    worker: str,
    group_keys: "list[str]",
    work: "Callable[[str], None]",
    lease_ttl: float,
    heartbeat_interval: float,
) -> None:
    """Worker-process main loop: claim, heartbeat, work, mark done.

    Exits cleanly when every group is done.  SIGTERM (the
    coordinator's graceful shutdown) releases held leases on the way
    out; SIGKILL releases nothing -- by design, that is the crash case
    the lease TTL exists for.
    """
    def _graceful_term(*_args) -> None:
        raise SystemExit(0)

    try:
        _detach_wakeup_fd()
        signal.signal(signal.SIGTERM, _graceful_term)
    except ValueError:  # pragma: no cover - non-main thread
        pass
    journal = CheckpointJournal(journal_path)
    manager = LeaseManager(journal, worker, ttl=lease_ttl)
    try:
        while True:
            board = LeaseBoard.from_records(journal.read())
            now = time.time()
            remaining = [g for g in group_keys if not board.is_done(g)]
            if not remaining:
                return
            claimed: str | None = None
            for group in remaining:
                if board.available(group, now) and manager.try_claim(group):
                    claimed = group
                    break
            if claimed is None:
                # Everything left is held by live peers; wait for a
                # completion or an expiry.
                time.sleep(POLL_INTERVAL)
                continue
            heartbeat = Heartbeat(manager, claimed, heartbeat_interval)
            heartbeat.start()
            try:
                work(claimed)
            finally:
                heartbeat.stop()
            manager.done(claimed)
    finally:
        manager.release_all()


def run_distributed(
    journal_path: "str | Path",
    group_keys: Sequence[str],
    work: "Callable[[str], None]",
    config: DistributedConfig | None = None,
    monkey: ChaosMonkey | None = None,
    stop_event: "threading.Event | None" = None,
    on_snapshot: "Callable[[list[dict]], None] | None" = None,
) -> DistributedReport:
    """Run ``work`` over every group with lease-coordinated workers.

    Blocks until every group is marked done in the journal.  Dead
    workers are respawned up to :data:`MAX_RESPAWNS`; if all workers
    die past that bound, the coordinator finishes the remaining groups
    inline -- no group is ever lost.  ``monkey`` (the chaos scenario)
    gets each worker PID registered before it starts shooting.
    ``stop_event`` is the graceful-shutdown hook: when set (by a
    signal handler), workers are reaped and :class:`SweepInterrupted`
    is raised with the journal path.  ``on_snapshot`` sees the records
    of every journal snapshot the coordinator polls, and a last one
    after the workers are reaped (which also holds the groups it
    finished inline).
    """
    if config is None:
        config = DistributedConfig()
    journal = CheckpointJournal(journal_path)
    keys = list(group_keys)
    report = DistributedReport(n_procs=config.n_procs, n_groups=len(keys))
    if not keys:
        return report
    t0 = time.monotonic()
    ctx = _mp_context()

    def spawn(slot: int):
        proc = ctx.Process(
            target=_worker_entry,
            args=(
                str(journal_path),
                worker_name(slot),
                keys,
                work,
                config.lease_ttl,
                config.heartbeat_interval,
            ),
            name=worker_name(slot),
            # Not daemonic: a daemonic process may not start children,
            # and a worker's runner starts attempt processes.
            daemon=False,
        )
        proc.start()
        if monkey is not None and proc.pid is not None:
            monkey.register(slot, proc.pid)
        return proc

    workers = {slot: spawn(slot) for slot in range(config.n_procs)}
    if monkey is not None:
        monkey.start()
    try:
        while True:
            if stop_event is not None and stop_event.is_set():
                raise SweepInterrupted(
                    "sweep interrupted: journal flushed, leases released, "
                    "workers reaped",
                    journal_path,
                )
            records = journal.read()
            if on_snapshot is not None:
                on_snapshot(records)
            board = LeaseBoard.from_records(records)
            remaining = [g for g in keys if not board.is_done(g)]
            if not remaining:
                break
            for slot, proc in list(workers.items()):
                if proc.is_alive():
                    continue
                proc.join(0)
                del workers[slot]
                if config.respawn and report.respawns < MAX_RESPAWNS:
                    report.respawns += 1
                    workers[slot] = spawn(slot)
            if not workers:
                # Bounded degradation floor: every worker is dead and
                # the respawn budget is spent.  Finish what is left
                # inline so the sweep still loses zero groups.
                coordinator = LeaseManager(
                    journal, "coordinator", ttl=config.lease_ttl
                )
                for group in remaining:
                    board = LeaseBoard.from_records(journal.read())
                    if board.is_done(group):
                        continue
                    work(group)
                    coordinator.done(group)
                    report.inline_groups.append(group)
                break
            time.sleep(POLL_INTERVAL)
    finally:
        if monkey is not None:
            monkey.stop()
            report.killed = list(monkey.killed)
        _shutdown(workers, config.join_grace)
    records = journal.read()
    if on_snapshot is not None:
        on_snapshot(records)
    report.reclaims = LeaseBoard.from_records(records).reclaim_count()
    report.elapsed = time.monotonic() - t0
    return report


def _shutdown(workers: dict, grace: float) -> None:
    """Reap worker processes: graceful join, then terminate, then kill.

    ``grace`` bounds the *total* graceful wait across all workers, not
    the per-worker wait -- interrupt latency must not scale with
    ``n_procs``.
    """
    deadline = time.monotonic() + grace
    for proc in workers.values():
        proc.join(max(0.0, deadline - time.monotonic()))
    for proc in workers.values():
        if proc.is_alive():
            proc.terminate()
            proc.join(2.0)
        if proc.is_alive():  # pragma: no cover - last resort
            proc.kill()
            proc.join(2.0)
    workers.clear()


def parallel_map(
    fn: "Callable",
    items: Sequence,
    n_procs: int,
) -> list:
    """Order-preserving parallel map over picklable items.

    The light sibling of :func:`run_distributed` for embarrassingly
    parallel work with no shared journal (e.g. utilization-sweep
    points): a plain process pool, results in input order, sequential
    fallback for ``n_procs <= 1`` or a single item.  ``fn`` must be a
    module-level callable (or partial of one) and must not itself
    spawn processes -- pool workers are daemonic.
    """
    items = list(items)
    if n_procs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    ctx = _mp_context()
    with ctx.Pool(processes=min(n_procs, len(items))) as pool:
        return pool.map(fn, items)


__all__ = [
    "DistributedConfig",
    "DistributedReport",
    "SweepInterrupted",
    "parallel_map",
    "run_distributed",
]
