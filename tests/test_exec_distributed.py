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

    def test_workers_done_with_the_sweep_are_not_respawned(self, tmp_path):
        """Workers exit once every group is done.  A coordinator that
        read the journal before the last ``done`` record must not take
        those exits for deaths."""
        path = str(tmp_path / "j.jsonl")
        keys = [f"g{i}" for i in range(2)]

        def slow_snapshot(records):
            board = LeaseBoard.from_records(records)
            if not all(board.is_done(g) for g in keys):
                # The workers finish the sweep and exit meanwhile.
                time.sleep(1.5)

        report = run_distributed(
            path, keys, partial(slow_append_result, journal_path=path),
            DistributedConfig(n_procs=2, lease_ttl=2.0,
                              heartbeat_interval=0.2),
            on_snapshot=slow_snapshot,
        )
        assert groups_done(path, keys) == keys
        assert report.respawns == 0

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


def _clips(n):
    from repro.clips import SyntheticClipSpec, make_synthetic_clip

    spec = SyntheticClipSpec(nx=5, ny=6, nz=3, n_nets=2, sinks_per_net=1,
                             access_points_per_pin=2, pin_spacing_cols=1)
    return [make_synthetic_clip(spec, seed=s) for s in range(n)]


def _rules():
    from repro.eval import paper_rule
    from repro.router import RuleConfig, ViaRestriction

    return [
        paper_rule("RULE1"),
        RuleConfig(name="RULE6", via_restriction=ViaRestriction.ORTHOGONAL),
    ]


def _pairs(study):
    return {
        (o.clip_name, rule): (o.status, o.cost)
        for rule in study.rule_names
        for o in study.outcomes[rule]
    }


class TestLeaseWorkerIsolation:
    """Lease workers run their groups in their own process; a group
    runs under process isolation only where a process may already have
    died on it: taken over from a holder that lost its lease, or
    finished by the coordinator's inline floor."""

    def _count_attempt_processes(self, monkeypatch, log_path):
        """Append a line to ``log_path`` per attempt process started.
        Patched before the sweep forks, so lease workers inherit it."""
        from repro.exec import runner

        original = runner._AttemptProcess.__init__

        def init(self):
            with open(log_path, "a", encoding="utf-8") as handle:
                handle.write(f"{os.getpid()}\n")
            original(self)

        monkeypatch.setattr(runner._AttemptProcess, "__init__", init)

    def _started(self, log_path):
        if not log_path.exists():
            return 0
        return len(log_path.read_text(encoding="utf-8").splitlines())

    def test_healthy_sweep_starts_no_attempt_process(
        self, tmp_path, monkeypatch
    ):
        from repro.eval import EvalConfig, evaluate_clips, format_delta_cost_table

        clips, rules = _clips(4), _rules()
        log_path = tmp_path / "attempt-processes.log"
        self._count_attempt_processes(monkeypatch, log_path)
        sequential = evaluate_clips(
            clips, rules, EvalConfig(time_limit_per_clip=30.0)
        )
        distributed = evaluate_clips(
            clips, rules, EvalConfig(time_limit_per_clip=30.0, n_procs=2),
            checkpoint_path=tmp_path / "dist.jsonl",
        )
        assert self._started(log_path) == 0
        report = distributed.distributed_report
        assert report.isolated_groups == [] and report.respawns == 0
        assert format_delta_cost_table(distributed) == format_delta_cost_table(
            sequential
        )

    def test_caller_process_isolation_isolates_every_group(
        self, tmp_path, monkeypatch
    ):
        from repro.eval import EvalConfig, evaluate_clips, format_delta_cost_table
        from repro.exec import SupervisorConfig

        clips, rules = _clips(4), _rules()
        log_path = tmp_path / "attempt-processes.log"
        self._count_attempt_processes(monkeypatch, log_path)
        sequential = evaluate_clips(
            clips, rules, EvalConfig(time_limit_per_clip=30.0)
        )
        distributed = evaluate_clips(
            clips, rules, EvalConfig(time_limit_per_clip=30.0, n_procs=2),
            checkpoint_path=tmp_path / "dist.jsonl",
            supervisor=SupervisorConfig(isolation="process"),
        )
        # One attempt process per group: each run_groups call starts
        # one and keeps it while its attempts succeed.
        assert self._started(log_path) == len(clips)
        assert format_delta_cost_table(distributed) == format_delta_cost_table(
            sequential
        )

    def test_poison_pair_costs_one_error(self, tmp_path, monkeypatch):
        from repro.eval import EvalConfig, evaluate_clips
        from repro.router.optrouter import OptRouter, RouteStatus

        clips, rules = _clips(4), _rules()
        sequential = evaluate_clips(
            clips, rules, EvalConfig(time_limit_per_clip=30.0)
        )
        poison = (clips[1].name, "RULE6")
        coordinator = os.getpid()
        original = OptRouter.route

        def route(self, clip, rule, *args, **kwargs):
            # Kills whichever process routes the pair: a lease worker
            # in-process, an attempt process under isolation.
            if os.getpid() != coordinator and (clip.name, rule.name) == poison:
                os._exit(70)
            return original(self, clip, rule, *args, **kwargs)

        monkeypatch.setattr(OptRouter, "route", route)
        distributed = evaluate_clips(
            clips, rules, EvalConfig(time_limit_per_clip=30.0, n_procs=2),
            checkpoint_path=tmp_path / "dist.jsonl",
        )
        got, want = _pairs(distributed), _pairs(sequential)
        assert got.pop(poison)[0] is RouteStatus.ERROR
        want.pop(poison)
        assert got == want
        report = distributed.distributed_report
        assert report.respawns == 1
        assert report.reclaims == 1
        assert report.isolated_groups == [poison[0]]
        assert report.inline_groups == []

    def test_wedged_inline_attempt_is_reclaimed_and_times_out(self, tmp_path):
        from repro.eval import EvalConfig
        from repro.eval.flow import _plan_sweep, _run_lease_group
        from repro.exec import FaultKind, FaultPlan, FaultSpec, SupervisorConfig

        clips, rules = _clips(2), _rules()
        plan = _plan_sweep(clips, rules, EvalConfig(time_limit_per_clip=1.0))
        wedged = (clips[0].name, "RULE1")
        path = str(tmp_path / "j.jsonl")
        work = partial(
            _run_lease_group,
            plan=plan,
            journal_path=path,
            supervisor=SupervisorConfig(isolation="inline"),
            fault_plan=FaultPlan(by_key={
                wedged: FaultSpec(FaultKind.SLEEP, sleep_seconds=60.0)
            }),
        )
        t0 = time.monotonic()
        report = run_distributed(
            path, plan.lease_keys({}), work,
            DistributedConfig(n_procs=2, lease_ttl=0.5,
                              heartbeat_interval=0.1, join_grace=0.5),
            isolated_work=partial(
                work, supervisor=SupervisorConfig(isolation="process")
            ),
        )
        # Past its 1.5 s hard deadline the wedged worker stopped
        # heartbeating; a peer took the group over, and its attempt
        # process was reaped at the deadline.  The sweep did not wait
        # out the 60 s sleep.
        assert time.monotonic() - t0 < 30.0
        records = {
            (r["clip"], r["rule"]): r
            for r in dedupe_results(CheckpointJournal(path).read())
        }
        assert set(records) == {(c.name, r.name) for c in clips for r in rules}
        assert records[wedged]["status"] == "timeout"
        assert "worker terminated" in records[wedged]["attempt_log"][0]["detail"]
        assert report.reclaims == 1
        assert report.isolated_groups == [wedged[0]]


class TestInterruptedSweep:
    def test_stop_ends_lease_workers_after_their_pair(self, tmp_path):
        """A stop reaches the lease workers: each journals the pair it
        is on and exits, and a resume gives the sequential table."""
        import threading

        from repro.eval import EvalConfig, evaluate_clips, format_delta_cost_table
        from repro.exec import FaultKind, FaultPlan, FaultSpec, SweepInterrupted

        clips, rules = _clips(8), _rules()
        latency = FaultPlan(by_key={
            (clip.name, rule.name): FaultSpec(FaultKind.SLEEP, sleep_seconds=1.0)
            for clip in clips
            for rule in rules
        })
        path = tmp_path / "dist.jsonl"
        config = EvalConfig(time_limit_per_clip=30.0, n_procs=2)
        stop = threading.Event()
        stopped_at: list[float] = []

        def request_stop():
            stopped_at.append(time.monotonic())
            stop.set()

        timer = threading.Timer(1.5, request_stop)
        timer.start()
        try:
            with pytest.raises(SweepInterrupted):
                evaluate_clips(
                    clips, rules, config, checkpoint_path=path,
                    fault_plan=latency, stop_event=stop,
                )
            raised_at = time.monotonic()
        finally:
            timer.cancel()
        # Within about one 1 s pair of the stop, not after the sweep
        # (16 pairs on two workers) or the 10 s join grace.
        assert raised_at - stopped_at[0] <= 3.0
        journaled = len(dedupe_results(CheckpointJournal(path).read()))
        assert journaled < len(clips) * len(rules)
        resumed = evaluate_clips(
            clips, rules, config, checkpoint_path=path, resume=True
        )
        sequential = evaluate_clips(
            clips, rules, EvalConfig(time_limit_per_clip=30.0)
        )
        assert format_delta_cost_table(resumed) == format_delta_cost_table(
            sequential
        )


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
