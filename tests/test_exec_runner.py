"""End-to-end tests for the supervised fault-tolerant runner.

Every policy is proven against real injected failures: crashed child
processes, wedged workers reaped at the hard deadline, flaky backends
that heal under retry, and fallback chains that degrade to the
heuristic baseline.
"""

import multiprocessing as mp
import os
import signal
import time
from dataclasses import dataclass, replace
from pathlib import Path

import pytest

from repro.clips import SyntheticClipSpec, make_synthetic_clip
from repro.exec import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    SupervisedRunner,
    SupervisorConfig,
    SweepAborted,
)
from repro.exec.runner import RouteJob
from repro.router import OptRouter, RouteStatus, RuleConfig


def clips(n=3):
    return [
        make_synthetic_clip(
            SyntheticClipSpec(nx=5, ny=6, nz=3, n_nets=2, sinks_per_net=1),
            seed=s,
        )
        for s in range(n)
    ]


def jobs_for(population, time_limit=30.0, backend="highs"):
    router = OptRouter(time_limit=time_limit, backend=backend)
    return [RouteJob(clip, RuleConfig(), router) for clip in population]


def run_jobs(runner, jobs, **kwargs):
    """Run each job as its own group; results in input order."""
    return runner.run_groups([[job] for job in jobs], **kwargs)


def fast_retry(max_attempts=2):
    return RetryPolicy(max_attempts=max_attempts, backoff_base=0.001)


class TestCleanRuns:
    def test_inline_and_process_agree(self):
        population = clips()
        inline = run_jobs(
            SupervisedRunner(SupervisorConfig(isolation="inline")),
            jobs_for(population),
        )
        proc = run_jobs(
            SupervisedRunner(SupervisorConfig(isolation="process")),
            jobs_for(population),
        )
        assert [r.cost for r in inline] == [r.cost for r in proc]
        assert all(r.status is RouteStatus.OPTIMAL for r in proc)
        assert all(r.backend == "highs" for r in proc)
        assert all(r.attempts == 1 for r in proc)
        assert all(not r.degraded for r in proc)

    def test_on_result_fires_for_every_job(self):
        population = clips()
        seen = []
        run_jobs(
            SupervisedRunner(SupervisorConfig(isolation="process")),
            jobs_for(population),
            on_result=lambda i, r: seen.append(i),
        )
        assert sorted(seen) == [0, 1, 2]

    def test_inline_honors_router_subclass(self):
        """A job's own router (subclass included) must not be silently
        dropped on the inline path."""
        calls = []

        class CountingRouter(OptRouter):
            def route(self, clip, rules=None, warm=None):
                calls.append(clip.name)
                return super().route(clip, rules, warm=warm)

        population = clips(2)
        router = CountingRouter(time_limit=30.0)
        results = run_jobs(
            SupervisedRunner(SupervisorConfig(isolation="inline")),
            [RouteJob(clip, RuleConfig(), router) for clip in population],
        )
        assert calls == [c.name for c in population]
        assert all(r.feasible for r in results)


class TestCrashIsolation:
    def test_crashed_worker_does_not_lose_siblings(self):
        population = clips(3)
        plan = FaultPlan(by_index={1: FaultSpec(FaultKind.CRASH)})
        runner = SupervisedRunner(
            SupervisorConfig(isolation="process", retry=fast_retry(2))
        )
        results = run_jobs(runner, jobs_for(population), fault_plan=plan)
        # Order preserved, statuses correct, sibling results intact.
        assert [r.clip_name for r in results] == [c.name for c in population]
        assert results[0].status is RouteStatus.OPTIMAL
        assert results[1].status is RouteStatus.ERROR
        assert results[2].status is RouteStatus.OPTIMAL
        assert results[0].cost is not None and results[2].cost is not None

    def test_crash_result_carries_diagnostics(self):
        population = clips(1)
        plan = FaultPlan(by_index={0: FaultSpec(FaultKind.CRASH, exit_code=73)})
        runner = SupervisedRunner(
            SupervisorConfig(isolation="process", retry=fast_retry(2))
        )
        result = run_jobs(runner, jobs_for(population), fault_plan=plan)[0]
        assert result.status is RouteStatus.ERROR
        assert result.attempts == 2  # retried before giving up
        assert "crash" in result.diagnostics
        assert "73" in result.diagnostics

    def test_inline_crash_is_contained_too(self):
        population = clips(2)
        plan = FaultPlan(by_index={0: FaultSpec(FaultKind.CRASH)})
        runner = SupervisedRunner(
            SupervisorConfig(isolation="inline", retry=fast_retry(1))
        )
        results = run_jobs(runner, jobs_for(population), fault_plan=plan)
        assert results[0].status is RouteStatus.ERROR
        assert results[1].status is RouteStatus.OPTIMAL


class TestHardDeadline:
    def test_wedged_worker_reaped_within_twice_the_limit(self):
        limit = 1.0
        population = clips(1)
        plan = FaultPlan(by_index={0: FaultSpec(FaultKind.SLEEP, sleep_seconds=30.0)})
        runner = SupervisedRunner(
            SupervisorConfig(isolation="process", retry=fast_retry(1))
        )
        t0 = time.perf_counter()
        result = run_jobs(
            runner, jobs_for(population, time_limit=limit), fault_plan=plan
        )[0]
        elapsed = time.perf_counter() - t0
        assert result.status is RouteStatus.TIMEOUT
        assert elapsed < 2 * limit
        assert "deadline" in result.diagnostics

    def test_reaped_attempt_does_not_signal_the_parent_loop(self):
        """The service supervises attempts under an asyncio loop whose
        SIGTERM handler drains the server; the SIGTERM that reaps a
        wedged attempt must not reach that handler."""
        import asyncio
        import signal

        population = clips(1)
        plan = FaultPlan(by_index={0: FaultSpec(FaultKind.SLEEP, sleep_seconds=30.0)})
        runner = SupervisedRunner(
            SupervisorConfig(isolation="process", retry=fast_retry(1))
        )
        fired = []

        async def supervise():
            loop = asyncio.get_running_loop()
            loop.add_signal_handler(signal.SIGTERM, fired.append, "TERM")
            try:
                result = await loop.run_in_executor(None, lambda: run_jobs(
                    runner, jobs_for(population, time_limit=0.5),
                    fault_plan=plan,
                )[0])
                await asyncio.sleep(0.5)  # a stray wakeup would land here
            finally:
                loop.remove_signal_handler(signal.SIGTERM)
            return result

        result = asyncio.run(supervise())
        assert result.status is RouteStatus.TIMEOUT
        assert fired == []

    def test_timeout_skips_retries_on_same_backend(self):
        population = clips(1)
        plan = FaultPlan(by_index={0: FaultSpec(FaultKind.SLEEP, sleep_seconds=30.0)})
        runner = SupervisedRunner(
            SupervisorConfig(isolation="process", retry=fast_retry(3))
        )
        result = run_jobs(
            runner, jobs_for(population, time_limit=0.5), fault_plan=plan
        )[0]
        # A deterministic deadline blowup is not retried on the same
        # backend: one attempt, then give up (no fallback configured).
        assert result.status is RouteStatus.TIMEOUT
        assert result.attempts == 1


class TestRetry:
    def test_flaky_backend_succeeds_via_retry(self):
        population = clips(1)
        plan = FaultPlan(by_index={0: FaultSpec(FaultKind.FLAKY, fail_attempts=1)})
        for isolation in ("inline", "process"):
            runner = SupervisedRunner(
                SupervisorConfig(isolation=isolation, retry=fast_retry(2))
            )
            result = run_jobs(runner, jobs_for(population), fault_plan=plan)[0]
            assert result.status is RouteStatus.OPTIMAL
            assert result.attempts == 2
            assert not result.degraded
            assert "crash" in result.diagnostics  # first attempt recorded

    def test_backoff_is_bounded_and_monotone(self):
        policy = RetryPolicy(
            max_attempts=5, backoff_base=0.1, backoff_factor=2.0, backoff_max=0.3
        )
        delays = [policy.backoff_seconds(k) for k in range(5)]
        assert delays == sorted(delays)
        assert max(delays) == 0.3

    def test_bad_policies_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            SupervisorConfig(isolation="thread")
        with pytest.raises(ValueError):
            RetryPolicy(jitter_fraction=1.5)

    def test_seeded_jitter_spreads_concurrent_retries(self):
        # N jobs retrying the same flaky backend must not share a
        # delay (retry storms); keyed backoff spreads them.
        policy = RetryPolicy(backoff_base=1.0, backoff_max=10.0)
        delays = [
            policy.backoff_seconds(0, key=f"clip{i}|RULE1|highs")
            for i in range(16)
        ]
        assert len(set(delays)) == len(delays), "delays collided"
        spread = max(delays) - min(delays)
        assert spread > 0.1  # meaningfully spread, not epsilon-split
        # All within the jitter envelope around the base delay.
        assert all(0.75 <= d <= 1.25 for d in delays)

    def test_jitter_is_deterministic_per_key(self):
        policy = RetryPolicy(backoff_base=0.5)
        a = policy.backoff_seconds(1, key="c|r|highs")
        b = policy.backoff_seconds(1, key="c|r|highs")
        assert a == b  # pure function of (policy, retry, key): replayable
        assert a != policy.backoff_seconds(2, key="c|r|highs")

    def test_unkeyed_backoff_stays_deterministic(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_max=0.4)
        assert policy.backoff_seconds(1) == 0.2
        zero_jitter = RetryPolicy(backoff_base=0.1, jitter_fraction=0.0)
        assert zero_jitter.backoff_seconds(1, key="k") == 0.2


class TestFallbackChain:
    def test_falls_back_to_bnb_with_same_optimum(self):
        population = clips(1)
        clean = run_jobs(
            SupervisedRunner(SupervisorConfig(isolation="inline")),
            jobs_for(population),
        )[0]
        plan = FaultPlan(
            by_index={0: FaultSpec(FaultKind.CRASH, only_backend="highs")}
        )
        runner = SupervisedRunner(
            SupervisorConfig(
                isolation="process",
                retry=fast_retry(1),
                backends=("highs", "bnb"),
            )
        )
        result = run_jobs(runner, jobs_for(population), fault_plan=plan)[0]
        assert result.status is RouteStatus.OPTIMAL
        assert result.backend == "bnb"
        assert result.degraded  # non-primary backend is flagged
        assert result.cost == pytest.approx(clean.cost)

    def test_exhausted_chain_degrades_to_baseline(self):
        population = clips(1)
        clean = run_jobs(
            SupervisedRunner(SupervisorConfig(isolation="inline")),
            jobs_for(population),
        )[0]
        plan = FaultPlan(
            by_index={0: FaultSpec(FaultKind.CRASH, only_backend="highs")}
        )
        runner = SupervisedRunner(
            SupervisorConfig(
                isolation="process",
                retry=fast_retry(2),
                backends=("highs", "baseline"),
            )
        )
        result = run_jobs(runner, jobs_for(population), fault_plan=plan)[0]
        # Baseline produces a routing but no optimality proof: tagged
        # LIMIT + degraded so Δcost accounting excludes it.
        assert result.status is RouteStatus.LIMIT
        assert result.backend == "baseline"
        assert result.degraded
        assert result.attempts == 3  # 2 highs crashes + 1 baseline
        assert result.cost is not None
        assert result.cost >= clean.cost - 1e-9  # heuristic never beats optimum

    def test_fully_exhausted_chain_reports_error(self):
        population = clips(1)
        plan = FaultPlan(by_index={0: FaultSpec(FaultKind.CRASH)})  # all backends
        runner = SupervisedRunner(
            SupervisorConfig(
                isolation="process",
                retry=fast_retry(2),
                backends=("highs", "bnb"),
            )
        )
        result = run_jobs(runner, jobs_for(population), fault_plan=plan)[0]
        assert result.status is RouteStatus.ERROR
        assert result.attempts == 4
        assert result.diagnostics.count("crash") == 4

    def test_job_backend_positions_in_chain(self):
        runner = SupervisedRunner(
            SupervisorConfig(backends=("highs", "bnb", "baseline"))
        )
        population = clips(1)
        job_bnb = jobs_for(population, backend="bnb")[0]
        assert runner._chain(job_bnb) == ("bnb", "baseline")
        job_other = jobs_for(population, backend="exotic")[0]
        assert runner._chain(job_other) == (
            "exotic", "highs", "bnb", "baseline"
        )


class TestCorruptResults:
    def test_corrupt_payload_is_rejected_not_returned(self):
        population = clips(1)
        plan = FaultPlan(by_index={0: FaultSpec(FaultKind.CORRUPT)})
        for isolation in ("inline", "process"):
            runner = SupervisedRunner(
                SupervisorConfig(isolation=isolation, retry=fast_retry(1))
            )
            result = run_jobs(runner, jobs_for(population), fault_plan=plan)[0]
            assert result.status is RouteStatus.ERROR
            assert "corrupt" in result.diagnostics

    def test_corrupt_primary_recovers_via_fallback(self):
        population = clips(1)
        plan = FaultPlan(
            by_index={0: FaultSpec(FaultKind.CORRUPT, only_backend="highs")}
        )
        runner = SupervisedRunner(
            SupervisorConfig(
                isolation="inline",
                retry=fast_retry(1),
                backends=("highs", "bnb"),
            )
        )
        result = run_jobs(runner, jobs_for(population), fault_plan=plan)[0]
        assert result.status is RouteStatus.OPTIMAL
        assert result.backend == "bnb"


class TestAbort:
    def test_abort_fault_raises_sweep_aborted(self):
        population = clips(2)
        plan = FaultPlan(by_index={1: FaultSpec(FaultKind.ABORT)})
        runner = SupervisedRunner(
            SupervisorConfig(isolation="inline")
        )
        completed = []
        with pytest.raises(SweepAborted):
            run_jobs(
                runner,
                jobs_for(population),
                fault_plan=plan,
                on_result=lambda i, r: completed.append(i),
            )
        assert completed == [0]  # jobs before the abort were delivered


class TestAttemptLog:
    def test_clean_run_logs_one_ok_attempt(self):
        [job] = jobs_for(clips(1))
        result = SupervisedRunner(
            SupervisorConfig(isolation="inline")
        ).run_one(job)
        assert result.status is RouteStatus.OPTIMAL
        assert len(result.attempt_log) == 1
        entry = result.attempt_log[0]
        assert entry["attempt"] == 1
        assert entry["backend"] == "highs"
        assert entry["outcome"] == "ok"
        assert entry["seconds"] >= 0.0

    def test_crash_retry_logs_failure_then_success(self):
        [job] = jobs_for(clips(1))
        result = SupervisedRunner(
            SupervisorConfig(isolation="inline", retry=fast_retry())
        ).run_one(job, FaultSpec(FaultKind.FLAKY, fail_attempts=1))
        assert result.status is RouteStatus.OPTIMAL
        assert result.attempts == 2
        outcomes = [e["outcome"] for e in result.attempt_log]
        assert outcomes == ["crash", "ok"]
        assert result.attempt_log[0]["detail"]

    def test_exhausted_job_reports_every_attempt(self):
        [job] = jobs_for(clips(1))
        result = SupervisedRunner(
            SupervisorConfig(
                isolation="inline", retry=fast_retry(2),
                backends=("highs",),
            )
        ).run_one(job, FaultSpec(FaultKind.CRASH))
        assert result.failed
        assert len(result.attempt_log) == result.attempts
        assert all(e["outcome"] == "crash" for e in result.attempt_log)


def unpicklable_router(**kwargs) -> OptRouter:
    """An OptRouter that spawn cannot hand to a child: its class is
    local to this function, so pickle cannot look it up by name."""

    class LocalRouter(OptRouter):
        pass

    return LocalRouter(**kwargs)


class TestMpContext:
    def test_start_method_is_deterministic_not_platform_default(self):
        import multiprocessing as mp

        from repro.exec.runner import _mp_context

        method = _mp_context().get_start_method()
        expected = (
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        )
        assert method == expected

    def test_unpicklable_job_falls_back_inline_on_spawn(self, monkeypatch):
        import multiprocessing as mp

        import repro.exec.runner as runner_mod

        monkeypatch.setattr(
            runner_mod, "_mp_context", lambda: mp.get_context("spawn")
        )
        population = clips(1)
        router = unpicklable_router(time_limit=30.0)
        job = RouteJob(population[0], RuleConfig(), router)
        result = SupervisedRunner(
            SupervisorConfig(isolation="process")
        ).run_one(job)
        assert result.status is RouteStatus.OPTIMAL
        assert result.attempts == 1

    def test_spawn_fallback_still_honors_fault_plan(self, monkeypatch):
        import multiprocessing as mp

        import repro.exec.runner as runner_mod

        monkeypatch.setattr(
            runner_mod, "_mp_context", lambda: mp.get_context("spawn")
        )
        population = clips(1)
        router = unpicklable_router(time_limit=30.0)
        job = RouteJob(population[0], RuleConfig(), router)
        result = SupervisedRunner(
            SupervisorConfig(isolation="process", retry=fast_retry())
        ).run_one(job, FaultSpec(FaultKind.FLAKY, fail_attempts=1))
        # The injected crash fired inside the inline fallback (it was
        # not silently dropped with the failed pickling), then retry
        # recovered.
        assert result.status is RouteStatus.OPTIMAL
        assert result.attempts == 2
        assert [e["outcome"] for e in result.attempt_log] == ["crash", "ok"]


@dataclass
class PidLoggingRouter(OptRouter):
    """Appends the pid of every attempt that reaches routing to the file
    ``log``, and fails (a backend error) on the clip named ``fail_on``.
    Module-level, so that a job carrying it pickles."""

    log: str = ""
    fail_on: str = ""

    def route(self, clip, rules=None, warm=None):
        with open(self.log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        if clip.name == self.fail_on:
            raise RuntimeError("injected backend error")
        return super().route(clip, rules, warm=warm)


def logged_pids(path) -> "list[int]":
    path = Path(path)
    return [int(x) for x in path.read_text().split()] if path.exists() else []


def process_gone(pid: int) -> bool:
    """True once ``pid`` has exited (a zombie waiting for a reaper
    counts as gone: an orphan's reaper may be slow to collect it)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def _doomed_supervisor(log: str, ready: str) -> None:
    """Run one clean job on a process-isolated runner, then hang in
    ``on_result`` with the (idle) attempt process still running."""
    [job] = jobs_for(clips(1))
    job = replace(job, router=PidLoggingRouter(time_limit=30.0, log=log))

    def hang(_index, _result):
        Path(ready).touch()
        time.sleep(600)

    SupervisedRunner(SupervisorConfig(isolation="process")).run_groups(
        [[job]], on_result=hang
    )


class TestAttemptProcess:
    """One attempt process per runner call: reused after every success,
    replaced after every failure, never outliving the call."""

    def runner(self, max_attempts=1):
        return SupervisedRunner(
            SupervisorConfig(isolation="process", retry=fast_retry(max_attempts))
        )

    def logging_jobs(self, tmp_path, population, **router_kwargs):
        router = PidLoggingRouter(
            time_limit=30.0, log=str(tmp_path / "pids"), **router_kwargs
        )
        return [RouteJob(clip, RuleConfig(), router) for clip in population]

    def test_clean_run_uses_one_process(self, tmp_path):
        population = clips(4)
        results = run_jobs(self.runner(), self.logging_jobs(tmp_path, population))
        assert all(r.status is RouteStatus.OPTIMAL for r in results)
        pids = logged_pids(tmp_path / "pids")
        assert len(pids) == len(population)
        assert len(set(pids)) == 1
        assert pids[0] != os.getpid()

    @pytest.mark.parametrize("case", ["crash", "flaky", "sleep", "corrupt", "error"])
    def test_failed_attempt_replaces_the_process(self, tmp_path, case):
        population = clips(3)
        jobs = self.logging_jobs(
            tmp_path, population,
            fail_on=population[1].name if case == "error" else "",
        )
        faults = {
            "crash": FaultSpec(FaultKind.CRASH),
            "flaky": FaultSpec(FaultKind.FLAKY, fail_attempts=1),
            "sleep": FaultSpec(FaultKind.SLEEP, sleep_seconds=30.0),
            "corrupt": FaultSpec(FaultKind.CORRUPT),
        }
        plan = FaultPlan(by_index={1: faults[case]} if case in faults else {})
        if case == "sleep":
            jobs[1] = replace(jobs[1], router=replace(jobs[1].router, time_limit=0.5))
        results = run_jobs(
            self.runner(max_attempts=2 if case == "flaky" else 1),
            jobs,
            fault_plan=plan,
        )
        assert results[0].status is RouteStatus.OPTIMAL
        assert results[2].status is RouteStatus.OPTIMAL
        first, *middle, last = logged_pids(tmp_path / "pids")
        assert first != last
        # Which attempts reached routing, and where: a faulted attempt
        # dies or answers before routing, a backend error after it.
        expected = {
            "crash": [], "sleep": [], "corrupt": [],
            "flaky": [last],  # the retry, in the replacement process
            "error": [first],  # raised in the reused process
        }[case]
        assert middle == expected
        assert mp.active_children() == []

    def test_no_process_outlives_run_groups(self, tmp_path):
        run_jobs(self.runner(), self.logging_jobs(tmp_path, clips(2)))
        assert mp.active_children() == []

    def test_no_process_outlives_sweep_aborted(self, tmp_path):
        plan = FaultPlan(by_index={1: FaultSpec(FaultKind.ABORT)})
        with pytest.raises(SweepAborted):
            run_jobs(
                self.runner(), self.logging_jobs(tmp_path, clips(2)),
                fault_plan=plan,
            )
        assert len(logged_pids(tmp_path / "pids")) == 1
        assert mp.active_children() == []

    def test_no_process_outlives_a_raising_on_result(self, tmp_path):
        def boom(_index, _result):
            raise RuntimeError("observer failed")

        with pytest.raises(RuntimeError, match="observer failed"):
            run_jobs(
                self.runner(), self.logging_jobs(tmp_path, clips(2)),
                on_result=boom,
            )
        assert mp.active_children() == []

    def test_unpicklable_job_on_fork_runs_inline_with_its_faults(self):
        pids = []

        class LocalRouter(OptRouter):  # local: pickle cannot name it
            def route(self, clip, rules=None, warm=None):
                pids.append(os.getpid())
                return super().route(clip, rules, warm=warm)

        job = RouteJob(clips(1)[0], RuleConfig(), LocalRouter(time_limit=30.0))
        result = self.runner(max_attempts=2).run_one(
            job, FaultSpec(FaultKind.FLAKY, fail_attempts=1)
        )
        assert result.status is RouteStatus.OPTIMAL
        assert [e["outcome"] for e in result.attempt_log] == ["crash", "ok"]
        assert pids == [os.getpid()]
        assert mp.active_children() == []

    def test_runner_in_another_thread_leaves_the_pipe_alone(
        self, tmp_path, monkeypatch
    ):
        """The service runs experiments on scheduler threads, so one
        runner's attempt process can be forked while another runner's
        pipe is open.  It must not hold that pipe: the other attempt
        process still exits on EOF when its call ends, unsignalled."""
        import threading

        reaped = []
        reap = SupervisedRunner._reap

        def recording_reap(proc):
            reaped.append(proc.pid)
            reap(proc)

        monkeypatch.setattr(
            SupervisedRunner, "_reap", staticmethod(recording_reap)
        )
        first_running, second_running, first_done = (
            threading.Event() for _ in range(3)
        )
        first_job, second_job = self.logging_jobs(tmp_path, clips(2))
        results = []

        def first():
            # Its attempt process is idle before the second one forks,
            # and its call ends while the second one still runs.
            def hold(_index, _result):
                first_running.set()
                second_running.wait(60)

            results.extend(
                self.runner().run_groups([[first_job]], on_result=hold)
            )
            first_done.set()

        def second():
            def hold(_index, _result):
                second_running.set()
                first_done.wait(60)

            first_running.wait(60)
            results.extend(
                self.runner().run_groups([[second_job]], on_result=hold)
            )

        threads = [threading.Thread(target=f) for f in (first, second)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        assert not any(thread.is_alive() for thread in threads)
        assert [r.status for r in results] == [RouteStatus.OPTIMAL] * 2
        assert len(set(logged_pids(tmp_path / "pids"))) == 2
        assert reaped == []
        assert mp.active_children() == []

    @pytest.mark.skipif(
        "fork" not in mp.get_all_start_methods()
        or not os.path.isdir("/proc"),
        reason="needs fork and procfs",
    )
    def test_attempt_process_exits_when_its_supervisor_is_killed(
        self, tmp_path
    ):
        log, ready = tmp_path / "pids", tmp_path / "ready"
        supervisor = mp.get_context("fork").Process(
            target=_doomed_supervisor, args=(str(log), str(ready))
        )
        supervisor.start()
        attempt_pid = None
        try:
            deadline = time.monotonic() + 60.0
            while not ready.exists():
                assert time.monotonic() < deadline, "supervisor never ran"
                assert supervisor.is_alive(), "supervisor died early"
                time.sleep(0.05)
            [attempt_pid] = logged_pids(log)
            assert not process_gone(attempt_pid)  # idle, waiting for work
            os.kill(supervisor.pid, signal.SIGKILL)
            supervisor.join(10.0)
            deadline = time.monotonic() + 5.0
            while not process_gone(attempt_pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert process_gone(attempt_pid), (
                "attempt process outlived its supervisor"
            )
        finally:
            if supervisor.is_alive():
                supervisor.kill()
                supervisor.join(10.0)
            if attempt_pid is not None and not process_gone(attempt_pid):
                os.kill(attempt_pid, signal.SIGKILL)


class TestBudgetedDegradation:
    def _job(self):
        population = clips(1)
        router = OptRouter(time_limit=30.0)
        return RouteJob(population[0], RuleConfig(), router)

    def test_generous_budget_runs_the_exact_backend(self):
        from repro.exec import SweepBudget

        budget = SweepBudget(total=10_000.0)
        runner = SupervisedRunner(
            SupervisorConfig(isolation="process"), budget=budget
        )
        result = runner.run_one(self._job())
        assert result.status is RouteStatus.OPTIMAL
        assert result.backend == "highs"
        assert not result.degraded
        assert [entry["backend"] for entry in result.attempt_log] == ["highs"]

    def test_exhausted_budget_degrades_to_baseline(self):
        from repro.exec import SweepBudget

        now = [99.0]
        budget = SweepBudget(total=100.0, started=0.0, clock=lambda: now[0])
        runner = SupervisedRunner(
            SupervisorConfig(isolation="inline"), budget=budget
        )
        result = runner.run_one(self._job())
        assert result.backend == "baseline"
        assert result.degraded
        assert result.status is RouteStatus.LIMIT
