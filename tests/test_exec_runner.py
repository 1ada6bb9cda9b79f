"""End-to-end tests for the supervised fault-tolerant runner.

Every policy is proven against real injected failures: crashed child
processes, wedged workers reaped at the hard deadline, flaky backends
that heal under retry, and fallback chains that degrade to the
heuristic baseline.
"""

import time
from dataclasses import replace

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
    return [
        RouteJob.from_router(clip, RuleConfig(), router) for clip in population
    ]


def fast_retry(max_attempts=2):
    return RetryPolicy(max_attempts=max_attempts, backoff_base=0.001)


class TestCleanRuns:
    def test_inline_and_process_agree(self):
        population = clips()
        inline = SupervisedRunner(
            SupervisorConfig(n_workers=1, isolation="inline")
        ).run(jobs_for(population))
        proc = SupervisedRunner(
            SupervisorConfig(n_workers=2, isolation="process")
        ).run(jobs_for(population))
        assert [r.cost for r in inline] == [r.cost for r in proc]
        assert all(r.status is RouteStatus.OPTIMAL for r in proc)
        assert all(r.backend == "highs" for r in proc)
        assert all(r.attempts == 1 for r in proc)
        assert all(not r.degraded for r in proc)

    def test_on_result_fires_for_every_job(self):
        population = clips()
        seen = []
        SupervisedRunner(
            SupervisorConfig(n_workers=2, isolation="process")
        ).run(jobs_for(population), on_result=lambda i, r: seen.append(i))
        assert sorted(seen) == [0, 1, 2]

    def test_inline_honors_router_subclass(self):
        """A job's own router (subclass included) must not be silently
        dropped on the inline path."""
        calls = []

        class CountingRouter(OptRouter):
            def route(self, clip, rules=None):
                calls.append(clip.name)
                return super().route(clip, rules)

        population = clips(2)
        router = CountingRouter(time_limit=30.0)
        results = SupervisedRunner(
            SupervisorConfig(n_workers=1, isolation="inline")
        ).run([
            RouteJob.from_router(clip, RuleConfig(), router)
            for clip in population
        ])
        assert calls == [c.name for c in population]
        assert all(r.feasible for r in results)


class TestCrashIsolation:
    def test_crashed_worker_does_not_lose_siblings(self):
        population = clips(3)
        plan = FaultPlan(by_index={1: FaultSpec(FaultKind.CRASH)})
        runner = SupervisedRunner(
            SupervisorConfig(
                n_workers=2, isolation="process", retry=fast_retry(2)
            )
        )
        results = runner.run(jobs_for(population), fault_plan=plan)
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
            SupervisorConfig(
                n_workers=1, isolation="process", retry=fast_retry(2)
            )
        )
        result = runner.run(jobs_for(population), fault_plan=plan)[0]
        assert result.status is RouteStatus.ERROR
        assert result.attempts == 2  # retried before giving up
        assert "crash" in result.diagnostics
        assert "73" in result.diagnostics

    def test_inline_crash_is_contained_too(self):
        population = clips(2)
        plan = FaultPlan(by_index={0: FaultSpec(FaultKind.CRASH)})
        runner = SupervisedRunner(
            SupervisorConfig(
                n_workers=1, isolation="inline", retry=fast_retry(1)
            )
        )
        results = runner.run(jobs_for(population), fault_plan=plan)
        assert results[0].status is RouteStatus.ERROR
        assert results[1].status is RouteStatus.OPTIMAL


class TestHardDeadline:
    def test_wedged_worker_reaped_within_twice_the_limit(self):
        limit = 1.0
        population = clips(1)
        plan = FaultPlan(by_index={0: FaultSpec(FaultKind.SLEEP, sleep_seconds=30.0)})
        runner = SupervisedRunner(
            SupervisorConfig(
                n_workers=1, isolation="process", retry=fast_retry(1)
            )
        )
        t0 = time.perf_counter()
        result = runner.run(
            jobs_for(population, time_limit=limit), fault_plan=plan
        )[0]
        elapsed = time.perf_counter() - t0
        assert result.status is RouteStatus.TIMEOUT
        assert elapsed < 2 * limit
        assert "deadline" in result.diagnostics

    def test_timeout_skips_retries_on_same_backend(self):
        population = clips(1)
        plan = FaultPlan(by_index={0: FaultSpec(FaultKind.SLEEP, sleep_seconds=30.0)})
        runner = SupervisedRunner(
            SupervisorConfig(
                n_workers=1, isolation="process", retry=fast_retry(3)
            )
        )
        result = runner.run(
            jobs_for(population, time_limit=0.5), fault_plan=plan
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
                SupervisorConfig(
                    n_workers=1, isolation=isolation, retry=fast_retry(2)
                )
            )
            result = runner.run(jobs_for(population), fault_plan=plan)[0]
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
            SupervisorConfig(n_workers=0)
        with pytest.raises(ValueError):
            SupervisorConfig(isolation="thread")
        with pytest.raises(ValueError):
            SupervisorConfig(hard_deadline_factor=5.0)
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
        clean = SupervisedRunner(
            SupervisorConfig(n_workers=1, isolation="inline")
        ).run(jobs_for(population))[0]
        plan = FaultPlan(
            by_index={0: FaultSpec(FaultKind.CRASH, only_backend="highs")}
        )
        runner = SupervisedRunner(
            SupervisorConfig(
                n_workers=1,
                isolation="process",
                retry=fast_retry(1),
                backends=("highs", "bnb"),
            )
        )
        result = runner.run(jobs_for(population), fault_plan=plan)[0]
        assert result.status is RouteStatus.OPTIMAL
        assert result.backend == "bnb"
        assert result.degraded  # non-primary backend is flagged
        assert result.cost == pytest.approx(clean.cost)

    def test_exhausted_chain_degrades_to_baseline(self):
        population = clips(1)
        clean = SupervisedRunner(
            SupervisorConfig(n_workers=1, isolation="inline")
        ).run(jobs_for(population))[0]
        plan = FaultPlan(
            by_index={0: FaultSpec(FaultKind.CRASH, only_backend="highs")}
        )
        runner = SupervisedRunner(
            SupervisorConfig(
                n_workers=1,
                isolation="process",
                retry=fast_retry(2),
                backends=("highs", "baseline"),
            )
        )
        result = runner.run(jobs_for(population), fault_plan=plan)[0]
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
                n_workers=1,
                isolation="process",
                retry=fast_retry(2),
                backends=("highs", "bnb"),
            )
        )
        result = runner.run(jobs_for(population), fault_plan=plan)[0]
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
                SupervisorConfig(
                    n_workers=1, isolation=isolation, retry=fast_retry(1)
                )
            )
            result = runner.run(jobs_for(population), fault_plan=plan)[0]
            assert result.status is RouteStatus.ERROR
            assert "corrupt" in result.diagnostics

    def test_corrupt_primary_recovers_via_fallback(self):
        population = clips(1)
        plan = FaultPlan(
            by_index={0: FaultSpec(FaultKind.CORRUPT, only_backend="highs")}
        )
        runner = SupervisedRunner(
            SupervisorConfig(
                n_workers=1,
                isolation="inline",
                retry=fast_retry(1),
                backends=("highs", "bnb"),
            )
        )
        result = runner.run(jobs_for(population), fault_plan=plan)[0]
        assert result.status is RouteStatus.OPTIMAL
        assert result.backend == "bnb"


class TestAbort:
    def test_abort_fault_raises_sweep_aborted(self):
        population = clips(2)
        plan = FaultPlan(by_index={1: FaultSpec(FaultKind.ABORT)})
        runner = SupervisedRunner(
            SupervisorConfig(n_workers=1, isolation="inline")
        )
        completed = []
        with pytest.raises(SweepAborted):
            runner.run(
                jobs_for(population),
                fault_plan=plan,
                on_result=lambda i, r: completed.append(i),
            )
        assert completed == [0]  # jobs before the abort were delivered


class TestAttemptLog:
    def test_clean_run_logs_one_ok_attempt(self):
        [job] = jobs_for(clips(1))
        result = SupervisedRunner(
            SupervisorConfig(n_workers=1, isolation="inline")
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
            SupervisorConfig(
                n_workers=1, isolation="inline", retry=fast_retry()
            )
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
                n_workers=1, isolation="inline", retry=fast_retry(2),
                backends=("highs",),
            )
        ).run_one(job, FaultSpec(FaultKind.CRASH))
        assert result.failed
        assert len(result.attempt_log) == result.attempts
        assert all(e["outcome"] == "crash" for e in result.attempt_log)


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
        router = OptRouter(time_limit=30.0)
        router.cancel_check = lambda: False  # lambdas cannot pickle
        job = RouteJob.from_router(population[0], RuleConfig(), router)
        result = SupervisedRunner(
            SupervisorConfig(n_workers=1, isolation="process")
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
        router = OptRouter(time_limit=30.0)
        router.cancel_check = lambda: False
        job = RouteJob.from_router(population[0], RuleConfig(), router)
        result = SupervisedRunner(
            SupervisorConfig(
                n_workers=1, isolation="process", retry=fast_retry()
            )
        ).run_one(job, FaultSpec(FaultKind.FLAKY, fail_attempts=1))
        # The injected crash fired inside the inline fallback (it was
        # not silently dropped with the failed pickling), then retry
        # recovered.
        assert result.status is RouteStatus.OPTIMAL
        assert result.attempts == 2
        assert [e["outcome"] for e in result.attempt_log] == ["crash", "ok"]


class TestRacingIntegration:
    def test_raced_job_matches_sequential_and_logs_race(self):
        population = clips(1)
        router = OptRouter(time_limit=30.0)
        sequential = router.route(population[0], RuleConfig())
        job = RouteJob.from_router(population[0], RuleConfig(), router)
        job = replace(job, race_with=("highs", "bnb"))
        result = SupervisedRunner(
            SupervisorConfig(n_workers=1, isolation="process")
        ).run_one(job)
        assert result.status is sequential.status
        assert result.cost == sequential.cost
        assert result.backend in ("highs", "bnb")
        assert result.attempt_log[0]["backend"] == "race:highs+bnb"

    def test_inline_isolation_skips_race_with_note(self):
        population = clips(1)
        router = OptRouter(time_limit=30.0)
        job = RouteJob.from_router(population[0], RuleConfig(), router)
        job = replace(job, race_with=("highs", "bnb"))
        result = SupervisedRunner(
            SupervisorConfig(n_workers=1, isolation="inline")
        ).run_one(job)
        assert result.status is RouteStatus.OPTIMAL
        assert "race skipped" in (result.diagnostics or "")


class TestBudgetedDegradation:
    def _job(self):
        population = clips(1)
        router = OptRouter(time_limit=30.0)
        job = RouteJob.from_router(population[0], RuleConfig(), router)
        return replace(job, race_with=("highs", "bnb"))

    def test_generous_budget_keeps_racing(self):
        from repro.exec import SweepBudget

        budget = SweepBudget(total=10_000.0)
        runner = SupervisedRunner(
            SupervisorConfig(n_workers=1, isolation="process"), budget=budget
        )
        result = runner.run_one(self._job())
        assert result.status is RouteStatus.OPTIMAL
        assert result.attempt_log[0]["backend"].startswith("race:")

    def test_low_budget_drops_racing(self):
        from repro.exec import SweepBudget

        now = [75.0]
        budget = SweepBudget(
            total=100.0, started=0.0, clock=lambda: now[0]
        )  # 25% left -> single tier
        runner = SupervisedRunner(
            SupervisorConfig(n_workers=1, isolation="process"), budget=budget
        )
        result = runner.run_one(self._job())
        assert result.status is RouteStatus.OPTIMAL
        assert result.backend == "highs"
        assert not result.attempt_log[0]["backend"].startswith("race:")

    def test_exhausted_budget_degrades_to_baseline(self):
        from repro.exec import SweepBudget

        now = [99.0]
        budget = SweepBudget(total=100.0, started=0.0, clock=lambda: now[0])
        runner = SupervisedRunner(
            SupervisorConfig(n_workers=1, isolation="inline"), budget=budget
        )
        result = runner.run_one(self._job())
        assert result.backend == "baseline"
        assert result.status in (RouteStatus.LIMIT, RouteStatus.INFEASIBLE)
