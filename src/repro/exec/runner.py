"""Supervised, fault-tolerant execution of clip-routing jobs.

Replaces the bare ``ProcessPoolExecutor.map`` batch layer: each job
runs under a supervisor that

- isolates worker crashes (a dead or OOM-killed process becomes a
  structured ``RouteStatus.ERROR`` result instead of poisoning the
  pool and losing sibling jobs);
- enforces the per-clip time limit as a *hard* wall-clock deadline
  (solvers treat their internal limits as advisory; a wedged attempt
  is reaped and reported as ``RouteStatus.TIMEOUT``);
- retries transient failures with bounded exponential backoff, then
  degrades through a configurable backend fallback chain (e.g.
  ``highs -> bnb -> baseline``), tagging every result with the
  backend/attempt that produced it.

Architecture: ``n_workers`` supervision threads each run one job at a
time; every *attempt* is a fresh child process connected by a pipe.
The supervisor waits on the pipe with a timeout, so a crash (EOF), a
wedge (poll timeout), and a success (payload) are all first-class
outcomes.  See ``docs/robustness.md``.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import signal
import time
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from threading import Lock

from repro.clips.clip import Clip
from repro.exec.faults import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    apply_fault,
    mutate_result,
)
from repro.exec.policy import SupervisorConfig
from repro.router.optrouter import OptRouteResult, OptRouter, RouteStatus, WarmStart
from repro.router.rules import RuleConfig
from repro.router.solution import ClipRouting

#: Exit code the worker's SIGTERM handler uses for a clean fast exit.
_TERM_EXIT = 97


class SweepAborted(RuntimeError):
    """An injected ABORT fault (or external kill) ended the sweep."""


@dataclass(frozen=True)
class RouteJob:
    """One (clip, rule) routing job.

    ``router`` optionally carries the caller's router instance so its
    exact settings (including subclasses) are honored; backends other
    than the router's own are derived with :func:`dataclasses.replace`.
    """

    clip: Clip
    rules: RuleConfig
    wire_cost: float = 1.0
    via_cost: float = 4.0
    backend: str = "highs"
    time_limit: float | None = None
    certify: bool = True
    router: OptRouter | None = None
    #: cross-rule warm-start seed, set by the incremental sweep's
    #: ``derive`` hook from the clip's settled outcomes.
    warm_routing: "ClipRouting | None" = None
    warm_cost: float | None = None
    warm_lower_bound: float | None = None
    warm_infeasible: bool = False
    #: the seed's provenance, as rule names: the rule whose proven
    #: outcome gave the lower bound (or the inherited infeasibility)
    #: and the rule whose routing is offered for reuse ("" = none).
    #: Bookkeeping for the sweep's journal; the router ignores them.
    warm_bound_from: str = ""
    warm_routing_from: str = ""
    #: persistent solve-cache directory (None = no cache).
    solve_cache_dir: str | None = None
    #: backends to race concurrently for this job (portfolio mode);
    #: None/empty = no racing.  The supervisor races them in separate
    #: processes and keeps the first *certified* answer; on a failed
    #: race the job falls through to the normal retry/fallback chain.
    race_with: tuple[str, ...] | None = None

    def warm_start(self) -> "WarmStart | None":
        if (
            self.warm_routing is None
            and self.warm_lower_bound is None
            and not self.warm_infeasible
        ):
            return None
        return WarmStart(
            routing=self.warm_routing,
            cost=self.warm_cost,
            lower_bound=self.warm_lower_bound,
            infeasible=self.warm_infeasible,
        )

    @classmethod
    def from_router(
        cls, clip: Clip, rules: RuleConfig, router: OptRouter
    ) -> "RouteJob":
        return cls(
            clip=clip,
            rules=rules,
            wire_cost=router.wire_cost,
            via_cost=router.via_cost,
            backend=router.backend,
            time_limit=router.time_limit,
            certify=router.certify,
            router=router,
        )


@dataclass(frozen=True)
class _Failure:
    kind: str  # "crash" | "timeout" | "error" | "corrupt"
    detail: str


def _attempt_entry(
    attempt: int, backend: str, outcome: str, detail: str, seconds: float
) -> dict:
    """One :attr:`OptRouteResult.attempt_log` entry (JSON-friendly)."""
    return {
        "attempt": attempt,
        "backend": backend,
        "outcome": outcome,
        "detail": detail,
        "seconds": round(seconds, 3),
    }


def _router_for(job: RouteJob, backend: str) -> OptRouter:
    if job.router is not None:
        router = job.router
        if router.backend != backend:
            router = replace(router, backend=backend)
        if job.solve_cache_dir is not None and router.solve_cache is None:
            from repro.ilp.solve_cache import SolveCache

            router = replace(
                router, solve_cache=SolveCache(job.solve_cache_dir)
            )
        return router
    solve_cache = None
    if job.solve_cache_dir is not None:
        from repro.ilp.solve_cache import SolveCache

        solve_cache = SolveCache(job.solve_cache_dir)
    return OptRouter(
        wire_cost=job.wire_cost,
        via_cost=job.via_cost,
        backend=backend,
        time_limit=job.time_limit,
        certify=job.certify,
        solve_cache=solve_cache,
    )


def _route_with_backend(job: RouteJob, backend: str) -> OptRouteResult:
    if backend == "baseline":
        return _route_with_baseline(job)
    router = _router_for(job, backend)
    warm = job.warm_start()
    # Only seeded jobs pass the keyword: OptRouter subclasses that
    # predate the warm path and override route(clip, rules) keep
    # working everywhere no seed is scheduled.
    if warm is None:
        result = router.route(job.clip, job.rules)
    else:
        result = router.route(job.clip, job.rules, warm=warm)
    result.backend = backend
    return result


def _route_with_baseline(job: RouteJob) -> OptRouteResult:
    """Adapt the heuristic A* router to the OptRouteResult contract.

    A feasible heuristic routing is reported as ``LIMIT`` — a valid
    routing with no optimality proof — so Δcost accounting (which only
    compares proven optima) automatically excludes it.  A heuristic
    failure proves nothing about the clip, so it is ``ERROR``.
    """
    from repro.router.baseline import BaselineClipRouter

    base = BaselineClipRouter(wire_cost=job.wire_cost, via_cost=job.via_cost)
    t0 = time.perf_counter()
    res = base.route(job.clip, job.rules)
    elapsed = time.perf_counter() - t0
    if res.feasible:
        return OptRouteResult(
            clip_name=job.clip.name,
            rule_name=job.rules.name,
            status=RouteStatus.LIMIT,
            cost=res.cost,
            wirelength=res.wirelength,
            n_vias=res.n_vias,
            solve_seconds=elapsed,
            backend="baseline",
        )
    return OptRouteResult(
        clip_name=job.clip.name,
        rule_name=job.rules.name,
        status=RouteStatus.ERROR,
        solve_seconds=elapsed,
        backend="baseline",
        diagnostics="baseline heuristic found no routing",
    )


def _attempt_payload(
    job: RouteJob,
    backend: str,
    fault: FaultSpec | None,
    attempt: int,
    inline: bool,
):
    injected = apply_fault(fault, backend, attempt, inline)
    if injected is not None:
        return injected
    return mutate_result(fault, backend, _route_with_backend(job, backend))


def _worker_main(job, backend, fault, attempt, conn) -> None:
    """Child-process entry: route one attempt, ship the payload back."""
    # Cooperative interrupt handling: a supervisor terminate() must not
    # leave the solver wedged in native code longer than necessary.
    try:
        signal.signal(signal.SIGTERM, lambda *_: _fast_exit())
    except ValueError:  # non-main thread (never expected; be safe)
        pass
    try:
        payload = _attempt_payload(job, backend, fault, attempt, inline=False)
        conn.send(("ok", payload))
    except BaseException as exc:  # noqa: BLE001 - worker must not die silently
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass


def _fast_exit() -> None:
    import os

    os._exit(_TERM_EXIT)


def _mp_context():
    """Deterministic start-method choice: ``fork`` where available,
    else explicitly ``spawn``.

    Never the platform *default* context (the old behaviour): the
    default can drift between Python versions and platforms, and a
    sweep's crash semantics must not depend on which interpreter ran
    it.  Spawn requires jobs to be picklable; attempts whose payload
    cannot be pickled fall back to an inline run that still honors the
    fault-injection plan (see ``_attempt_process``).
    """
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


class SupervisedRunner:
    """Runs batches of :class:`RouteJob` under the supervision policy.

    ``budget`` (a :class:`repro.exec.portfolio.SweepBudget`) enables
    runtime straggler control: as the sweep-level wall clock drains,
    jobs are degraded in bounded steps -- racing is dropped first, then
    the backend falls to the always-terminating heuristic baseline --
    and per-job time limits are clamped to what is actually left.
    """

    def __init__(
        self,
        config: SupervisorConfig | None = None,
        budget=None,
    ):
        self.config = config if config is not None else SupervisorConfig()
        self.budget = budget

    # -- public API ---------------------------------------------------------

    def run(
        self,
        jobs: Sequence[RouteJob],
        fault_plan: FaultPlan | None = None,
        on_result: "Callable[[int, OptRouteResult], None] | None" = None,
    ) -> list[OptRouteResult]:
        """Run all jobs; results come back in input order.

        ``on_result(index, result)`` fires as each job completes (under
        a lock when parallel) — the checkpoint hook.  Results are
        complete even when individual jobs crash or time out; only an
        injected ABORT fault raises :class:`SweepAborted`.
        """
        return self.run_groups(
            [[job] for job in jobs], fault_plan=fault_plan, on_result=on_result
        )

    def run_groups(
        self,
        groups: Sequence[Sequence[RouteJob]],
        fault_plan: FaultPlan | None = None,
        on_result: "Callable[[int, OptRouteResult], None] | None" = None,
        derive: "Callable[[RouteJob], RouteJob] | None" = None,
    ) -> list[OptRouteResult]:
        """Run groups of jobs; jobs within a group run *in order on
        one worker*, so later jobs can be rewritten from earlier
        results — the cross-rule warm-start mechanism (one group per
        clip, in the sweep's lattice order).

        ``derive(job)`` is called right before each job runs, after
        ``on_result`` has seen every earlier job of the group; it
        returns the (possibly rewritten) job to run.  Parallelism is
        across groups.  Fault indices and ``on_result`` indices are
        flat positions in the concatenated job order, so journals and
        fault plans are agnostic of the grouping.
        """
        flat: list[RouteJob] = [job for group in groups for job in group]
        faults = [
            fault_plan.fault_for(i, job.clip.name, job.rules.name)
            if fault_plan is not None
            else None
            for i, job in enumerate(flat)
        ]
        starts: list[int] = []
        offset = 0
        for group in groups:
            starts.append(offset)
            offset += len(group)
        results: list[OptRouteResult | None] = [None] * len(flat)
        lock = Lock()
        sequential = self.config.n_workers == 1

        def _run_group(g: int) -> None:
            for j, job in enumerate(groups[g]):
                index = starts[g] + j
                if derive is not None:
                    job = derive(job)
                result = self.run_one(job, faults[index], index=index)
                if sequential:
                    results[index] = result
                    if on_result is not None:
                        on_result(index, result)
                else:
                    with lock:
                        results[index] = result
                        if on_result is not None:
                            on_result(index, result)

        if sequential:
            for g in range(len(groups)):
                _run_group(g)
            return [r for r in results if r is not None]

        with ThreadPoolExecutor(max_workers=self.config.n_workers) as pool:
            futures = [
                pool.submit(_run_group, g) for g in range(len(groups))
            ]
            for future in futures:
                future.result()  # propagate SweepAborted / internal errors
        return [r for r in results if r is not None]

    def run_one(
        self,
        job: RouteJob,
        fault: FaultSpec | None = None,
        index: int = 0,
    ) -> OptRouteResult:
        """Run one job through retry + fallback; never raises for
        worker failures (ABORT faults excepted)."""
        if fault is not None and fault.kind is FaultKind.ABORT:
            raise SweepAborted(
                f"injected abort at job {index} "
                f"({job.clip.name}, {job.rules.name})"
            )
        job = self._apply_budget(job)
        attempt_log: list[dict] = []
        notes: list[str] = []
        if job.race_with:
            raced = self._race(job, attempt_log, notes)
            if raced is not None:
                return raced
        chain = self._chain(job)
        policy = self.config.retry
        attempts = len(attempt_log)
        last_failure: _Failure | None = None
        for depth, backend in enumerate(chain):
            for retry in range(policy.max_attempts):
                attempts += 1
                t0 = time.perf_counter()
                result, failure = self._attempt(job, backend, fault, attempts)
                elapsed = time.perf_counter() - t0
                if result is not None:
                    result.backend = backend
                    result.attempts = attempts
                    result.degraded = depth > 0 or backend == "baseline"
                    if notes:
                        result.diagnostics = "; ".join(notes)
                    attempt_log.append(_attempt_entry(
                        attempts, backend, "ok", "", elapsed
                    ))
                    result.attempt_log = attempt_log
                    return result
                assert failure is not None
                last_failure = failure
                notes.append(
                    f"attempt {attempts} [{backend}]: "
                    f"{failure.kind}: {failure.detail}"
                )
                attempt_log.append(_attempt_entry(
                    attempts, backend, failure.kind, failure.detail, elapsed
                ))
                if failure.kind == "timeout":
                    break  # deterministic under the same deadline
                if retry + 1 < policy.max_attempts:
                    # Keyed per (clip, rule, backend): seeded jitter
                    # spreads concurrent retries of a flaky backend.
                    time.sleep(policy.backoff_seconds(
                        retry, key=f"{job.clip.name}|{job.rules.name}|{backend}"
                    ))
        status = (
            RouteStatus.TIMEOUT
            if last_failure is not None and last_failure.kind == "timeout"
            else RouteStatus.ERROR
        )
        return OptRouteResult(
            clip_name=job.clip.name,
            rule_name=job.rules.name,
            status=status,
            backend=chain[-1],
            attempts=attempts,
            diagnostics="; ".join(notes),
            attempt_log=attempt_log,
        )

    def _apply_budget(self, job: RouteJob) -> RouteJob:
        """Degrade the job to fit the sweep budget (bounded steps).

        Tiers (see :class:`repro.exec.portfolio.SweepBudget`): plenty
        of budget -> run as scheduled (racing allowed); running low ->
        drop racing, keep the single exact backend; nearly exhausted ->
        heuristic baseline, whose LIMIT results are visibly degraded
        rather than silently wrong.  Time limits are clamped so no
        single job can overrun the whole remaining budget.
        """
        budget = self.budget
        if budget is None:
            return job
        tier = budget.tier()  # "race" | "single" | "baseline"
        changes: dict = {}
        if tier != "race" and job.race_with:
            changes["race_with"] = None
        if tier == "baseline" and job.backend != "baseline":
            changes["backend"] = "baseline"
            changes["race_with"] = None
        clamped = budget.clamp(job.time_limit)
        if clamped is not None and (
            job.time_limit is None or clamped < job.time_limit
        ):
            changes["time_limit"] = max(0.1, clamped)
        return replace(job, **changes) if changes else job

    def _race(
        self, job: RouteJob, attempt_log: "list[dict]", notes: "list[str]"
    ) -> "OptRouteResult | None":
        """Portfolio-race the job's ``race_with`` backends.

        Returns the certified winner, or None to fall through to the
        sequential retry/fallback chain (bounded degradation: a failed
        race costs one logged attempt, never the job).
        """
        assert job.race_with
        if self.config.isolation != "process":
            notes.append(
                "race skipped: inline isolation cannot spawn racer "
                "processes"
            )
            return None
        from repro.exec.portfolio import race_solve  # lazy: cycle

        backends = tuple(job.race_with)
        outcome = race_solve(
            job,
            backends,
            deadline=self.config.deadline_for(job.time_limit),
            certify_winner=job.certify,
        )
        label = "race:" + "+".join(backends)
        if outcome.winner is not None:
            detail = f"winner={outcome.winner}"
            if outcome.cancelled:
                detail += f"; cancelled={','.join(outcome.cancelled)}"
            if outcome.rejected:
                detail += f"; rejected={','.join(outcome.rejected)}"
            attempt_log.append(_attempt_entry(
                1, label, "ok", detail, outcome.elapsed
            ))
            result = outcome.result
            result.attempts = 1
            if notes:
                result.diagnostics = "; ".join(
                    filter(None, [result.diagnostics, *notes])
                )
            result.attempt_log = attempt_log
            return result
        detail = outcome.result.diagnostics or "no racer certified"
        attempt_log.append(_attempt_entry(
            1, label, outcome.result.status.value, detail, outcome.elapsed
        ))
        notes.append(f"attempt 1 [{label}]: {detail}")
        return None

    # -- internals ----------------------------------------------------------

    def _chain(self, job: RouteJob) -> tuple[str, ...]:
        chain = self.config.backends
        if chain is None:
            return (job.backend,)
        if job.backend in chain:
            return tuple(chain[chain.index(job.backend):])
        return (job.backend, *chain)

    def _attempt(
        self, job: RouteJob, backend: str, fault: FaultSpec | None, attempt: int
    ) -> "tuple[OptRouteResult | None, _Failure | None]":
        if self.config.isolation == "inline":
            return self._attempt_inline(job, backend, fault, attempt)
        return self._attempt_process(job, backend, fault, attempt)

    def _validate(self, payload) -> "tuple[OptRouteResult | None, _Failure | None]":
        if not isinstance(payload, OptRouteResult):
            return None, _Failure(
                "corrupt", f"worker returned {type(payload).__name__!s}, "
                "not an OptRouteResult"
            )
        if payload.status is RouteStatus.ERROR:
            return None, _Failure(
                "error", payload.diagnostics or "backend reported an error"
            )
        return payload, None

    def _attempt_inline(
        self, job: RouteJob, backend: str, fault: FaultSpec | None, attempt: int
    ) -> "tuple[OptRouteResult | None, _Failure | None]":
        t0 = time.perf_counter()
        try:
            payload = _attempt_payload(job, backend, fault, attempt, inline=True)
        except InjectedCrash as exc:
            return None, _Failure("crash", str(exc))
        except Exception as exc:  # worker-equivalent containment
            return None, _Failure("error", f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - t0
        deadline = self.config.deadline_for(job.time_limit)
        if deadline is not None and elapsed > deadline:
            # Inline isolation cannot preempt; enforce the deadline
            # post-hoc so both isolation modes share semantics.
            return None, _Failure(
                "timeout",
                f"ran {elapsed:.2f}s past hard deadline {deadline:.2f}s",
            )
        return self._validate(payload)

    def _attempt_process(
        self, job: RouteJob, backend: str, fault: FaultSpec | None, attempt: int
    ) -> "tuple[OptRouteResult | None, _Failure | None]":
        ctx = _mp_context()
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_worker_main,
            args=(job, backend, fault, attempt, child_conn),
            daemon=True,
        )
        try:
            proc.start()
        except (pickle.PicklingError, TypeError, AttributeError):
            # Spawn-only platforms must pickle the job to the child.
            # An unpicklable job (e.g. a router subclass holding a live
            # handle) degrades to an inline attempt that still applies
            # the SAME fault spec -- losing isolation must never
            # silently lose the fault-injection plan.
            parent_conn.close()
            child_conn.close()
            return self._attempt_inline(job, backend, fault, attempt)
        child_conn.close()
        deadline = self.config.deadline_for(job.time_limit)
        try:
            if not parent_conn.poll(deadline):
                self._reap(proc)
                return None, _Failure(
                    "timeout", f"hard deadline {deadline:.2f}s exceeded; "
                    "worker terminated"
                )
            try:
                tag, payload = parent_conn.recv()
            except (EOFError, OSError):
                proc.join(5.0)
                return None, _Failure(
                    "crash", f"worker died without a result "
                    f"(exit code {proc.exitcode})"
                )
        finally:
            parent_conn.close()
        proc.join(5.0)
        if proc.is_alive():
            self._reap(proc)
        if tag == "error":
            return None, _Failure("error", str(payload))
        return self._validate(payload)

    @staticmethod
    def _reap(proc) -> None:
        proc.terminate()
        proc.join(2.0)
        if proc.is_alive():
            proc.kill()
            proc.join(2.0)
