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

Architecture: the runner works through its jobs one at a time.  Under
process isolation its attempts run in an *attempt process*, a child
started on the first attempt of a ``run_groups``/``run_one`` call and
connected by a duplex pipe: the supervisor sends each attempt pickled,
then waits on the pipe with a timeout, so a crash (EOF), a wedge (poll
timeout), and a success (payload) are all first-class outcomes.  The
process serves the call's next attempt after a success; any failed
attempt reaps it, so the attempt after a failure (a retry included)
starts in a fresh process, and none outlives the call.  A sweep runs
in parallel only on lease workers (:mod:`repro.exec.distributed`),
each with its own runner.  See ``docs/robustness.md``.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import signal
import time
from collections.abc import Callable, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, replace

from repro.clips.clip import Clip
from repro.exec.faults import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    apply_fault,
    mutate_result,
)
from repro.exec.policy import SupervisorConfig, deadline_for
from repro.router.optrouter import OptRouteResult, OptRouter, RouteStatus, WarmStart
from repro.router.rules import RuleConfig

#: Exit code the worker's SIGTERM handler uses for a clean fast exit.
_TERM_EXIT = 97


class SweepAborted(RuntimeError):
    """An injected ABORT fault (or external kill) ended the sweep."""


@dataclass(frozen=True)
class RouteJob:
    """One (clip, rule) routing job.

    ``router`` is the sweep's router, whose settings (subclasses
    included) every attempt honors; an attempt on another backend
    derives its router with :func:`dataclasses.replace`.
    """

    clip: Clip
    rules: RuleConfig
    router: OptRouter
    #: cross-rule warm-start seed, set by the sweep's ``derive`` hook
    #: from the clip's settled outcomes.
    warm: WarmStart | None = None
    #: the seed's provenance, as rule names: the rule whose proven
    #: outcome gave the lower bound (or the inherited infeasibility)
    #: and the rule whose routing is offered for reuse ("" = none).
    #: Bookkeeping for the sweep's journal; the router ignores them.
    warm_bound_from: str = ""
    warm_routing_from: str = ""


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


def _route_with_backend(job: RouteJob, backend: str) -> OptRouteResult:
    if backend == "baseline":
        return _route_with_baseline(job)
    router = job.router
    if router.backend != backend:
        router = replace(router, backend=backend)
    result = router.route(job.clip, job.rules, warm=job.warm)
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

    base = BaselineClipRouter(
        wire_cost=job.router.wire_cost, via_cost=job.router.via_cost
    )
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


def _reply(conn, job, backend, fault, attempt) -> None:
    """Run one attempt in this child process and send the supervisor
    ``("ok", payload)`` or ``("error", detail)``."""
    try:
        payload = _attempt_payload(job, backend, fault, attempt, inline=False)
        conn.send(("ok", payload))
    except BaseException as exc:  # noqa: BLE001 - worker must not die silently
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass


def _become_worker() -> None:
    """Signal setup of a child that runs attempts."""
    # Cooperative interrupt handling: a supervisor terminate() must not
    # leave the solver wedged in native code longer than necessary.
    try:
        _detach_wakeup_fd()
        signal.signal(signal.SIGTERM, lambda *_: _fast_exit())
    except ValueError:  # non-main thread (never expected; be safe)
        pass


#: The supervisor ends of the live attempt processes' pipes.  Every
#: forked child closes its copies first thing (``_close_supervisor_ends``
#: runs after each fork): an attempt process learns that its supervisor
#: is done with it, or dead, only from EOF on its pipe, and EOF never
#: comes while another process -- the attempt process itself, or one a
#: runner in another thread forked -- holds a copy of that end.
_SUPERVISOR_ENDS: set = set()


def _close_supervisor_ends() -> None:
    for conn in _SUPERVISOR_ENDS:
        conn.close()
    _SUPERVISOR_ENDS.clear()


if hasattr(os, "register_at_fork"):  # POSIX; spawn children inherit nothing
    os.register_at_fork(after_in_child=_close_supervisor_ends)


def _attempt_loop(conn) -> None:
    """Attempt-process entry: run each attempt received on ``conn``
    until the supervisor closes its end."""
    _become_worker()
    while True:
        try:
            job, backend, fault, attempt = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            # The supervisor is done with this process or dead, or a
            # Ctrl-C reached the idle process: exit without a traceback.
            return
        _reply(conn, job, backend, fault, attempt)


class _AttemptProcess:
    """A child process that runs the attempts it is sent, one at a time.

    :meth:`run` sends one pickled attempt and waits for its reply up to
    the hard deadline; :meth:`close` ends the process -- by EOF when it
    is idle, by :meth:`SupervisedRunner._reap` when an attempt is still
    running (a wedged solve) or the EOF is not heeded.
    """

    def __init__(self) -> None:
        ctx = _mp_context()
        self.conn, child_conn = ctx.Pipe(duplex=True)
        _SUPERVISOR_ENDS.add(self.conn)
        self.proc = ctx.Process(
            target=_attempt_loop, args=(child_conn,), daemon=True
        )
        try:
            self.proc.start()
        except BaseException:
            _SUPERVISOR_ENDS.discard(self.conn)
            self.conn.close()
            raise
        finally:
            child_conn.close()
        self.busy = False

    def run(
        self, message: bytes, deadline: float | None
    ) -> "tuple[str, object] | _Failure":
        """The attempt's ``(tag, payload)`` reply, or how it failed."""
        self.busy = True
        try:
            self.conn.send_bytes(message)
            if not self.conn.poll(deadline):
                return _Failure(
                    "timeout", f"hard deadline {deadline:.2f}s exceeded; "
                    "worker terminated"
                )
            reply = self.conn.recv()
        except (EOFError, OSError):
            self.proc.join(5.0)
            return _Failure(
                "crash", f"worker died without a result "
                f"(exit code {self.proc.exitcode})"
            )
        self.busy = False
        return reply

    def close(self) -> None:
        _SUPERVISOR_ENDS.discard(self.conn)
        self.conn.close()
        if not self.busy:
            self.proc.join(2.0)
        if self.proc.is_alive():
            SupervisedRunner._reap(self.proc)


def _detach_wakeup_fd() -> None:
    """Stop this forked child's signals from reaching its parent.

    A fork inherits the parent's signal wakeup fd -- in ``repro
    serve``, the self-pipe of the asyncio loop whose SIGTERM handler
    drains the server -- so every signal the child receives (the
    supervisor's terminate() included) would also run the parent's
    handler."""
    signal.set_wakeup_fd(-1)


def _fast_exit() -> None:
    import os

    os._exit(_TERM_EXIT)


def _mp_context():
    """Deterministic start-method choice: ``fork`` where available,
    else explicitly ``spawn``.

    Never the platform *default* context (the old behaviour): the
    default can drift between Python versions and platforms, and a
    sweep's crash semantics must not depend on which interpreter ran
    it.  Attempts reach their process pickled under either method; an
    attempt whose job cannot be pickled falls back to an inline run
    that still honors the fault-injection plan (see
    ``_attempt_process``).
    """
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


class SupervisedRunner:
    """Runs batches of :class:`RouteJob` under the supervision policy.

    ``budget`` (a :class:`repro.exec.portfolio.SweepBudget`) enables
    runtime straggler control: per-job time limits are clamped to what
    is actually left of the sweep-level wall clock, and once it is
    nearly spent the backend falls to the always-terminating heuristic
    baseline.

    A runner serves one call at a time (it holds the call's attempt
    process); concurrent sweeps each build their own, as
    :func:`repro.eval.flow.evaluate_clips` does.
    """

    def __init__(
        self,
        config: SupervisorConfig | None = None,
        budget=None,
    ):
        self.config = config if config is not None else SupervisorConfig()
        self.budget = budget
        #: the current call's attempt process (process isolation only).
        self._worker: _AttemptProcess | None = None
        self._in_call = False

    # -- public API ---------------------------------------------------------

    def run_groups(
        self,
        groups: Sequence[Sequence[RouteJob]],
        fault_plan: FaultPlan | None = None,
        on_result: "Callable[[int, OptRouteResult], None] | None" = None,
        derive: "Callable[[RouteJob], RouteJob] | None" = None,
    ) -> list[OptRouteResult]:
        """Run groups of jobs in order, one job at a time; results come
        back in that order.  Jobs within a group may be rewritten from
        earlier results -- the cross-rule warm-start mechanism (one
        group per clip, in the sweep's lattice order).

        ``derive(job)`` is called right before each job runs, after
        ``on_result(index, result)`` -- the checkpoint hook -- has seen
        every earlier job; it returns the (possibly rewritten) job to
        run.  Fault indices and ``on_result`` indices are flat
        positions in the concatenated job order, so journals and fault
        plans are agnostic of the grouping.  Results are complete even
        when individual jobs crash or time out; only an injected ABORT
        fault raises :class:`SweepAborted`.  Under process isolation the
        call's attempts share one attempt process, ended before the
        call returns or raises.
        """
        results: list[OptRouteResult] = []
        with self._attempt_scope():
            for job in (job for group in groups for job in group):
                index = len(results)
                fault = (
                    fault_plan.fault_for(index, job.clip.name, job.rules.name)
                    if fault_plan is not None
                    else None
                )
                if derive is not None:
                    job = derive(job)
                result = self.run_one(job, fault, index=index)
                results.append(result)
                if on_result is not None:
                    on_result(index, result)
        return results

    def run_one(
        self,
        job: RouteJob,
        fault: FaultSpec | None = None,
        index: int = 0,
    ) -> OptRouteResult:
        """Run one job through retry + fallback; never raises for
        worker failures (ABORT faults excepted)."""
        with self._attempt_scope():
            return self._run_job(job, fault, index)

    @contextmanager
    def _attempt_scope(self):
        """The outermost ``run_groups``/``run_one`` call ends the
        attempt process before it returns or raises."""
        if self._in_call:
            yield
            return
        self._in_call = True
        try:
            yield
        finally:
            self._in_call = False
            self._retire()

    def _run_job(
        self, job: RouteJob, fault: FaultSpec | None, index: int
    ) -> OptRouteResult:
        if fault is not None and fault.kind is FaultKind.ABORT:
            raise SweepAborted(
                f"injected abort at job {index} "
                f"({job.clip.name}, {job.rules.name})"
            )
        job = self._apply_budget(job)
        attempt_log: list[dict] = []
        notes: list[str] = []
        chain = self._chain(job)
        policy = self.config.retry
        attempts = 0
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
        """Fit the job to the sweep budget.

        Once the budget is nearly spent (see
        :meth:`repro.exec.portfolio.SweepBudget.nearly_spent`) the job
        runs the heuristic baseline, whose LIMIT results are visibly
        degraded rather than silently wrong.  Time limits are clamped
        so no single job can overrun the whole remaining budget.
        """
        budget = self.budget
        if budget is None:
            return job
        router = job.router
        routing: dict = {}
        if budget.nearly_spent() and router.backend != "baseline":
            routing["backend"] = "baseline"
        clamped = budget.clamp(router.time_limit)
        if clamped is not None and (
            router.time_limit is None or clamped < router.time_limit
        ):
            routing["time_limit"] = max(0.1, clamped)
        if not routing:
            return job
        return replace(job, router=replace(router, **routing))

    # -- internals ----------------------------------------------------------

    def _chain(self, job: RouteJob) -> tuple[str, ...]:
        backend = job.router.backend
        chain = self.config.backends
        if chain is None:
            return (backend,)
        if backend in chain:
            return tuple(chain[chain.index(backend):])
        return (backend, *chain)

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
        deadline = deadline_for(job.router.time_limit)
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
        try:
            message = pickle.dumps((job, backend, fault, attempt))
        except (pickle.PicklingError, TypeError, AttributeError):
            # An unpicklable job (e.g. a router subclass holding a live
            # handle) degrades to an inline attempt that still applies
            # the SAME fault spec -- losing isolation must never
            # silently lose the fault-injection plan.
            return self._attempt_inline(job, backend, fault, attempt)
        if self._worker is None:
            self._worker = _AttemptProcess()
        reply = self._worker.run(message, deadline_for(job.router.time_limit))
        if isinstance(reply, _Failure):
            result, failure = None, reply
        elif reply[0] == "error":
            result, failure = None, _Failure("error", str(reply[1]))
        else:
            result, failure = self._validate(reply[1])
        if failure is not None:
            # The next attempt, a retry included, starts afresh.
            self._retire()
        return result, failure

    def _retire(self) -> None:
        """End the attempt process, if one is running."""
        worker, self._worker = self._worker, None
        if worker is not None:
            worker.close()

    @staticmethod
    def _reap(proc) -> None:
        proc.terminate()
        proc.join(2.0)
        if proc.is_alive():
            proc.kill()
            proc.join(2.0)
