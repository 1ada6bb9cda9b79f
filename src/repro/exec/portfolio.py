"""Portfolio racing and budgeted straggler control.

Two straggler weapons for distributed sweeps:

**Backend racing** (:func:`race_solve`): on clips predicted hard by the
paper's own pin-cost metric (or already LIMIT on a prior attempt), both
exact backends -- HiGHS and the pure-Python branch-and-bound -- solve
the same job concurrently in separate processes.  The first answer that
validates *and* certifies (per :mod:`repro.verify`) wins; every other
child is cancelled through the same terminate/kill plumbing the
supervised runner uses for wedged attempts.  Both backends are exact,
so whichever wins reports the same optimal cost and the Δcost table is
byte-identical to a sequential run; racing only changes *when* the
answer arrives, never *what* it is.  An uncertified answer is discarded
and the race continues -- a fast-but-wrong backend cannot win.

**Budgeted degradation** (:class:`SweepBudget`,
:func:`allocate_deadlines`): per-clip deadlines are carved from a
sweep-level wall-clock budget proportionally to predicted hardness
(hardest-first execution order, so the most uncertain work sees the
most budget), and as the budget drains the execution mode degrades in
bounded steps: racing -> single backend -> heuristic baseline.  The
baseline tier reports ``LIMIT`` (a routing without an optimality
proof), so a budget-exhausted sweep is visibly degraded, never silently
wrong.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from multiprocessing import connection as mp_connection

from repro.clips.clip import Clip
from repro.clips.pincost import clip_pin_cost
from repro.router.optrouter import OptRouteResult, RouteStatus
from repro.verify.audit import AuditConfig, ResultAuditor

#: Backends raced by default: both *exact* solvers.  The heuristic
#: baseline never races -- it cannot certify optimality, so it could
#: only ever lose or mislead.
RACE_BACKENDS = ("highs", "bnb")

#: Degradation tiers, in order of decreasing budget.
TIER_RACE = "race"
TIER_SINGLE = "single"
TIER_BASELINE = "baseline"


def hardness(clip: Clip) -> float:
    """Predicted difficulty of a clip (the paper's pin-cost metric)."""
    return clip_pin_cost(clip)


def order_hardest_first(clips: "list[Clip]") -> "list[int]":
    """Indices of ``clips`` sorted hardest-first (pin cost descending).

    Ties break on the clip name so the order -- and therefore deadline
    allocation -- is deterministic across runs and machines.
    """
    return sorted(
        range(len(clips)),
        key=lambda i: (-hardness(clips[i]), clips[i].name),
    )


def predicted_hard(
    clips: "list[Clip]", fraction: float = 0.5
) -> "set[str]":
    """Names of the hardest ``fraction`` of clips (at least one)."""
    if not clips or fraction <= 0.0:
        return set()
    order = order_hardest_first(clips)
    n = max(1, round(len(clips) * min(1.0, fraction)))
    return {clips[i].name for i in order[:n]}


def allocate_deadlines(
    hardnesses: "list[float]",
    total: float,
    floor: float = 1.0,
) -> "list[float]":
    """Per-group deadlines proportional to hardness, with a floor.

    Every group gets at least ``floor`` seconds; the remainder of
    ``total`` is split proportionally to hardness so hard clips absorb
    the slack.  When the floor alone exceeds the budget, every group
    gets exactly the floor -- degradation (not starvation) is the
    budget-exhaustion mechanism.
    """
    if total <= 0:
        raise ValueError("budget total must be positive")
    if floor <= 0:
        raise ValueError("deadline floor must be positive")
    n = len(hardnesses)
    if n == 0:
        return []
    spare = total - floor * n
    if spare <= 0:
        return [floor] * n
    mass = sum(max(0.0, h) for h in hardnesses)
    if mass <= 0:
        return [floor + spare / n] * n
    return [floor + spare * max(0.0, h) / mass for h in hardnesses]


def clip_deadlines(
    clips: "list[Clip]", total: float, floor: float = 1.0
) -> "dict[str, float]":
    """Per-clip wall-clock deadlines from a sweep budget, by name.

    Deterministic: hardness and the tie-broken hardest-first order are
    pure functions of the clips, so coordinator and workers computing
    this independently agree on every deadline.
    """
    order = order_hardest_first(clips)
    deadlines = allocate_deadlines(
        [hardness(clips[i]) for i in order], total, floor=floor
    )
    return {clips[i].name: d for i, d in zip(order, deadlines)}


@dataclass
class SweepBudget:
    """Sweep-level wall-clock budget with bounded degradation.

    ``tier()`` answers "how may the *next* clip be solved":

    - more than ``race_fraction`` of the budget left -> ``race`` (both
      exact backends concurrently);
    - more than ``baseline_fraction`` left -> ``single`` (one exact
      backend, no racing overhead);
    - otherwise -> ``baseline`` (the always-terminating heuristic, so
      the sweep finishes with *some* answer for every pair rather than
      a tail of TIMEOUTs).

    ``total=None`` disables budgeting: the tier is always ``race`` and
    ``remaining()`` is infinite.
    """

    total: float | None = None
    race_fraction: float = 0.5
    baseline_fraction: float = 0.1
    started: float = field(default_factory=time.monotonic)
    #: clock the budget is measured against.  The default monotonic
    #: clock is right in-process; distributed workers share one budget
    #: by passing ``clock=time.time`` and the coordinator's wall-clock
    #: ``started``, so every process sees the same remaining budget.
    clock: "Callable[[], float]" = time.monotonic

    def __post_init__(self) -> None:
        if self.total is not None and self.total <= 0:
            raise ValueError("budget total must be positive")
        if not 0.0 <= self.baseline_fraction <= self.race_fraction <= 1.0:
            raise ValueError(
                "need 0 <= baseline_fraction <= race_fraction <= 1"
            )

    def elapsed(self) -> float:
        return self.clock() - self.started

    def remaining(self) -> float:
        if self.total is None:
            return float("inf")
        return max(0.0, self.total - self.elapsed())

    def exhausted(self) -> bool:
        return self.total is not None and self.remaining() <= 0.0

    def tier(self) -> str:
        if self.total is None:
            return TIER_RACE
        left = self.remaining() / self.total
        if left > self.race_fraction:
            return TIER_RACE
        if left > self.baseline_fraction:
            return TIER_SINGLE
        return TIER_BASELINE

    def clamp(self, deadline: float | None) -> float | None:
        """Shrink a per-clip deadline to what is actually left."""
        if self.total is None:
            return deadline
        left = self.remaining()
        if deadline is None:
            return left
        return min(deadline, left)


@dataclass
class RaceOutcome:
    """What one backend race produced."""

    result: OptRouteResult
    winner: str | None = None
    #: backends cancelled after the winner certified.
    cancelled: tuple[str, ...] = ()
    #: backends whose answer was rejected by the certifier.
    rejected: tuple[str, ...] = ()
    elapsed: float = 0.0


def _certifier_for(job) -> ResultAuditor:
    # Infeasibility confirmation is disabled: it would re-solve on the
    # *other* racer's backend -- the race itself already is that
    # cross-check, and a wrong INFEASIBLE still fails certification
    # whenever any racer finds a routing first.
    return ResultAuditor(
        wire_cost=job.router.wire_cost,
        via_cost=job.router.via_cost,
        backend=job.router.backend,
        config=AuditConfig(confirm_infeasible=False),
    )


def race_solve(
    job,
    backends: "tuple[str, ...]" = RACE_BACKENDS,
    deadline: float | None = None,
    certify_winner: bool = True,
) -> RaceOutcome:
    """Race ``backends`` on one :class:`~repro.exec.runner.RouteJob`.

    One child process per backend (reusing the supervised runner's
    worker entry, so fault injection and warm starts behave
    identically); the first payload that validates and -- when
    ``certify_winner`` -- passes the result audit wins, and every
    still-running child is terminated.  Returns a TIMEOUT/ERROR result
    when no backend certifies within the deadline.  The racers get the
    job without its warm start's incumbents: only the HiGHS lane could
    read them, and the race pits the backends against the same model
    from the same start.
    """
    from repro.exec.runner import (  # circular at module load time
        SupervisedRunner,
        _mp_context,
        _worker_main,
    )

    if job.warm is not None and job.warm.incumbents:
        job = replace(job, warm=replace(job.warm, incumbents=()))
    started = time.monotonic()
    ctx = _mp_context()
    lanes: dict = {}  # conn -> (backend, process)
    for backend in backends:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_worker_main,
            args=(job, backend, None, 1, child_conn),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        lanes[parent_conn] = (backend, proc)

    certifier = _certifier_for(job) if certify_winner else None
    notes: list[str] = []
    rejected: list[str] = []
    winner: OptRouteResult | None = None
    winner_backend: str | None = None
    fallback: OptRouteResult | None = None
    fallback_backend: str | None = None
    timed_out = False
    try:
        while lanes:
            if deadline is None:
                timeout = None
            else:
                timeout = deadline - (time.monotonic() - started)
                if timeout <= 0:
                    timed_out = True
                    break
            ready = mp_connection.wait(list(lanes), timeout=timeout)
            if not ready:
                timed_out = True
                break
            for conn in ready:
                backend, proc = lanes.pop(conn)
                payload = _race_recv(conn, proc, backend, notes)
                if payload is None:
                    continue
                if certifier is not None:
                    certificate = certifier.audit(job.clip, job.rules, payload)
                    if not certificate.ok:
                        rejected.append(backend)
                        failures = "; ".join(
                            f"{c.name}: {c.detail}"
                            for c in certificate.failures()
                        )
                        notes.append(
                            f"race[{backend}]: uncertified answer "
                            f"discarded ({failures})"
                        )
                        continue
                if payload.status is RouteStatus.LIMIT:
                    # A budget-capped incumbent carries no optimality
                    # proof: hold it as a fallback, keep waiting for a
                    # racer that can still prove its answer.
                    if fallback is None:
                        fallback, fallback_backend = payload, backend
                    notes.append(
                        f"race[{backend}]: LIMIT incumbent held as "
                        "fallback"
                    )
                    continue
                winner = payload
                winner_backend = backend
                break
            if winner is not None:
                break
    finally:
        cancelled = tuple(backend for backend, _ in lanes.values())
        for conn, (_, proc) in lanes.items():
            try:
                conn.close()
            except Exception:
                pass
            SupervisedRunner._reap(proc)

    elapsed = time.monotonic() - started
    if winner is None and fallback is not None:
        winner, winner_backend = fallback, fallback_backend
    if winner is not None:
        winner.backend = winner_backend or winner.backend
        if notes:
            winner.diagnostics = "; ".join(
                filter(None, [winner.diagnostics, *notes])
            )
        return RaceOutcome(
            result=winner,
            winner=winner_backend,
            cancelled=cancelled,
            rejected=tuple(rejected),
            elapsed=elapsed,
        )
    status = RouteStatus.TIMEOUT if timed_out else RouteStatus.ERROR
    if timed_out:
        notes.append(
            f"race deadline {deadline:.2f}s exceeded; "
            f"{len(cancelled)} racer(s) cancelled"
        )
    failure = OptRouteResult(
        clip_name=job.clip.name,
        rule_name=job.rules.name,
        status=status,
        backend="+".join(backends),
        solve_seconds=elapsed,
        diagnostics="; ".join(notes) or "all racers failed",
    )
    return RaceOutcome(
        result=failure,
        winner=None,
        cancelled=cancelled,
        rejected=tuple(rejected),
        elapsed=elapsed,
    )


def _race_recv(conn, proc, backend: str, notes: "list[str]"):
    """Receive one racer's payload; None when it crashed or errored."""
    try:
        tag, payload = conn.recv()
    except (EOFError, OSError):
        proc.join(2.0)
        notes.append(
            f"race[{backend}]: worker died without a result "
            f"(exit code {proc.exitcode})"
        )
        return None
    finally:
        try:
            conn.close()
        except Exception:
            pass
    proc.join(2.0)
    if proc.is_alive():
        from repro.exec.runner import SupervisedRunner

        SupervisedRunner._reap(proc)
    if tag != "ok":
        notes.append(f"race[{backend}]: {payload}")
        return None
    if not isinstance(payload, OptRouteResult):
        notes.append(
            f"race[{backend}]: corrupt payload "
            f"({type(payload).__name__})"
        )
        return None
    if payload.status is RouteStatus.ERROR:
        notes.append(
            f"race[{backend}]: "
            f"{payload.diagnostics or 'backend reported an error'}"
        )
        return None
    return payload
