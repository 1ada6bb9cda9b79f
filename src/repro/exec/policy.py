"""Retry, backoff, deadline, and fallback policies for supervised runs."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

#: Fallback chain ending in the heuristic baseline router: exact HiGHS
#: first, the pure-Python branch-and-bound cross-check second, and the
#: (non-optimal, always-terminating) sequential A* router last.
DEFAULT_FALLBACK_CHAIN = ("highs", "bnb", "baseline")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for transient failures.

    ``max_attempts`` bounds attempts *per backend link*; the backoff
    before retry ``k`` (0-based) is
    ``min(backoff_max, backoff_base * backoff_factor ** k)`` seconds.

    With a ``key`` (the runner passes ``clip|rule|backend``), the
    delay is spread by *seeded* jitter: a SHA-256 of ``key:retry``
    maps to a uniform factor in ``[1 - jitter_fraction/2,
    1 + jitter_fraction/2]``.  N workers retrying a flaky backend
    therefore desynchronize instead of hammering it in lockstep --
    yet every delay is a pure function of its inputs, so failure
    scenarios still replay exactly.  Without a key the delay is the
    bare exponential (deterministic across jobs).
    """

    max_attempts: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff durations must be >= 0")
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ValueError("jitter_fraction must be in [0.0, 1.0]")

    def backoff_seconds(self, retry: int, key: "str | None" = None) -> float:
        base = min(self.backoff_max, self.backoff_base * self.backoff_factor ** retry)
        if key is None or self.jitter_fraction <= 0 or base <= 0:
            return base
        digest = hashlib.sha256(f"{key}:{retry}".encode()).digest()
        u = int.from_bytes(digest[:8], "big") / 2**64
        return base * (1.0 - self.jitter_fraction / 2 + self.jitter_fraction * u)


#: The hard wall-clock deadline of one attempt is its time limit times
#: this factor: the slack lets a solver finish a solve that honors its
#: (advisory) internal limit, and keeps the deadline under the
#: acceptance bound of twice the limit.
HARD_DEADLINE_FACTOR = 1.5


def deadline_for(time_limit: float | None) -> float | None:
    """Hard wall-clock deadline for one attempt (None = no limit)."""
    if time_limit is None:
        return None
    return time_limit * HARD_DEADLINE_FACTOR


@dataclass(frozen=True)
class SupervisorConfig:
    """Knobs of the supervised runner.

    Attributes:
        isolation: ``"process"`` runs attempts in an attempt
            process, a child reused while its attempts succeed and
            replaced after any failed one, so a retry starts afresh
            (crash isolation + preemptive deadlines); ``"inline"`` runs
            attempts in the calling process (for debuggers and
            platforms without cheap fork — crashes are simulated and
            deadlines enforced post-hoc).
        retry: per-backend retry/backoff policy.
        backends: the fallback chain, tried left to right (e.g.
            :data:`DEFAULT_FALLBACK_CHAIN`).  ``None`` disables
            fallback: only the job's own backend is used.  A job whose
            backend appears in the chain starts from that position;
            otherwise its backend is tried first, then the whole chain.
    """

    isolation: str = "process"
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    backends: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.isolation not in ("process", "inline"):
            raise ValueError(f"unknown isolation {self.isolation!r}")
        if self.backends is not None and not self.backends:
            raise ValueError("backends chain must be non-empty or None")
