"""Budgeted straggler control.

A sweep-level wall-clock budget (:class:`SweepBudget`) is carved into
per-clip deadlines proportionally to predicted hardness
(:func:`clip_deadlines`, :func:`allocate_deadlines`), and a budgeted
sweep runs its clips hardest first, so the most uncertain work sees
the most budget.  Once the budget is nearly spent, the runner degrades
each remaining job in one step, from the exact backend to the
heuristic baseline.  The baseline reports ``LIMIT`` (a routing without
an optimality proof), so a budget-exhausted sweep is visibly degraded,
never silently wrong.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.clips.clip import Clip
from repro.clips.pincost import clip_pin_cost

#: Share of the sweep budget at or below which jobs run the heuristic
#: baseline instead of the exact backend.
BASELINE_FRACTION = 0.1


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
    """Sweep-level wall-clock budget with one degradation step.

    :meth:`nearly_spent` answers "must the *next* job run the heuristic
    baseline": it does once no more than :data:`BASELINE_FRACTION` of
    the budget is left, so the sweep finishes with *some* answer for
    every pair rather than a tail of TIMEOUTs.  Until then jobs run
    the sweep's exact backend.

    ``total=None`` disables budgeting: the budget is never nearly
    spent and ``remaining()`` is infinite.
    """

    total: float | None = None
    started: float = field(default_factory=time.monotonic)
    #: clock the budget is measured against.  The default monotonic
    #: clock is right in-process; distributed workers share one budget
    #: by passing ``clock=time.time`` and the coordinator's wall-clock
    #: ``started``, so every process sees the same remaining budget.
    clock: "Callable[[], float]" = time.monotonic

    def __post_init__(self) -> None:
        if self.total is not None and self.total <= 0:
            raise ValueError("budget total must be positive")

    def elapsed(self) -> float:
        return self.clock() - self.started

    def remaining(self) -> float:
        if self.total is None:
            return float("inf")
        return max(0.0, self.total - self.elapsed())

    def exhausted(self) -> bool:
        return self.total is not None and self.remaining() <= 0.0

    def nearly_spent(self) -> bool:
        return (
            self.total is not None
            and self.remaining() / self.total <= BASELINE_FRACTION
        )

    def clamp(self, deadline: float | None) -> float | None:
        """Shrink a per-clip deadline to what is actually left."""
        if self.total is None:
            return deadline
        left = self.remaining()
        if deadline is None:
            return left
        return min(deadline, left)
