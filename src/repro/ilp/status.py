"""Solver outcome types."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

#: Objective comparison tolerance: routing costs are sums of the
#: configured weights, far coarser than this.  The audit
#: (:mod:`repro.verify`) compares costs and bounds with it, and the
#: HiGHS backend settles a model at its LP relaxation only when the
#: LP point's objective meets the certified bound within it.
COST_TOL = 1e-6


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    LIMIT = "limit"  # node/time limit hit before proving optimality
    ERROR = "error"

    @property
    def is_optimal(self) -> bool:
        return self is SolveStatus.OPTIMAL


@dataclass
class Solution:
    """Result of a MILP solve.

    ``values`` maps variable ids to (rounded, for integer variables)
    values; empty unless a feasible point was found.

    ``best_bound`` is a proven lower bound on the optimum, in true
    objective space, or None when none is known.  On OPTIMAL it meets
    ``objective``.  The HiGHS backend takes it from the certified
    bound of the root LP when the LP settles the model, and on LIMIT
    it is the larger of HiGHS' dual bound and that LP bound.

    ``n_nodes`` is the backend's branch-and-bound node count.  It is 0
    both when the root LP settled the model and when HiGHS' presolve
    solved the MILP, so it does not tell the two apart.
    """

    status: SolveStatus
    objective: float | None = None
    values: dict[int, float] = field(default_factory=dict)
    best_bound: float | None = None
    n_nodes: int = 0
    solve_seconds: float = 0.0

    def value(self, var) -> float:
        """Value of a :class:`~repro.ilp.model.Var` in this solution."""
        return self.values[var.index]
