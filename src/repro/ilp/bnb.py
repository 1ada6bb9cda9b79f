"""Pure-Python best-first branch-and-bound MILP solver.

Cross-validates the HiGHS backend: same model in, same optimal
objective out (on the small instances where it is practical).  LP
relaxations are solved with ``scipy.optimize.linprog`` (HiGHS simplex),
branching is on the most fractional integer variable, and node
selection is best-bound-first, so the first incumbent that matches the
best bound is proven optimal.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.ilp.model import Model
from repro.ilp.status import Solution, SolveStatus

_INT_TOL = 1e-6


@dataclass(frozen=True)
class BnBOptions:
    """Branch-and-bound limits.

    ``should_stop`` is a cooperative cancellation hook polled at the
    same points as the time limit: when it returns True the search
    stops and hands back the best incumbent as LIMIT (never a wrong
    answer) -- the mechanism backend racing uses to stop a losing
    solver without killing its process.
    """

    max_nodes: int = 200_000
    time_limit: float | None = None
    should_stop: "Callable[[], bool] | None" = None


class _LpData:
    """Immutable LP arrays shared by all nodes."""

    def __init__(self, model: Model):
        n = model.n_vars
        self.n = n
        self.cost = np.zeros(n)
        for index, coef in model.objective.coefs.items():
            self.cost[index] = coef
        self.obj_const = model.objective.const
        self.lb = np.array([v.lb for v in model.variables], dtype=float)
        self.ub = np.array([v.ub for v in model.variables], dtype=float)
        self.int_indices = [v.index for v in model.variables if v.is_integer]

        ub_rows, ub_cols, ub_data, ub_rhs = [], [], [], []
        eq_rows, eq_cols, eq_data, eq_rhs = [], [], [], []
        for con in model.constraints:
            rhs = -con.expr.const
            if con.sense == "==":
                r = len(eq_rhs)
                for index, coef in con.expr.coefs.items():
                    eq_rows.append(r)
                    eq_cols.append(index)
                    eq_data.append(coef)
                eq_rhs.append(rhs)
            else:
                sign = 1.0 if con.sense == "<=" else -1.0
                r = len(ub_rhs)
                for index, coef in con.expr.coefs.items():
                    ub_rows.append(r)
                    ub_cols.append(index)
                    ub_data.append(sign * coef)
                ub_rhs.append(sign * rhs)
        self.a_ub = (
            sparse.csr_matrix((ub_data, (ub_rows, ub_cols)), shape=(len(ub_rhs), n))
            if ub_rhs
            else None
        )
        self.b_ub = np.array(ub_rhs) if ub_rhs else None
        self.a_eq = (
            sparse.csr_matrix((eq_data, (eq_rows, eq_cols)), shape=(len(eq_rhs), n))
            if eq_rhs
            else None
        )
        self.b_eq = np.array(eq_rhs) if eq_rhs else None

    def solve_lp(self, lb: np.ndarray, ub: np.ndarray):
        return linprog(
            c=self.cost,
            A_ub=self.a_ub,
            b_ub=self.b_ub,
            A_eq=self.a_eq,
            b_eq=self.b_eq,
            bounds=np.column_stack([lb, ub]),
            method="highs",
        )


def _most_fractional(x: np.ndarray, int_indices: list[int]) -> int | None:
    best_index, best_frac = None, _INT_TOL
    for index in int_indices:
        frac = abs(x[index] - round(x[index]))
        if frac > best_frac:
            dist_to_half = abs(frac - 0.5)
            if best_index is None or dist_to_half < abs(
                abs(x[best_index] - round(x[best_index])) - 0.5
            ):
                best_index = index
    return best_index


def solve_with_bnb(model: Model, options: BnBOptions | None = None) -> Solution:
    """Solve a model with best-first branch-and-bound.

    Returns OPTIMAL with the proven optimum, INFEASIBLE, or LIMIT with
    the best incumbent found when a node/time budget runs out.
    """
    if options is None:
        options = BnBOptions()
    t0 = time.perf_counter()
    data = _LpData(model)
    if data.n == 0:
        return Solution(
            status=SolveStatus.OPTIMAL,
            objective=data.obj_const,
            best_bound=data.obj_const,
        )

    tie = itertools.count()  # FIFO tiebreak; ndarray bounds aren't orderable
    root = (-math.inf, next(tie), data.lb.copy(), data.ub.copy())
    heap = [root]
    incumbent_x: np.ndarray | None = None
    incumbent_obj = math.inf  # raw c.x, without the objective constant
    # Best proven global lower bound in raw objective space.  Best-first
    # pop order makes the heap minimum a valid global bound at any
    # point; a node popped but not yet expanded can still hide an
    # optimum as low as its own LP value, so mid-node returns take the
    # minimum of the two.  Exported on LIMIT so callers can report the
    # incumbent/bound gap, and audited against OPTIMAL claims.
    global_lower = -math.inf
    n_nodes = 0
    deadline = None if options.time_limit is None else t0 + options.time_limit

    def expired() -> bool:
        # Cancellation shares the time-limit exit paths: both end the
        # search with an honest LIMIT, never a fabricated proof.
        if deadline is not None and time.perf_counter() > deadline:
            return True
        return options.should_stop is not None and options.should_stop()

    while heap:
        if expired():
            # Hand back the incumbent (when one exists) as LIMIT rather
            # than continuing to pop/branch past the deadline; at most
            # one LP solve can overshoot the limit.
            return _limit_solution(
                model, data, incumbent_x, incumbent_obj, n_nodes, t0,
                max(global_lower, heap[0][0]),
            )
        bound, _t, lb, ub = heapq.heappop(heap)
        if bound >= incumbent_obj - 1e-9:
            break  # best-first: nothing left can improve the incumbent
        # Best-first pop order: every remaining node's stored bound is
        # >= this one, so the popped bound is the global lower bound.
        global_lower = max(global_lower, bound)
        n_nodes += 1
        if n_nodes > options.max_nodes:
            return _limit_solution(
                model, data, incumbent_x, incumbent_obj, n_nodes, t0,
                global_lower,
            )

        lp = data.solve_lp(lb, ub)
        if lp.status == 2:  # infeasible node
            continue
        if lp.status != 0:
            return Solution(status=SolveStatus.ERROR, n_nodes=n_nodes)
        if lp.fun >= incumbent_obj - 1e-9:
            continue

        branch_index = _most_fractional(lp.x, data.int_indices)
        if branch_index is None:
            incumbent_obj = lp.fun
            incumbent_x = lp.x.copy()
            continue

        if expired():
            # The deadline elapsed inside the LP solve: don't grow the
            # tree; report the best incumbent found so far.  The popped
            # node's LP value tightened its bound, but siblings still
            # queued may sit lower.
            return _limit_solution(
                model, data, incumbent_x, incumbent_obj, n_nodes, t0,
                max(global_lower, min(lp.fun, heap[0][0] if heap else math.inf)),
            )

        value = lp.x[branch_index]
        down_ub = ub.copy()
        down_ub[branch_index] = math.floor(value)
        if data.lb[branch_index] <= down_ub[branch_index]:
            heapq.heappush(heap, (lp.fun, next(tie), lb.copy(), down_ub))
        up_lb = lb.copy()
        up_lb[branch_index] = math.ceil(value)
        if up_lb[branch_index] <= data.ub[branch_index]:
            heapq.heappush(heap, (lp.fun, next(tie), up_lb, ub.copy()))

    if incumbent_x is None:
        return Solution(
            status=SolveStatus.INFEASIBLE,
            n_nodes=n_nodes,
            solve_seconds=time.perf_counter() - t0,
        )
    return _final_solution(
        model, data, incumbent_x, incumbent_obj, n_nodes, t0, SolveStatus.OPTIMAL
    )


def _values_from(model: Model, x: np.ndarray) -> dict[int, float]:
    values = {}
    for v in model.variables:
        value = float(x[v.index])
        values[v.index] = round(value) if v.is_integer else value
    return values


def _final_solution(
    model, data, x, obj, n_nodes, t0, status, lower: float | None = None
) -> Solution:
    objective = obj + data.obj_const
    if status is SolveStatus.OPTIMAL:
        # The optimality proof is exhaustion: the proven dual bound
        # coincides with the objective.
        best_bound: float | None = objective
    else:
        best_bound = (
            None if lower is None or not math.isfinite(lower)
            else lower + data.obj_const
        )
    return Solution(
        status=status,
        objective=objective,
        values=_values_from(model, x),
        best_bound=best_bound,
        n_nodes=n_nodes,
        solve_seconds=time.perf_counter() - t0,
    )


def _limit_solution(model, data, x, obj, n_nodes, t0, lower: float) -> Solution:
    if x is None:
        return Solution(
            status=SolveStatus.LIMIT,
            best_bound=(
                None if not math.isfinite(lower) else lower + data.obj_const
            ),
            n_nodes=n_nodes,
            solve_seconds=time.perf_counter() - t0,
        )
    return _final_solution(
        model, data, x, obj, n_nodes, t0, SolveStatus.LIMIT,
        lower=min(lower, obj),
    )
