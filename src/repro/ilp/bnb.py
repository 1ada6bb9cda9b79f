"""Pure-Python best-first branch-and-bound MILP solver.

Cross-validates the HiGHS backend: same model in, same optimal
objective out (on the small instances where it is practical).  LP
relaxations are the one LP form of :mod:`repro.ilp.relaxation`, solved
with ``scipy.optimize.linprog`` (HiGHS simplex), branching is on the
most fractional integer variable, and node selection is
best-bound-first, so the first incumbent that matches the best bound
is proven optimal.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

# The relaxation module, and scipy with it, loads before csr: with csr
# first, a fresh `import repro.eval` measured about 80 ms slower, all of
# it inside scipy's own module imports.
from repro.ilp import relaxation
from repro.ilp.csr import CsrModel
from repro.ilp.status import Solution, SolveStatus


@dataclass(frozen=True)
class BnBOptions:
    """Branch-and-bound limits."""

    max_nodes: int = 200_000
    time_limit: float | None = None


def _most_fractional(x: np.ndarray, int_indices: list[int]) -> int | None:
    best_index, best_frac = None, relaxation.INT_TOL
    for index in int_indices:
        frac = abs(x[index] - round(x[index]))
        if frac > best_frac:
            dist_to_half = abs(frac - 0.5)
            if best_index is None or dist_to_half < abs(
                abs(x[best_index] - round(x[best_index])) - 0.5
            ):
                best_index = index
    return best_index


def solve_with_bnb(
    model: CsrModel, options: BnBOptions | None = None
) -> Solution:
    """Solve a model with best-first branch-and-bound.

    Returns OPTIMAL with the proven optimum, INFEASIBLE, or LIMIT with
    the best incumbent found when a node/time budget runs out.
    """
    if options is None:
        options = BnBOptions()
    t0 = time.perf_counter()
    if model.n_vars == 0:
        if len(model.violated_rows(np.zeros(0))):
            return Solution(status=SolveStatus.INFEASIBLE)
        return Solution(
            status=SolveStatus.OPTIMAL,
            objective=model.obj_const,
            best_bound=model.obj_const,
        )
    data = relaxation.LpData(model)

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
        return deadline is not None and time.perf_counter() > deadline

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
        values=model.solution_values(x),
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
