"""MILP solving through scipy's HiGHS interface, LP relaxation first."""

from __future__ import annotations

import math
import time

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.ilp.csr import CsrModel
from repro.ilp.relaxation import solve_root
from repro.ilp.status import Solution, SolveStatus

_STATUS_MAP = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.LIMIT,      # iteration/time limit
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
    4: SolveStatus.ERROR,
}


def _milp_inputs(model: CsrModel):
    """(cost, integrality, bounds, constraints) arrays for
    :func:`scipy.optimize.milp`.

    Zero-copy: the cost vector, bound arrays, and the CSR triplet
    (``data``/``indices``/``indptr``) are handed to scipy as the
    model's own buffers -- no per-row Python objects are walked and no
    matrix is re-assembled.
    """
    cost = model.obj
    integrality = model.integer.astype(np.uint8, copy=False)
    bounds = Bounds(lb=model.lb, ub=model.ub)
    constraints = []
    if model.n_rows:
        matrix = sparse.csr_matrix(
            (model.data, model.indices, model.indptr),
            shape=(model.n_rows, model.n_vars),
            copy=False,
        )
        lo, hi = model.row_bounds()
        constraints.append(LinearConstraint(matrix, lo, hi))
    return cost, integrality, bounds, constraints


def solve_with_highs(
    model: CsrModel, time_limit: float | None = None
) -> Solution:
    """Solve a model exactly: its LP relaxation first, then, unless
    the LP settled it, HiGHS branch-and-cut.

    The root LP (:func:`repro.ilp.relaxation.solve_root`) settles the
    model OPTIMAL when its point is integral, meets every row and
    column bound, and its objective meets a lower bound recomputed
    from the LP's duals (never the LP's reported objective).  Such a
    solution has ``n_nodes == 0``, ``best_bound`` the certified bound,
    and ``solve_seconds`` the LP's time; ``scipy.optimize.milp`` never
    runs.  Otherwise the MILP runs with the time the LP left.  An LP
    that fails to solve only falls through: no INFEASIBLE is ever
    claimed from it.

    The MILP gets the model's own contiguous buffers zero-copy (see
    :func:`_milp_inputs`), with the relative MIP gap fixed at 0:
    OptRouter requires proven-optimal solutions for the paper's
    methodology to be meaningful.  A LIMIT result's ``best_bound`` is
    the larger of HiGHS' dual bound and the certified LP bound, so a
    pair stopped with no incumbent still reports one.

    A non-positive ``time_limit`` returns ``LIMIT`` immediately: a
    fallback chain that has already spent its wall-clock budget must
    not start another solve (HiGHS treats its own limit as advisory
    and can overshoot).  An LP that uses up the limit ends ``LIMIT``
    the same way.  Unexpected solver exceptions are contained as
    ``ERROR`` solutions so one pathological model cannot take down a
    whole sweep.
    """
    if time_limit is not None and time_limit <= 0:
        return Solution(status=SolveStatus.LIMIT)
    obj_const = float(model.obj_const)
    if model.n_vars == 0:
        if len(model.violated_rows(np.zeros(0))):
            return Solution(status=SolveStatus.INFEASIBLE)
        return Solution(
            status=SolveStatus.OPTIMAL,
            objective=obj_const,
            best_bound=obj_const,
        )

    root = solve_root(model, time_limit)
    if root.settled is not None:
        return root.settled
    options: dict = {"mip_rel_gap": 0.0}
    if time_limit is not None:
        options["time_limit"] = time_limit - root.seconds
        if options["time_limit"] <= 0:
            return Solution(
                status=SolveStatus.LIMIT,
                best_bound=root.bound,
                solve_seconds=root.seconds,
            )

    cost, integrality, bounds, constraints = _milp_inputs(model)
    t0 = time.perf_counter()
    try:
        result = milp(
            c=cost,
            constraints=constraints,
            integrality=integrality,
            bounds=bounds,
            options=options,
        )
    except (ValueError, TypeError, MemoryError):
        return Solution(
            status=SolveStatus.ERROR,
            solve_seconds=root.seconds + time.perf_counter() - t0,
        )
    elapsed = root.seconds + time.perf_counter() - t0

    status = _STATUS_MAP.get(result.status, SolveStatus.ERROR)
    solution = Solution(status=status, solve_seconds=elapsed)
    dual = getattr(result, "mip_dual_bound", None)
    dual = (
        float(dual) + obj_const
        if dual is not None and math.isfinite(dual)
        else None
    )
    if result.x is not None:
        solution.values = model.solution_values(result.x)
        solution.objective = float(result.fun) + obj_const
        if status is SolveStatus.OPTIMAL:
            # Export HiGHS' proven dual bound (true objective space):
            # it must meet the objective -- the audit layer
            # (repro.verify) asserts exactly that.
            solution.best_bound = (
                dual if dual is not None else solution.objective
            )
    if status is SolveStatus.LIMIT:
        # Price the incumbent/bound gap with the best proven bound,
        # which never passes the incumbent.
        known = [b for b in (dual, root.bound) if b is not None]
        if known:
            solution.best_bound = max(known)
            if solution.objective is not None:
                solution.best_bound = min(
                    solution.best_bound, solution.objective
                )
    if status is SolveStatus.OPTIMAL and solution.objective is None:
        solution.objective = obj_const
        solution.best_bound = solution.objective
    solution.n_nodes = int(getattr(result, "mip_node_count", 0) or 0)
    return solution
