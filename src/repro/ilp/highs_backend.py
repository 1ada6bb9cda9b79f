"""MILP solving through scipy's HiGHS interface, LP relaxation first."""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.ilp.csr import CsrModel
from repro.ilp.relaxation import (
    _round_up,
    objective_granularity,
    settle_incumbents,
    solve_root,
)
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
    model: CsrModel,
    time_limit: float | None = None,
    incumbents: "Sequence[np.ndarray]" = (),
    milp_model: "Callable[[], CsrModel] | None" = None,
) -> Solution:
    """Solve a model exactly: its LP relaxation first, then, unless
    the LP or an incumbent settled it, HiGHS branch-and-cut
    (:func:`solve_milp`).

    The root LP (:func:`repro.ilp.relaxation.solve_root`) settles the
    model OPTIMAL when its point is integral, meets every row and
    column bound, and its objective meets a lower bound recomputed
    from the LP's duals (never the LP's reported objective).  Such a
    solution has ``n_nodes == 0``, ``best_bound`` the certified bound,
    and ``solve_seconds`` the LP's time; ``scipy.optimize.milp`` never
    runs.

    ``incumbents`` are known points, each the values of the model's
    leading columns (a settled routing of another rule on the same
    base, whose model shares them).  When the LP point is fractional
    but the bound is certified, the first incumbent that completes to
    a feasible integer point
    (:func:`repro.ilp.relaxation.settle_incumbents`) decides: at an
    objective within ``COST_TOL`` of the bound it is OPTIMAL, as an
    integral LP point would be; otherwise the MILP runs.

    ``milp_model``, when given, makes the model the MILP runs on, and
    is called only when the MILP runs: one with ``model``'s columns,
    objective, column bounds and integer points, whose rows suit
    branch-and-cut better than the LP's (a routing model's weak rule
    rows, :meth:`repro.router.formulation.RoutingIlp.milp_model`).

    The MILP runs with the time the LP left.  An LP that fails to
    solve only falls through: no INFEASIBLE is ever claimed from it.
    A LIMIT result's ``best_bound`` is the larger of HiGHS' dual
    bound and the certified LP bound, so a pair stopped with no
    incumbent still reports one.  An LP that uses up the limit ends
    ``LIMIT``; the MILP, a non-positive ``time_limit`` and solver
    exceptions behave as in :func:`solve_milp`.
    """
    trivial = _trivial_solution(model, time_limit)
    if trivial is not None:
        return trivial
    root = solve_root(model, time_limit)
    if root.settled is not None:
        return root.settled
    seconds = root.seconds
    if root.bound is not None and len(incumbents):
        t0 = time.perf_counter()
        settled = settle_incumbents(model, root.bound, incumbents)
        seconds += time.perf_counter() - t0
        if settled is not None:
            settled.solve_seconds = seconds
            return settled
    if milp_model is not None:
        t0 = time.perf_counter()
        model = milp_model()
        seconds += time.perf_counter() - t0
    return _milp(model, time_limit, root.bound, seconds)


def solve_milp(model: CsrModel, time_limit: float | None = None) -> Solution:
    """HiGHS branch-and-cut on the model, without the root LP step.

    For callers whose models rarely have an integral LP optimum, such
    as the equivalence checker's no-good-cut sweep, where the LP of
    :func:`solve_with_highs` would mostly be spent for nothing.

    The MILP gets the model's own contiguous buffers zero-copy (see
    :func:`_milp_inputs`), with the relative MIP gap fixed at 0:
    OptRouter requires proven-optimal solutions for the paper's
    methodology to be meaningful.

    A non-positive ``time_limit`` returns ``LIMIT`` immediately: a
    fallback chain that has already spent its wall-clock budget must
    not start another solve (HiGHS treats its own limit as advisory
    and can overshoot).  Unexpected solver exceptions are contained as
    ``ERROR`` solutions so one pathological model cannot take down a
    whole sweep.
    """
    trivial = _trivial_solution(model, time_limit)
    if trivial is not None:
        return trivial
    return _milp(model, time_limit, None, 0.0)


def _trivial_solution(
    model: CsrModel, time_limit: float | None
) -> Solution | None:
    """The solution of a model no solver needs to see, else None."""
    if time_limit is not None and time_limit <= 0:
        return Solution(status=SolveStatus.LIMIT)
    if model.n_vars:
        return None
    obj_const = float(model.obj_const)
    if len(model.violated_rows(np.zeros(0))):
        return Solution(status=SolveStatus.INFEASIBLE)
    return Solution(
        status=SolveStatus.OPTIMAL, objective=obj_const, best_bound=obj_const
    )


def _milp(
    model: CsrModel,
    time_limit: float | None,
    lp_bound: float | None,
    lp_seconds: float,
) -> Solution:
    """Run ``scipy.optimize.milp`` with what an LP step left of the
    time limit; ``lp_bound`` (None = no LP step) floors a LIMIT
    result's bound, and ``lp_seconds`` counts in ``solve_seconds``."""
    obj_const = float(model.obj_const)
    options: dict = {"mip_rel_gap": 0.0}
    if time_limit is not None:
        options["time_limit"] = time_limit - lp_seconds
        if options["time_limit"] <= 0:
            return Solution(
                status=SolveStatus.LIMIT,
                best_bound=lp_bound,
                solve_seconds=lp_seconds,
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
            solve_seconds=lp_seconds + time.perf_counter() - t0,
        )
    elapsed = lp_seconds + time.perf_counter() - t0

    status = _STATUS_MAP.get(result.status, SolveStatus.ERROR)
    solution = Solution(status=status, solve_seconds=elapsed)
    dual = getattr(result, "mip_dual_bound", None)
    dual = (
        float(dual) + obj_const
        if dual is not None and math.isfinite(dual)
        else None
    )
    if result.x is not None:
        # The objective of the snapped point, not HiGHS' float sum.
        solution.values = model.solution_values(result.x)
        solution.objective = (
            float(model.obj @ model.point(solution.values)) + obj_const
        )
        if status is SolveStatus.OPTIMAL:
            # The larger of HiGHS' dual bound and the LP bound, raised
            # to the objective's granularity as the LP path certifies
            # it and capped at the objective: HiGHS' float bound can sit
            # a rounding error under the exact optimum, and the audit
            # (repro.verify) asserts that the bound meets the objective.
            known = [b for b in (dual, lp_bound) if b is not None]
            solution.best_bound = solution.objective
            if known:
                raised = _round_up(
                    max(known) - obj_const, objective_granularity(model)
                )
                solution.best_bound = min(raised + obj_const, solution.objective)
    if status is SolveStatus.LIMIT:
        # Price the incumbent/bound gap with the best proven bound,
        # which never passes the incumbent.
        known = [b for b in (dual, lp_bound) if b is not None]
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
