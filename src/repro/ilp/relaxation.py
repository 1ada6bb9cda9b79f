"""The LP relaxation of a :class:`CsrModel` and its certified bound.

One LP form serves both backends.  Branch-and-bound solves it at
every node with tightened column bounds; the HiGHS backend solves it
once, at the root, before it hands the model to
``scipy.optimize.milp`` (see
:func:`repro.ilp.highs_backend.solve_with_highs`).

The root's lower bound is never read from the LP's reported
objective.  It is recomputed from the LP's duals, as the Lagrangian
bound of Neumaier and Shcherbina ("Safe bounds in linear and
mixed-integer linear programming", 2004).  For any ``y <= 0`` (one
per ``<=`` row of ``A_ub x <= b_ub``) and any ``mu`` (one per row of
``A_eq x == b_eq``), weak duality gives, for every point in the
column bounds that meets the rows,

    c.x >= y.b_ub + mu.b_eq + sum_j min(d_j lb_j, d_j ub_j),
    d = c - A_ub^T y - A_eq^T mu,

however inexact the LP solve that produced ``y`` and ``mu`` was.  A
float-error margin is subtracted, and when the objective moves in
steps of a known granularity the bound is rounded up to the next
step.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.ilp.csr import SENSE_EQ, SENSE_GE, CsrModel
from repro.ilp.status import COST_TOL, Solution, SolveStatus

#: An integer column of an LP point within this distance of an integer
#: counts as integral (branch-and-bound's branching tolerance too).
INT_TOL = 1e-6
#: Relative float-error margin of the certified bound, taken over the
#: absolute values of every term of the expanded Lagrangian sum.
_MARGIN = 1e-9
#: Objective coefficients whose exact binary fraction has a larger
#: denominator give no granularity (``0.1`` is not a multiple of any
#: small step).
_MAX_DENOMINATOR = 1024


class LpData:
    """Immutable LP arrays shared by all solves of one model:
    ``A_ub`` (``>=`` rows negated) and ``A_eq`` sliced out of the
    model's CSR matrix, each in row order."""

    def __init__(self, model: CsrModel):
        self.cost = model.obj
        self.obj_const = model.obj_const
        self.lb = model.lb
        self.ub = model.ub
        self.int_indices = np.flatnonzero(model.integer).tolist()

        matrix = sparse.csr_matrix(
            (model.data, model.indices, model.indptr),
            shape=(model.n_rows, model.n_vars),
        )
        rhs = -model.row_const
        ub_rows = np.flatnonzero(model.senses != SENSE_EQ)
        eq_rows = np.flatnonzero(model.senses == SENSE_EQ)
        sign = np.where(model.senses[ub_rows] == SENSE_GE, -1.0, 1.0)
        self.a_ub = (
            sparse.diags(sign) @ matrix[ub_rows] if len(ub_rows) else None
        )
        self.b_ub = sign * rhs[ub_rows] if len(ub_rows) else None
        self.a_eq = matrix[eq_rows] if len(eq_rows) else None
        self.b_eq = rhs[eq_rows] if len(eq_rows) else None

    def solve_lp(
        self, lb: np.ndarray, ub: np.ndarray, time_limit: float | None = None
    ):
        return linprog(
            c=self.cost,
            A_ub=self.a_ub,
            b_ub=self.b_ub,
            A_eq=self.a_eq,
            b_eq=self.b_eq,
            bounds=np.column_stack([lb, ub]),
            method="highs",
            options=None if time_limit is None else {"time_limit": time_limit},
        )

    def certified_bound(self, result) -> float:
        """Lower bound on ``c.x`` over the LP relaxation in the model's
        own column bounds (so over its integer points too), from the
        duals of the root solve ``result`` alone; ``-inf`` when it
        needs an infinite column bound.

        Each reduced cost ``d_j`` is widened by ``_MARGIN`` times the
        sum it was computed from, ``|c_j| + |A_j|^T |dual|``, and its
        column term is the least ``d x`` over that interval and the
        column's bounds.  So a column whose ``d_j`` is within rounding
        of 0 needs both of its bounds, and an unbounded one makes the
        bound ``-inf``.  The total then loses ``_MARGIN`` times
        ``1 + sum |terms|`` for the summation's own rounding.
        """
        d = np.array(self.cost, dtype=np.float64)
        magnitude = np.abs(d)
        terms: list[np.ndarray] = []
        for matrix, rhs, side in (
            (self.a_ub, self.b_ub, "ineqlin"),
            (self.a_eq, self.b_eq, "eqlin"),
        ):
            if matrix is None:
                continue
            dual = np.asarray(result[side].marginals, dtype=np.float64)
            if side == "ineqlin":
                dual = np.minimum(dual, 0.0)  # weak duality needs y <= 0
            d -= matrix.T @ dual
            magnitude += abs(matrix).T @ np.abs(dual)
            terms.append(dual * rhs)
        slack = _MARGIN * magnitude
        with np.errstate(invalid="ignore"):
            corners = np.stack([
                (d - slack) * self.lb, (d - slack) * self.ub,
                (d + slack) * self.lb, (d + slack) * self.ub,
            ])
        # 0 * inf is nan: a zero end of the interval contributes 0.
        column_terms = np.where(np.isnan(corners), 0.0, corners).min(0)
        if not np.all(np.isfinite(column_terms)):
            return -math.inf
        terms.append(column_terms)
        bound = sum(float(t.sum()) for t in terms)
        scale = 1.0 + sum(float(np.abs(t).sum()) for t in terms)
        return bound - _MARGIN * scale


def objective_granularity(model: CsrModel) -> Fraction | None:
    """The step ``g`` the objective of every integer point moves in,
    ``c.x in g * Z``: the exact gcd of the integer columns' costs when
    every continuous column costs 0 and no cost's binary fraction has
    a denominator above 1024; None otherwise."""
    if np.any(model.obj[~model.integer]):
        return None
    step = Fraction(0)
    for cost in np.unique(np.abs(model.obj[model.integer])).tolist():
        if not math.isfinite(cost):
            return None
        exact = Fraction(cost)
        if exact.denominator > _MAX_DENOMINATOR:
            return None
        step = Fraction(
            math.gcd(
                step.numerator * exact.denominator,
                exact.numerator * step.denominator,
            ),
            step.denominator * exact.denominator,
        )
    return step or None


def _round_up(bound: float, step: Fraction | None) -> float:
    if step is None or not math.isfinite(bound):
        return bound
    return float(math.ceil(Fraction(bound) / step) * step)


@dataclass(frozen=True)
class RootRelaxation:
    """What one solve of a model's LP relaxation proved.

    ``bound`` is the certified lower bound on the MILP optimum, in
    true objective space (``obj_const`` included); None when the LP
    did not solve or the bound is not finite.  ``settled`` is the
    model's OPTIMAL solution when the LP point is integral, meets
    every row and column bound, and its objective meets ``bound``;
    None otherwise.  ``seconds`` is the LP's wall time.
    """

    bound: float | None
    settled: Solution | None
    seconds: float


def solve_root(
    model: CsrModel, time_limit: float | None = None
) -> RootRelaxation:
    """Solve ``model``'s LP relaxation and settle it when it can.

    An LP that is infeasible, unbounded, at a limit or in error (or a
    solver exception) yields neither a bound nor a settlement: the
    public LP interface gives no Farkas ray, so no infeasibility is
    ever claimed from the relaxation.
    """
    t0 = time.perf_counter()
    data = LpData(model)
    try:
        result = data.solve_lp(data.lb, data.ub, time_limit=time_limit)
    except (ValueError, TypeError, MemoryError):
        result = None
    if result is None or result.status != 0:
        return RootRelaxation(None, None, time.perf_counter() - t0)
    raw = _round_up(
        data.certified_bound(result), objective_granularity(model)
    )
    if not math.isfinite(raw):
        return RootRelaxation(None, None, time.perf_counter() - t0)
    bound = raw + float(model.obj_const)
    settled = _settle(model, result.x, bound, data.int_indices)
    seconds = time.perf_counter() - t0
    if settled is not None:
        settled.solve_seconds = seconds
    return RootRelaxation(bound, settled, seconds)


def _settle(
    model: CsrModel, x: np.ndarray, bound: float, int_indices: list[int]
) -> Solution | None:
    """The OPTIMAL solution at the LP point ``x``, or None when it is
    fractional, misses a row or column bound once snapped (by more than
    the rows' 1e-6 tolerance), or its objective is not within
    ``COST_TOL`` of ``bound``."""
    if int_indices and np.max(
        np.abs(x[int_indices] - np.round(x[int_indices]))
    ) > INT_TOL:
        return None
    values = model.solution_values(x)
    point = model.point(values)
    if (
        np.any(point < model.lb - INT_TOL)
        or np.any(point > model.ub + INT_TOL)
        or len(model.violated_rows(point))
    ):
        return None
    objective = float(model.obj @ point) + float(model.obj_const)
    if abs(objective - bound) > COST_TOL:
        return None
    return Solution(
        status=SolveStatus.OPTIMAL,
        objective=objective,
        values=values,
        best_bound=bound,
        n_nodes=0,
    )
