"""LP first: the root relaxation, its certified bound, and the HiGHS
backend's settle-or-fall-through path.

Any warning fails a test here (an ``OptimizeWarning`` for an option
scipy passed through verbatim, for example).
"""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import OptimizeResult, milp

import repro.ilp.highs_backend as highs_backend
import repro.ilp.relaxation as relaxation
from repro.clips import make_synthetic_clip
from repro.eval import rules_for_technology
from repro.ilp import CooBuilder, SolveStatus, solve_with_highs
from repro.ilp.highs_backend import _milp_inputs
from repro.ilp.relaxation import objective_granularity, solve_root
from repro.router import OptRouter, build_routing_ilp
from repro.router.optrouter import RouteStatus

from .test_router_formulation import POOL_SPEC, golden_cases

pytestmark = pytest.mark.filterwarnings("error")


@pytest.fixture
def milp_calls(monkeypatch):
    """Counts the backend's ``milp`` calls (and still runs them)."""
    calls = []
    real = highs_backend.milp

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(highs_backend, "milp", counting)
    return calls


@pytest.fixture
def no_milp(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("milp ran on a model the LP settles")

    monkeypatch.setattr(highs_backend, "milp", boom)


def _plain_milp(model):
    """``scipy.optimize.milp`` alone on the model's arrays."""
    cost, integrality, bounds, constraints = _milp_inputs(model)
    return milp(
        c=cost, constraints=constraints, integrality=integrality,
        bounds=bounds, options={"mip_rel_gap": 0.0},
    )


def _half_cover(costs=(1.0, 1.0)):
    """``min a x + b y`` s.t. ``2x + 2y >= 1`` over binaries: the LP
    sits at ``x + y = 1/2``."""
    b = CooBuilder()
    x, y = b.binary("x"), b.binary("y")
    b.ge(2 * x + 2 * y, 1)
    b.minimize(costs[0] * x + costs[1] * y)
    return b.freeze("half_cover")


def _sweep_rule(name):
    clip = make_synthetic_clip(POOL_SPEC, seed=7003)
    rule = {r.name: r for r in rules_for_technology("N28-12T")}[name]
    return clip, rule, build_routing_ilp(clip, rule, reuse=False).csr


class TestSettle:
    def test_integral_lp_settles_without_milp(self, no_milp):
        b = CooBuilder()
        xs = [b.binary(f"x{i}") for i in range(3)]
        b.ge(xs[0] + xs[1], 1)
        b.ge(xs[1] + xs[2], 1)
        b.minimize(2 * xs[0] + 3 * xs[1] + 2 * xs[2])
        solution = solve_with_highs(b.freeze("m"))
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == 3.0
        assert solution.best_bound == 3.0
        assert solution.n_nodes == 0
        assert solution.solve_seconds > 0
        assert solution.values == {0: 0, 1: 1, 2: 0}

    def test_fractional_lp_rounds_up_and_milp_decides(self, milp_calls):
        model = _half_cover()
        root = solve_root(model)
        assert root.settled is None
        assert root.bound == 1.0  # LP value 0.5, rounded up to g = 1
        solution = solve_with_highs(model)
        assert milp_calls == [1]
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == 1.0

    def test_half_costs_round_to_half(self, milp_calls):
        model = _half_cover(costs=(0.5, 1.5))
        assert objective_granularity(model) == Fraction(1, 2)
        root = solve_root(model)
        assert root.bound == 0.5  # LP value 0.25
        assert solve_with_highs(model).objective == 0.5

    def test_granularity_is_exact(self):
        assert objective_granularity(_half_cover((1.5, 1.75))) == Fraction(1, 4)
        assert objective_granularity(_half_cover((4.0, 6.0))) == 2
        assert objective_granularity(_half_cover((1.0, 0.1))) is None
        assert objective_granularity(_half_cover((0.0, 0.0))) is None

    def test_costed_continuous_column_gets_no_rounding(self, milp_calls):
        # min 2x + z s.t. 4x + z >= 1: the LP takes x = 1/4 (value
        # 1/2); the MILP takes z = 1.
        b = CooBuilder()
        x = b.binary("x")
        z = b.var("z", 0.0, 1.0)
        b.ge(4 * x + z, 1)
        b.minimize(2 * x + z)
        model = b.freeze("m")
        assert objective_granularity(model) is None
        root = solve_root(model)
        assert root.settled is None
        assert 0.5 - 1e-6 < root.bound <= 0.5
        solution = solve_with_highs(model)
        assert milp_calls == [1]
        assert solution.objective == pytest.approx(1.0)

    def test_eq_and_ge_rows(self, no_milp):
        b = CooBuilder()
        x = b.integer_var("x", 0, 5)
        y = b.integer_var("y", 0, 5)
        b.eq(x + y, 3)
        b.ge(x, 1)
        b.le(x - y, 5)
        b.minimize(x + 2 * y + 10)
        solution = solve_with_highs(b.freeze("m"))
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == solution.best_bound == 13.0
        assert solution.values == {0: 3, 1: 0}

    def test_infeasible_lp_falls_through_to_milp(self, milp_calls):
        b = CooBuilder()
        x = b.binary("x")
        b.ge(x, 2)
        b.minimize(x)
        model = b.freeze("m")
        root = solve_root(model)
        assert root.bound is None and root.settled is None
        assert solve_with_highs(model).status is SolveStatus.INFEASIBLE
        assert milp_calls == [1]

    def test_model_with_no_rows(self, no_milp):
        b = CooBuilder()
        x, y = b.binary("x"), b.binary("y")
        b.minimize(x - y)
        model = b.freeze("m")
        assert model.n_rows == 0
        solution = solve_with_highs(model)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == solution.best_bound == -1.0

    def test_needed_unbounded_column_gives_no_bound(self, milp_calls):
        # z is basic at 1/2 with reduced cost 0 up to rounding, and
        # nothing bounds it above: the Lagrangian bound is -inf.
        b = CooBuilder()
        x = b.binary("x")
        z = b.var("z", 0.0, float("inf"))
        b.ge(z, 0.5)
        b.minimize(z + x)
        model = b.freeze("m")
        root = solve_root(model)
        assert root.bound is None and root.settled is None
        solution = solve_with_highs(model)
        assert milp_calls == [1]
        assert solution.objective == pytest.approx(0.5)

    def test_lp_exception_is_contained(self, monkeypatch, milp_calls):
        def broken(*args, **kwargs):
            raise ValueError("LP blew up")

        monkeypatch.setattr(relaxation, "linprog", broken)
        model = _half_cover()
        assert solve_root(model).bound is None
        solution = solve_with_highs(model)
        assert solution.status is SolveStatus.OPTIMAL
        assert milp_calls == [1]


class TestBoundFromDuals:
    def test_zeroed_marginals_lose_the_bound(self, monkeypatch, milp_calls):
        _clip, _rule, model = _sweep_rule("RULE1")
        honest = solve_root(model)
        assert honest.settled is not None

        real = relaxation.linprog

        def zeroed(*args, **kwargs):
            result = real(*args, **kwargs)
            for side in ("ineqlin", "eqlin"):
                block = result[side]
                result[side] = OptimizeResult(
                    residual=block.residual,
                    marginals=np.zeros_like(block.marginals),
                )
            return result

        monkeypatch.setattr(relaxation, "linprog", zeroed)
        root = solve_root(model)
        assert root.settled is None
        assert root.bound == 0.0  # every cost >= 0 on columns with lb 0
        solution = solve_with_highs(model)
        assert milp_calls == [1]
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == honest.settled.objective

    def test_reported_objective_is_never_read(self, monkeypatch):
        _clip, _rule, model = _sweep_rule("RULE1")
        honest = solve_root(model)
        real = relaxation.linprog

        def inflated(*args, **kwargs):
            result = real(*args, **kwargs)
            result["fun"] = result.fun + 100.0
            return result

        monkeypatch.setattr(relaxation, "linprog", inflated)
        root = solve_root(model)
        assert root.bound == honest.bound
        assert root.settled.objective == honest.settled.objective
        assert root.settled.values == honest.settled.values


class TestLimitBound:
    """A LIMIT carries the certified LP bound, also with no incumbent."""

    @pytest.mark.parametrize("dual", [None, 5.0])
    def test_limit_without_incumbent(self, monkeypatch, dual):
        clip, rule, model = _sweep_rule("RULE2")
        lp_bound = solve_root(model).bound
        assert lp_bound == 23.0

        def stopped(*args, **kwargs):
            return OptimizeResult(
                status=1, x=None, fun=None, mip_node_count=7,
                mip_dual_bound=dual,
            )

        monkeypatch.setattr(highs_backend, "milp", stopped)
        solution = solve_with_highs(model, time_limit=60.0)
        assert solution.status is SolveStatus.LIMIT
        assert solution.best_bound == lp_bound
        result = OptRouter(time_limit=60.0).route(clip, rule)
        assert result.status is RouteStatus.LIMIT
        assert result.bound == lp_bound
        assert result.gap is None or result.gap >= 0

    def test_limit_with_incumbent_keeps_gap_nonnegative(self, monkeypatch):
        clip, rule, model = _sweep_rule("RULE2")
        incumbent = _plain_milp(model)

        def stopped(*args, **kwargs):
            return OptimizeResult(
                status=1, x=incumbent.x, fun=incumbent.fun,
                mip_node_count=7, mip_dual_bound=5.0,
            )

        monkeypatch.setattr(highs_backend, "milp", stopped)
        result = OptRouter(time_limit=60.0).route(clip, rule)
        assert result.status is RouteStatus.LIMIT
        assert result.bound == 23.0
        assert result.cost == 23.0
        assert result.gap == 0.0

    def test_lp_that_uses_up_the_limit_ends_limit(self, monkeypatch, no_milp):
        _clip, _rule, model = _sweep_rule("RULE2")
        real = highs_backend.solve_root

        def slow(model, time_limit=None):
            return replace(real(model, time_limit), seconds=11.0)

        monkeypatch.setattr(highs_backend, "solve_root", slow)
        solution = solve_with_highs(model, time_limit=10.0)
        assert solution.status is SolveStatus.LIMIT
        assert solution.best_bound == 23.0
        assert solution.solve_seconds == 11.0


class TestCorpusParity:
    """The 22 sweepbench-shape golden models: LP first agrees with
    plain ``milp`` on status and objective, and its certified bound
    never passes the optimum."""

    def test_pool_cases_match_plain_milp(self, milp_calls):
        cases = [c for c in golden_cases() if c[0].startswith("pool-")]
        assert len(cases) == 22
        settled = 0
        for case, spec, seed, rule in cases:
            model = build_routing_ilp(
                make_synthetic_clip(spec, seed=seed), rule, reuse=False
            ).csr
            plain = _plain_milp(model)
            before = len(milp_calls)
            solution = solve_with_highs(model)
            settled += len(milp_calls) == before
            assert plain.status == 0, case
            assert solution.status is SolveStatus.OPTIMAL, case
            assert solution.objective == pytest.approx(
                plain.fun + model.obj_const, abs=1e-6
            ), case
            bound = solve_root(model).bound
            assert bound is not None and bound <= solution.objective, case
        assert settled >= 1
