"""Tests for the HiGHS and branch-and-bound MILP backends."""

import pytest

from repro.ilp import (
    BnBOptions,
    CooBuilder,
    LinExpr,
    SolveStatus,
    solve_with_bnb,
    solve_with_highs,
)

BACKENDS = [
    pytest.param(solve_with_highs, id="highs"),
    pytest.param(solve_with_bnb, id="bnb"),
]


def knapsack():
    b = CooBuilder()
    values = [10, 13, 7, 8, 6]
    weights = [3, 4, 2, 3, 2]
    xs = [b.binary(f"x{i}") for i in range(5)]
    b.le(sum((w * x for w, x in zip(weights, xs)), LinExpr()), 7)
    b.minimize(sum((-v * x for v, x in zip(values, xs)), LinExpr()))
    return b.freeze("knapsack"), xs


@pytest.mark.parametrize("solve", BACKENDS)
class TestBackends:
    def test_knapsack_optimum(self, solve):
        m, _xs = knapsack()
        solution = solve(m)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(-23.0)  # {x0,x1} or {x0,x2,x4}

    def test_infeasible(self, solve):
        b = CooBuilder()
        x = b.binary("x")
        b.ge(x, 2)
        b.minimize(x)
        assert solve(b.freeze("model")).status is SolveStatus.INFEASIBLE

    def test_equality_constraints(self, solve):
        b = CooBuilder()
        x = b.integer_var("x", 0, 10)
        y = b.integer_var("y", 0, 10)
        b.eq(LinExpr({x.index: 1.0, y.index: 1.0}), 7)
        b.le(x - y, 1)
        b.minimize(-2 * x - y)
        solution = solve(b.freeze("model"))
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.value(x) == 4 and solution.value(y) == 3

    def test_continuous_variables(self, solve):
        b = CooBuilder()
        x = b.var("x", 0.0, 10.0)
        z = b.binary("z")
        b.le(x - 4 * z, 0)
        b.minimize(-x + 3 * z)
        solution = solve(b.freeze("model"))
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(-1.0)
        assert solution.value(x) == pytest.approx(4.0)

    def test_empty_model(self, solve):
        assert solve(CooBuilder().freeze("model")).status is SolveStatus.OPTIMAL

    @pytest.mark.parametrize(
        ("const", "status"),
        [(3.0, SolveStatus.INFEASIBLE), (-3.0, SolveStatus.OPTIMAL)],
    )
    def test_no_variables_reads_constant_rows(self, solve, const, status):
        # ``3 <= 0`` cannot hold even with nothing to choose.
        b = CooBuilder()
        b.le(LinExpr(const=const))
        b.minimize(LinExpr(const=5.0))
        solution = solve(b.freeze("model"))
        assert solution.status is status
        if status is SolveStatus.OPTIMAL:
            assert solution.objective == 5.0

    def test_objective_constant_carried(self, solve):
        b = CooBuilder()
        x = b.binary("x")
        b.ge(x, 1)
        b.minimize(x + 10)
        assert solve(b.freeze("model")).objective == pytest.approx(11.0)


class TestAgreement:
    def test_backends_agree_on_small_instances(self):
        import random

        rng = random.Random(0)
        for trial in range(15):
            builder = CooBuilder()
            xs = [builder.binary(f"x{i}") for i in range(6)]
            for _ in range(4):
                expr = sum(
                    (rng.choice([1, 2, 3]) * x for x in rng.sample(xs, 3)),
                    LinExpr(),
                )
                builder.le(expr, rng.choice([2, 3, 4]))
            builder.minimize(
                sum((rng.choice([-3, -2, -1, 1]) * x for x in xs), LinExpr())
            )
            m = builder.freeze(f"rand{trial}")
            a = solve_with_highs(m)
            b = solve_with_bnb(m)
            assert a.status == b.status
            if a.status is SolveStatus.OPTIMAL:
                assert a.objective == pytest.approx(b.objective, abs=1e-6)


class TestBnBLimits:
    def test_node_limit_returns_limit_status(self):
        m, _ = knapsack()
        solution = solve_with_bnb(m, BnBOptions(max_nodes=1))
        assert solution.status in (SolveStatus.LIMIT, SolveStatus.OPTIMAL)

    def test_limit_solution_feasible_if_any(self):
        m, xs = knapsack()
        solution = solve_with_bnb(m, BnBOptions(max_nodes=2))
        if solution.values:
            weight = sum(
                w * solution.value(x)
                for w, x in zip([3, 4, 2, 3, 2], xs)
            )
            assert weight <= 7 + 1e-9


def _routing_model(nx=6, ny=8, nz=4, n_nets=4, seed=0):
    from repro.clips import SyntheticClipSpec, make_synthetic_clip
    from repro.router import OptRouter, RuleConfig

    clip = make_synthetic_clip(
        SyntheticClipSpec(nx=nx, ny=ny, nz=nz, n_nets=n_nets, sinks_per_net=1),
        seed=seed,
    )
    return OptRouter().build(clip, RuleConfig()).csr


class TestTimeLimits:
    """Regression: the time limit is a deadline, not a suggestion."""

    def test_bnb_zero_limit_returns_limit_immediately(self):
        import time

        m = _routing_model()
        t0 = time.perf_counter()
        solution = solve_with_bnb(m, BnBOptions(time_limit=0.0))
        elapsed = time.perf_counter() - t0
        assert solution.status is SolveStatus.LIMIT
        assert elapsed < 1.0  # no node loop ran past the expired deadline

    def test_bnb_respects_tiny_limit_within_tolerance(self):
        import time

        m = _routing_model(n_nets=5, seed=3)
        limit = 0.05
        t0 = time.perf_counter()
        solution = solve_with_bnb(m, BnBOptions(time_limit=limit))
        elapsed = time.perf_counter() - t0
        assert solution.status in (SolveStatus.LIMIT, SolveStatus.OPTIMAL,
                                   SolveStatus.INFEASIBLE)
        # At most one LP solve may overshoot the deadline; LP solves on
        # these models are milliseconds, so a generous 2s bound proves
        # the loop no longer ignores the limit.
        assert elapsed < limit + 2.0

    def test_bnb_limit_keeps_incumbent_when_one_exists(self):
        m, xs = knapsack()
        # Node budget forces LIMIT after the first integral incumbent.
        solution = solve_with_bnb(m, BnBOptions(max_nodes=3))
        if solution.status is SolveStatus.LIMIT and solution.values:
            weight = sum(
                w * solution.value(x) for w, x in zip([3, 4, 2, 3, 2], xs)
            )
            assert weight <= 7 + 1e-9

    def test_highs_nonpositive_limit_short_circuits(self):
        m = _routing_model()
        solution = solve_with_highs(m, time_limit=0.0)
        assert solution.status is SolveStatus.LIMIT
        assert not solution.values
        solution = solve_with_highs(m, time_limit=-1.0)
        assert solution.status is SolveStatus.LIMIT
