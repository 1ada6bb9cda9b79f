"""Property-based tests: the two MILP backends are interchangeable."""

from hypothesis import given, settings, strategies as st

from repro.ilp import (
    CooBuilder,
    LinExpr,
    SolveStatus,
    solve_with_bnb,
    solve_with_highs,
)


@st.composite
def random_milp(draw):
    n_vars = draw(st.integers(min_value=2, max_value=6))
    n_cons = draw(st.integers(min_value=1, max_value=5))
    m = CooBuilder()
    xs = [m.binary(f"x{i}") for i in range(n_vars)]
    for _ in range(n_cons):
        coefs = draw(
            st.lists(
                st.integers(min_value=-3, max_value=3),
                min_size=n_vars, max_size=n_vars,
            )
        )
        rhs = draw(st.integers(min_value=-2, max_value=4))
        sense = draw(st.sampled_from(["<=", ">="]))
        expr = sum((c * x for c, x in zip(coefs, xs)), LinExpr())
        (m.le if sense == "<=" else m.ge)(expr, rhs)
    obj = draw(
        st.lists(
            st.integers(min_value=-5, max_value=5),
            min_size=n_vars, max_size=n_vars,
        )
    )
    m.minimize(sum((c * x for c, x in zip(obj, xs)), LinExpr()))
    return m.freeze("prop")


class TestBackendEquivalence:
    @given(random_milp())
    @settings(max_examples=40, deadline=None)
    def test_same_status_and_objective(self, model):
        a = solve_with_highs(model)
        b = solve_with_bnb(model)
        assert a.status == b.status
        if a.status is SolveStatus.OPTIMAL:
            assert abs(a.objective - b.objective) < 1e-6

    @given(random_milp())
    @settings(max_examples=25, deadline=None)
    def test_highs_solution_satisfies_constraints(self, model):
        solution = solve_with_highs(model)
        if solution.status is not SolveStatus.OPTIMAL:
            return
        x = model.point(solution.values)
        assert not len(model.violated_rows(x, tol=1e-6))


class TestLinExprAlgebra:
    @given(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3),
        st.integers(min_value=-9, max_value=9),
    )
    def test_scaling_distributes(self, coefs, k):
        m = CooBuilder()
        xs = [m.binary(f"x{i}") for i in range(3)]
        expr = sum((c * x for c, x in zip(coefs, xs)), LinExpr()) + 2
        scaled = expr * k
        for x, c in zip(xs, coefs):
            assert scaled.coefs.get(x.index, 0.0) == c * k
        assert scaled.const == 2 * k

    @given(st.integers(min_value=-9, max_value=9))
    def test_add_then_subtract_roundtrip(self, c):
        m = CooBuilder()
        x, y = m.binary("x"), m.binary("y")
        expr = (x + c * y) - c * y
        assert expr.coefs == {x.index: 1.0}
