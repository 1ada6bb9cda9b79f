"""Tests for the MILP modeling layer: the expression algebra and the
builder that emits rows into a ``CsrModel``."""

import pytest

from repro.ilp import CooBuilder, LinExpr


class TestLinExpr:
    def test_var_arithmetic(self):
        m = CooBuilder()
        x, y = m.binary("x"), m.binary("y")
        expr = 2 * x + 3 * y - 1
        assert expr.coefs == {x.index: 2.0, y.index: 3.0}
        assert expr.const == -1.0

    def test_addition_merges_terms(self):
        m = CooBuilder()
        x = m.binary("x")
        expr = x + x + x
        assert expr.coefs == {x.index: 3.0}

    def test_cancellation_drops_zero(self):
        m = CooBuilder()
        x, y = m.binary("x"), m.binary("y")
        expr = (x + y) - x
        assert expr.coefs == {y.index: 1.0}

    def test_rsub(self):
        m = CooBuilder()
        x = m.binary("x")
        expr = 5 - x
        assert expr.const == 5.0
        assert expr.coefs == {x.index: -1.0}

    def test_negation_and_scaling(self):
        m = CooBuilder()
        x = m.binary("x")
        assert (-x).coefs == {x.index: -1.0}
        assert (x * 0.5).coefs == {x.index: 0.5}

    def test_nonlinear_rejected(self):
        m = CooBuilder()
        x, y = m.binary("x"), m.binary("y")
        with pytest.raises(TypeError):
            (x + 0) * (y + 0)

    def test_inplace_ops_mutate(self):
        m = CooBuilder()
        x, y = m.binary("x"), m.binary("y")
        expr = LinExpr()
        expr += x
        expr -= y
        assert expr.coefs == {x.index: 1.0, y.index: -1.0}


class TestConstraints:
    """Rows are stored normalized: ``expr - rhs (sense) 0``."""

    def test_le_normalization(self):
        m = CooBuilder()
        x = m.binary("x")
        m.le(2 * x, 1)
        ((coefs, const, sense),) = m.freeze("m").rows()
        assert sense == "<="
        assert coefs == {x.index: 2.0}
        assert const == -1.0

    def test_ge_and_eq(self):
        m = CooBuilder()
        x = m.binary("x")
        m.ge(x, 1)
        m.eq(LinExpr({x.index: 1.0}), 1)
        assert [sense for _, _, sense in m.freeze("m").rows()] == [">=", "=="]

    def test_named(self):
        m = CooBuilder()
        x = m.binary("x")
        m.le(x, 1, name="cap")
        assert m.freeze("m").row_names == ["cap"]


class TestModel:
    def test_variable_kinds(self):
        m = CooBuilder()
        b = m.binary("b")
        i = m.integer_var("i", 0, 9)
        c = m.var("c", -1.0, 1.0)
        assert b.is_integer and b.ub == 1.0
        assert i.is_integer and i.ub == 9
        assert not c.is_integer
        model = m.freeze("kinds")
        assert model.n_vars == 3
        assert model.n_integer_vars == 2

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            CooBuilder().var("x", 2.0, 1.0)

    def test_stats(self):
        m = CooBuilder()
        x, y = m.binary("x"), m.binary("y")
        m.le(x + y, 1)
        m.ge(x - y, 0)
        m.minimize(x + 2 * y)
        stats = m.freeze("stats").stats()
        assert stats == {
            "n_vars": 2, "n_integer_vars": 2,
            "n_constraints": 2, "n_nonzeros": 4,
        }
