"""Property sweep: the columnar ``CsrModel`` is an exact twin of the
object ``Model``.

The object model is the oracle representation; everything the columnar
cold path does must be *provably* indistinguishable from doing it on
the object form:

- ``from_model`` / ``to_model`` round-trip losslessly (exact floats,
  names, senses, integrality);
- ``canonical_text`` is byte-for-byte ``write_lp_canonical`` -- the
  solve-cache content address is oblivious to representation (including
  the ``-0.0`` vs ``0.0`` distinction);
- ``SolveCache.key_for`` yields the same key from either form.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.ilp.csr import CsrModel
from repro.ilp.lp_format import write_lp_canonical
from repro.ilp.model import LinExpr, Model
from repro.ilp.solve_cache import SolveCache


@st.composite
def random_model(draw):
    """Mixed-type MILPs exercising every field the CSR form stores:
    binaries, bounded integers, bounded continuous variables, all three
    senses, constant-only rows, row/objective constants, and zero
    objective coefficients."""
    n_vars = draw(st.integers(min_value=1, max_value=7))
    m = Model(name="prop")
    xs = []
    for i in range(n_vars):
        kind = draw(st.sampled_from(["binary", "integer", "continuous"]))
        if kind == "binary":
            xs.append(m.binary(f"x{i}"))
        elif kind == "integer":
            lo = draw(st.integers(min_value=-3, max_value=2))
            hi = lo + draw(st.integers(min_value=0, max_value=4))
            xs.append(m.integer(f"x{i}", lb=float(lo), ub=float(hi)))
        else:
            lo = draw(st.integers(min_value=-4, max_value=2))
            hi = lo + draw(st.integers(min_value=0, max_value=6))
            xs.append(m.var(f"x{i}", lb=float(lo), ub=float(hi)))

    n_cons = draw(st.integers(min_value=0, max_value=6))
    for _ in range(n_cons):
        coefs = draw(
            st.lists(
                st.integers(min_value=-3, max_value=3),
                min_size=n_vars,
                max_size=n_vars,
            )
        )
        rhs = draw(st.integers(min_value=-3, max_value=5))
        sense = draw(st.sampled_from(["<=", ">=", "=="]))
        expr = sum((c * x for c, x in zip(coefs, xs)), LinExpr())
        if sense == "<=":
            m.add(expr <= rhs)
        elif sense == ">=":
            m.add(expr >= rhs)
        else:
            m.add(expr == rhs)

    obj = draw(
        st.lists(
            st.integers(min_value=-5, max_value=5),
            min_size=n_vars,
            max_size=n_vars,
        )
    )
    obj_const = draw(st.integers(min_value=-3, max_value=3))
    m.minimize(sum((c * x for c, x in zip(obj, xs)), LinExpr()) + obj_const)
    return m


def assert_models_identical(a: Model, b: Model) -> None:
    """Field-exact equality (no tolerance): the round trip is lossless."""
    assert a.name == b.name
    assert [
        (v.index, v.name, v.lb, v.ub, v.is_integer) for v in a.variables
    ] == [(v.index, v.name, v.lb, v.ub, v.is_integer) for v in b.variables]
    assert [
        (c.expr.coefs, c.expr.const, c.sense, c.name) for c in a.constraints
    ] == [(c.expr.coefs, c.expr.const, c.sense, c.name) for c in b.constraints]
    assert a.objective.coefs == b.objective.coefs
    assert a.objective.const == b.objective.const


class TestRoundTrip:
    @given(random_model())
    @settings(max_examples=80, deadline=None)
    def test_model_csr_model_lossless(self, model):
        back = CsrModel.from_model(model).to_model()
        assert_models_identical(model, back)

    @given(random_model())
    @settings(max_examples=40, deadline=None)
    def test_stats_match(self, model):
        assert CsrModel.from_model(model).stats() == model.stats()


class TestCanonicalBytes:
    @given(random_model())
    @settings(max_examples=80, deadline=None)
    def test_canonical_text_matches_oracle(self, model):
        csr = CsrModel.from_model(model)
        assert csr.canonical_text() == write_lp_canonical(model)

    def test_negative_zero_row_const_stays_distinct(self):
        # Presolve rewrites can leave ``-0.0`` row constants; repr()
        # distinguishes it from ``0.0`` and so must the canonical text.
        for const in (-0.0, 0.0):
            m = Model(name="negzero")
            x = m.binary("x")
            m.add(LinExpr({x.index: 1.0}, const) <= 0.0)
            m.minimize(x)
            csr = CsrModel.from_model(m)
            text = csr.canonical_text()
            assert text == write_lp_canonical(m)
            assert f"| {const!r}" in text

    def test_negative_zero_bound_and_objective(self):
        m = Model(name="negzero2")
        x = m.var("x", lb=-0.0, ub=1.0)
        m.minimize(LinExpr({x.index: 1.0}, -0.0))
        csr = CsrModel.from_model(m)
        assert csr.canonical_text() == write_lp_canonical(m)


class TestCacheKeys:
    @given(random_model())
    @settings(max_examples=40, deadline=None)
    def test_key_for_is_representation_oblivious(self, model):
        options = {"backend": "highs", "time_limit": 60.0}
        assert SolveCache.key_for(model, options) == SolveCache.key_for(
            CsrModel.from_model(model), options
        )

