"""Property sweep: ``CsrModel.canonical_text`` -- the solve-cache
content address -- is byte-for-byte the plain per-row reference
rendering in ``tests/ilp_oracle.py``.

- random models drawn through ``CooBuilder`` (every sense,
  constant-only rows, bounded integer and continuous variables,
  ``-0.0`` constants) serialize identically under both;
- ``SolveCache.key_for`` is SHA-256 of that text plus the options JSON;
- ``violated_rows`` agrees with a plain loop over ``rows()``;
- the routing ILPs of a 100-clip pool under RULE1/RULE7/RULE11
  serialize identically under both;
- three golden keys pin the key format, so cache entries written by
  earlier builds stay addressable.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.clips import SyntheticClipSpec, make_synthetic_clip, select_top_clips
from repro.eval import paper_rule
from repro.ilp import CooBuilder, LinExpr, SolveCache
from repro.router import OptRouter

from .ilp_oracle import write_lp_canonical

#: Row and objective constants: small integers plus both signed zeros.
_CONSTANTS = st.one_of(
    st.sampled_from([-0.0, 0.0]),
    st.integers(min_value=-3, max_value=5).map(float),
)


@st.composite
def random_model(draw):
    """Mixed-type MILPs exercising every field the CSR form stores:
    binaries, bounded integers, bounded continuous variables, all three
    senses, constant-only rows, row/objective constants (``-0.0``
    included), and zero objective coefficients."""
    n_vars = draw(st.integers(min_value=1, max_value=7))
    b = CooBuilder()
    xs = []
    for i in range(n_vars):
        kind = draw(st.sampled_from(["binary", "integer", "continuous"]))
        if kind == "binary":
            xs.append(b.binary(f"x{i}"))
        elif kind == "integer":
            lo = draw(st.integers(min_value=-3, max_value=2))
            hi = lo + draw(st.integers(min_value=0, max_value=4))
            xs.append(b.integer_var(f"x{i}", lb=float(lo), ub=float(hi)))
        else:
            lo = draw(st.integers(min_value=-4, max_value=2))
            hi = lo + draw(st.integers(min_value=0, max_value=6))
            xs.append(b.var(f"x{i}", lb=float(lo), ub=float(hi)))

    add = {"<=": b.le, ">=": b.ge, "==": b.eq}
    n_cons = draw(st.integers(min_value=0, max_value=6))
    for _ in range(n_cons):
        coefs = draw(
            st.lists(
                st.integers(min_value=-3, max_value=3),
                min_size=n_vars,
                max_size=n_vars,
            )
        )
        # All-zero coefficients make a constant-only row.
        expr = LinExpr(
            {x.index: float(c) for c, x in zip(coefs, xs) if c},
            draw(_CONSTANTS),
        )
        add[draw(st.sampled_from(sorted(add)))](expr)

    obj = draw(
        st.lists(
            st.integers(min_value=-5, max_value=5),
            min_size=n_vars,
            max_size=n_vars,
        )
    )
    b.minimize(
        LinExpr(
            {x.index: float(c) for c, x in zip(obj, xs) if c},
            draw(_CONSTANTS),
        )
    )
    return b.freeze("prop")


class TestCanonicalBytes:
    @given(random_model())
    @settings(max_examples=80, deadline=None)
    def test_canonical_text_matches_oracle(self, model):
        assert model.canonical_text() == write_lp_canonical(model)

    def test_negative_zero_row_const_stays_distinct(self):
        # repr() distinguishes ``-0.0`` from ``0.0`` and so must the
        # canonical text.
        for const in (-0.0, 0.0):
            b = CooBuilder()
            x = b.binary("x")
            b.le(LinExpr({x.index: 1.0}, const))
            b.minimize(x)
            csr = b.freeze("negzero")
            text = csr.canonical_text()
            assert text == write_lp_canonical(csr)
            assert f"| {const!r}" in text

    def test_negative_zero_bound_and_objective(self):
        b = CooBuilder()
        x = b.var("x", lb=-0.0, ub=1.0)
        b.minimize(LinExpr({x.index: 1.0}, -0.0))
        csr = b.freeze("negzero2")
        assert csr.canonical_text() == write_lp_canonical(csr)


class TestRowAccessors:
    @given(random_model(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_violated_rows_matches_row_loop(self, model, data):
        # Half-integral points keep every activity exact, so the
        # vectorized check must equal the plain per-row loop exactly.
        values = {
            j: data.draw(st.integers(min_value=-8, max_value=8)) / 2
            for j in range(model.n_vars)
            if data.draw(st.booleans())
        }
        x = model.point(values)
        for j in range(model.n_vars):
            assert x[j] == values.get(j, model.lb[j])
        expected = []
        for r, (coefs, const, sense) in enumerate(model.rows()):
            lhs = const + sum(coef * x[j] for j, coef in coefs.items())
            if (
                (sense == "<=" and lhs > 1e-6)
                or (sense == ">=" and lhs < -1e-6)
                or (sense == "==" and abs(lhs) > 1e-6)
            ):
                expected.append(r)
        assert model.violated_rows(x).tolist() == expected


def oracle_key(model, options: dict) -> str:
    payload = write_lp_canonical(model) + json.dumps(
        options, sort_keys=True, default=str
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class TestCacheKeys:
    @given(random_model())
    @settings(max_examples=40, deadline=None)
    def test_key_for_is_representation_oblivious(self, model):
        # The key does not depend on which serializer renders the
        # model: the shipping one and the reference agree.
        options = {"backend": "highs", "time_limit": 60.0}
        assert SolveCache.key_for(model, options) == oracle_key(model, options)


#: Keys of one small clip; a change here orphans every cache entry on
#: disk.  RULE1's was computed before the object model left the
#: package; RULE7's and RULE11's moved when the rule rows took their
#: strong form (flow-aware SADP rows, FULL block rows), which changes
#: those models.
GOLDEN_KEYS = {
    "RULE1": "8e439c6258d754c836be80d6681ea9c6ddcf058f680ff657932f05e3aa7b673b",
    "RULE7": "871a39e81e2e43f52d2a1025c1ac3420895ffc50ff58ffdf59c59a1e98ef99c5",
    "RULE11": "051f51ea3524ee4e92ed0da1bd19a03eae0948debda23387f4ecf470da98b76e",
}


class TestGoldenKeys:
    @pytest.mark.parametrize("rule_name", sorted(GOLDEN_KEYS))
    def test_key_format_is_pinned(self, rule_name):
        clip = make_synthetic_clip(
            SyntheticClipSpec(
                nx=4, ny=5, nz=3, n_nets=2, sinks_per_net=1,
                access_points_per_pin=2,
            ),
            seed=0,
        )
        router = OptRouter()
        ilp = router.build(clip, paper_rule(rule_name))
        options = router._cache_options()
        assert options == {"backend": "highs", "time_limit": None}
        key = SolveCache.key_for(ilp.csr, options)
        assert key == oracle_key(ilp.csr, options)
        assert key == GOLDEN_KEYS[rule_name]


#: 2-pin-net clip shapes of the routing-ILP key gate, ranked by pin cost.
SHAPES = (
    SyntheticClipSpec(nx=4, ny=5, nz=6, n_nets=4, sinks_per_net=1,
                      access_points_per_pin=2),
    SyntheticClipSpec(nx=4, ny=4, nz=6, n_nets=3, sinks_per_net=1,
                      access_points_per_pin=2),
    SyntheticClipSpec(nx=4, ny=5, nz=6, n_nets=3, sinks_per_net=1,
                      access_points_per_pin=2),
)
SEEDS_PER_SHAPE = 50
TOP_K = 100


def clip_pool():
    pool = []
    for shape_no, spec in enumerate(SHAPES):
        for seed in range(SEEDS_PER_SHAPE):
            try:
                clip = make_synthetic_clip(
                    spec, seed=seed, name=f"bench_sh{shape_no}_s{seed}"
                )
            except ValueError:
                continue  # spec too tight for this seed
            pool.append(clip)
    return select_top_clips(pool, k=TOP_K)


class TestRoutingIlpKeys:
    def test_canonical_text_matches_oracle_on_300_ilps(self):
        # Build and serialize only: every cold build of the pool under
        # the baseline, via-shape and SADP rules.
        router = OptRouter(certify=False, reuse_formulation=False)
        clips = clip_pool()
        assert len(clips) == TOP_K
        for clip in clips:
            for rule_name in ("RULE1", "RULE7", "RULE11"):
                csr = router.build(clip, paper_rule(rule_name)).csr
                assert csr.canonical_text() == write_lp_canonical(csr), (
                    clip.name, rule_name,
                )
