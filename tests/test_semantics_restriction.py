"""Restriction-prover tests (``repro.analysis.semantics.restriction``).

The model-level prover must agree with -- or strictly strengthen --
the syntactic ``is_restriction`` predicate on arbitrary rule configs
(hypothesis metamorphic suite), and prover-certified warm starts must
leave sweep results identical to a cold run.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.semantics import micro_corpus, prove_restriction
from repro.clips import SyntheticClipSpec, make_synthetic_clip
from repro.eval import EvalConfig, evaluate_clips, paper_rules
from repro.ilp.csr import CsrModel
from repro.router.formulation import BaseFormulation
from repro.router.rules import (
    RuleConfig,
    SadpParams,
    ViaRestriction,
    is_restriction,
)


def _micro_clip(name: str):
    for micro in micro_corpus():
        if micro.clip.name == name:
            return micro.clip
    raise KeyError(name)


#: One clip object across tests/examples, so the process-wide
#: formulation cache serves its base formulation.
_CLIP = _micro_clip("mc-via")

_OFFSET = st.tuples(st.integers(-1, 1), st.integers(-1, 1)).filter(
    lambda o: o != (0, 0)
)
_OFFSETS = st.frozensets(_OFFSET, max_size=4).map(lambda s: tuple(sorted(s)))

_RULES = st.builds(
    RuleConfig,
    name=st.just("RND"),
    via_restriction=st.sampled_from(sorted(ViaRestriction, key=lambda v: v.value)),
    sadp_min_metal=st.sampled_from([None, 2, 3]),
    allow_via_shapes=st.booleans(),
    sadp=st.builds(
        SadpParams, opposite_offsets=_OFFSETS, same_offsets=_OFFSETS
    ),
)


class TestMetamorphic:
    """Random rule pairs: the prover never contradicts the predicate."""

    @settings(max_examples=30, deadline=None)
    @given(base=_RULES, other=_RULES)
    def test_prover_agrees_with_or_strengthens_predicate(self, base, other):
        proof = prove_restriction(_CLIP, base, other)
        assert proof.predicate == is_restriction(base, other)
        # The buggy direction is impossible: whenever the syntactic
        # predicate claims a restriction, the model-level proof must
        # close.  (holds=True with predicate=False is fine -- the
        # prover sees domination the syntax cannot.)
        assert proof.agrees_with_predicate
        if proof.predicate:
            assert proof.holds

    @settings(max_examples=15, deadline=None)
    @given(rule=_RULES)
    def test_reflexive(self, rule):
        proof = prove_restriction(_CLIP, rule, rule)
        assert proof.holds
        assert proof.n_matched == proof.n_rows


class TestTable3:
    """All ordered Table-3 pairs on a via-bearing micro-clip."""

    def test_predicate_prover_agreement_on_all_pairs(self, monkeypatch):
        # Proofs read the CSR rule delta: no object Model is built.
        def to_model(self):
            raise AssertionError("restriction proof built an object Model")

        monkeypatch.setattr(CsrModel, "to_model", to_model)
        rules = paper_rules()
        holds = strengthened = rows = matched = lp = dominated = 0
        for base in rules:
            for other in rules:
                if base.name == other.name:
                    continue
                proof = prove_restriction(_CLIP, base, other)
                assert proof.predicate == is_restriction(base, other)
                assert proof.agrees_with_predicate, (
                    f"{base.name} -> {other.name}: predicate says "
                    f"restriction but prover failed on {proof.failures}"
                )
                holds += proof.holds
                if proof.holds and not proof.predicate:
                    strengthened += 1
                rows += proof.n_rows
                matched += proof.n_matched
                lp += proof.n_lp
                dominated += proof.n_dominated
        # The prover is strictly stronger than the syntax on Table 3.
        assert strengthened > 0
        # Per-method accounting over the 110 ordered pairs: a change
        # to how delta rows are read or discharged shows up here.
        assert (holds, strengthened) == (65, 23)
        assert (rows, matched, lp, dominated) == (2250, 693, 159, 0)

    def test_rule1_base_is_vacuous(self, monkeypatch):
        rules = {r.name: r for r in paper_rules()}
        specialized = []
        original = BaseFormulation.specialize

        def specialize(self, rule):
            specialized.append(rule.name)
            return original(self, rule)

        monkeypatch.setattr(BaseFormulation, "specialize", specialize)
        proof = prove_restriction(_CLIP, rules["RULE1"], rules["RULE7"])
        assert proof.holds
        assert proof.n_rows == 0  # RULE1 adds no delta rows
        # ... so no row needs the follower, which is never specialized.
        assert specialized == ["RULE1"]

    def test_via_shape_mismatch_fails_closed(self):
        rule1 = paper_rules()[0]
        shaped = dataclasses.replace(rule1, allow_via_shapes=True)
        proof = prove_restriction(_CLIP, rule1, shaped)
        assert not proof.holds
        assert not proof.predicate
        assert proof.agrees_with_predicate


class TestArrayMatching:
    """The vacuous and verbatim-match steps run on CSR arrays; row for
    row they must agree with each delta row's name-canonical form."""

    @staticmethod
    def _rows(csr, start):
        for r in range(start, csr.n_rows):
            lo, hi = csr.indptr[r], csr.indptr[r + 1]
            yield (
                int(csr.senses[r]),
                float(csr.row_const[r]),
                {
                    csr.var_names[j]: coef
                    for j, coef in zip(
                        csr.indices[lo:hi].tolist(), csr.data[lo:hi].tolist()
                    )
                },
            )

    @staticmethod
    def _canon(row):
        sense, const, terms = row
        return (
            sense,
            round(const, 9),
            tuple(sorted((n, round(c, 9)) for n, c in terms.items())),
        )

    @staticmethod
    def _vacuous(row):
        sense, const, terms = row
        sign = {0: 1.0, 1: -1.0}.get(sense)
        return sign is not None and sign * const <= 1e-9 and all(
            sign * coef <= 1e-9 for coef in terms.values()
        )

    def test_array_steps_match_the_per_row_forms(self):
        from repro.analysis.semantics.restriction import _vacuous, _verbatim
        from repro.router.formulation import formulation_cache

        rules = paper_rules()
        for clip in (_CLIP, _micro_clip("mc-sadp3"), _micro_clip("mc-tall")):
            base = formulation_cache().base_for(clip)
            n_core = base.core.n_rows
            csrs = [base.specialize(rule).csr for rule in rules]
            rows = [list(self._rows(csr, n_core)) for csr in csrs]
            for csr, own in zip(csrs, rows):
                assert _vacuous(csr, n_core).tolist() == [
                    self._vacuous(row) for row in own
                ]
            for base_csr, base_rows in zip(csrs, rows):
                for other_csr, other_rows in zip(csrs, rows):
                    canon = {self._canon(row) for row in other_rows}
                    assert _verbatim(
                        base_csr, other_csr, n_core, base.core.n_vars
                    ).tolist() == [self._canon(row) in canon for row in base_rows]


class TestCertifiedWarmSweep:
    """Warm-start sweep under proofs == cold sweep, edge for edge."""

    def test_warm_equals_cold_and_every_edge_is_certified(self):
        spec = SyntheticClipSpec(
            nx=5, ny=6, nz=3, n_nets=2, sinks_per_net=1,
            access_points_per_pin=2,
        )
        clips = [make_synthetic_clip(spec, seed=s) for s in range(2)]
        rules = paper_rules()[:4]
        warm = evaluate_clips(
            clips, rules,
            EvalConfig(time_limit_per_clip=30.0, audit=False),
        )
        cold = evaluate_clips(
            clips, rules,
            EvalConfig(
                time_limit_per_clip=30.0, audit=False, incremental=False
            ),
        )
        # No predicate-vs-prover disagreement in the buggy direction.
        assert warm.restriction_disagreements == []
        certified_edges = 0
        for rule in warm.rule_names:
            warm_outcomes = warm.outcomes[rule]
            cold_outcomes = cold.outcomes[rule]
            assert [
                (o.status, o.cost) for o in warm_outcomes
            ] == [(o.status, o.cost) for o in cold_outcomes]
            for outcome in warm_outcomes:
                # Every consumed warm edge carries a restriction proof.
                if outcome.warm_used:
                    assert outcome.restriction_certified
            certified_edges += warm.restriction_certified_count(rule)
        assert certified_edges > 0
