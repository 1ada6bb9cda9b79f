"""Tests for the shared rule-independent formulation core.

The tentpole invariant: ``BaseFormulation.build`` once + one
``specialize`` per rule must be indistinguishable (model structure,
solve outcome) from building each rule's ILP from scratch.
"""

import pytest

from repro.clips import SyntheticClipSpec, make_synthetic_clip
from repro.ilp import solve_with_highs
from repro.router import (
    BaseFormulation,
    FormulationCache,
    OptRouter,
    RuleConfig,
    ViaRestriction,
)
from repro.router.formulation import build_routing_ilp


def clip(seed=0, **overrides):
    spec = SyntheticClipSpec(
        nx=5, ny=6, nz=3, n_nets=2, sinks_per_net=1, **overrides
    )
    return make_synthetic_clip(spec, seed=seed)


RULES = [
    RuleConfig(name="RULE1"),
    RuleConfig(name="RULE3", sadp_min_metal=3),
    RuleConfig(name="RULE6", via_restriction=ViaRestriction.ORTHOGONAL),
    RuleConfig(
        name="RULE11",
        via_restriction=ViaRestriction.FULL,
        sadp_min_metal=3,
    ),
]


class TestSpecializeEquivalence:
    def test_model_stats_match_cold_build(self):
        c = clip()
        base = BaseFormulation.build(c)
        for rule in RULES:
            shared = base.specialize(rule)
            cold = build_routing_ilp(c, rule, reuse=False)
            assert shared.model.stats() == cold.model.stats(), rule.name

    def test_solve_outcomes_match_cold_build(self):
        c = clip()
        base = BaseFormulation.build(c)
        for rule in RULES:
            shared = solve_with_highs(base.specialize(rule).model)
            cold = solve_with_highs(build_routing_ilp(c, rule, reuse=False).model)
            assert shared.status is cold.status, rule.name
            if shared.objective is not None:
                assert shared.objective == pytest.approx(cold.objective)

    def test_specializations_do_not_contaminate_each_other(self):
        # Specialize a heavy rule first, then the free one: the free
        # one must not inherit the heavy rule's constraints.
        c = clip()
        base = BaseFormulation.build(c)
        core_stats = base.core.stats()
        heavy = base.specialize(RULES[3])
        free = base.specialize(RULES[0])
        assert free.model.stats() == core_stats
        assert heavy.model.stats()["n_constraints"] > (
            free.model.stats()["n_constraints"]
        )
        # And the base model itself was never touched.
        assert base.core.stats() == core_stats

    def test_graph_is_shared_not_rebuilt(self):
        base = BaseFormulation.build(clip())
        a = base.specialize(RULES[0])
        b = base.specialize(RULES[2])
        assert a.graph is base.graph
        assert b.graph is base.graph

    def test_via_shapes_mismatch_rejected(self):
        base = BaseFormulation.build(clip(), allow_via_shapes=False)
        with pytest.raises(ValueError, match="via.shapes"):
            base.specialize(RuleConfig(name="S", allow_via_shapes=True))

    def test_cost_weights_flow_into_core(self):
        c = clip()
        cheap = BaseFormulation.build(c, via_cost=1.0).specialize(RULES[0])
        dear = BaseFormulation.build(c, via_cost=9.0).specialize(RULES[0])
        s_cheap = solve_with_highs(cheap.model)
        s_dear = solve_with_highs(dear.model)
        assert s_cheap.objective <= s_dear.objective


class TestFormulationCache:
    def test_hit_on_second_rule_same_clip(self):
        cache = FormulationCache()
        c = clip()
        cache.specialize(c, RULES[0])
        cache.specialize(c, RULES[2])
        assert cache.misses == 1
        assert cache.hits == 1

    def test_distinct_clips_miss(self):
        cache = FormulationCache()
        cache.specialize(clip(seed=0), RULES[0])
        cache.specialize(clip(seed=1), RULES[0])
        assert cache.misses == 2

    def test_distinct_cost_weights_miss(self):
        cache = FormulationCache()
        c = clip()
        cache.base_for(c)
        cache.base_for(c, via_cost=2.0)
        assert cache.misses == 2

    def test_lru_eviction(self):
        cache = FormulationCache(max_entries=2)
        clips = [clip(seed=s) for s in range(3)]
        cache.base_for(clips[0])
        cache.base_for(clips[1])
        cache.base_for(clips[2])  # evicts clips[0]
        cache.base_for(clips[1])  # still resident
        assert cache.hits == 1
        cache.base_for(clips[0])  # rebuilt
        assert cache.misses == 4

    def test_clear(self):
        cache = FormulationCache()
        c = clip()
        cache.base_for(c)
        cache.clear()
        cache.base_for(c)
        assert cache.misses == 2

    def test_router_reuse_toggle_changes_nothing_semantically(self):
        c = clip()
        rule = RULES[2]
        shared = OptRouter(reuse_formulation=True).route(c, rule)
        fresh = OptRouter(reuse_formulation=False).route(c, rule)
        assert shared.status == fresh.status
        assert shared.cost == pytest.approx(fresh.cost)
        assert shared.wirelength == fresh.wirelength
        assert shared.n_vias == fresh.n_vias


class TestCompatibilityWrapper:
    def test_build_routing_ilp_defaults_to_shared_cache(self):
        # Two builds of the same clip share the core; the public
        # RoutingIlp surface (model, nets, graph) is fully populated
        # either way.
        c = clip()
        ilp_a = build_routing_ilp(c, RULES[0])
        ilp_b = build_routing_ilp(c, RULES[2])
        assert ilp_a.graph is ilp_b.graph
        assert ilp_a.model is not ilp_b.model

    def test_reuse_false_builds_private_graph(self):
        c = clip()
        ilp_a = build_routing_ilp(c, RULES[0], reuse=False)
        ilp_b = build_routing_ilp(c, RULES[0], reuse=False)
        assert ilp_a.graph is not ilp_b.graph
