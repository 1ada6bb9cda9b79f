"""Warm-start / bound-reuse soundness: seeded solves must be exact.

The lattice sweep's warm starts are only a performance feature: every shortcut it
takes (inherited infeasibility, reused baseline routing, inherited
lower bound) must produce bit-identical statuses and equal optimal
objectives to a cold solve.  These tests attack each shortcut.
"""

import random

import pytest

from repro.clips import SyntheticClipSpec, make_synthetic_clip
from repro.router import (
    OptRouter,
    RouteStatus,
    RuleConfig,
    ViaRestriction,
    WarmStart,
    is_restriction,
)


class TestIsRestriction:
    def test_rule1_baseline_restricts_everything_in_table3(self):
        from repro.eval import paper_rules

        rules = paper_rules()
        baseline = rules[0]
        assert baseline.name == "RULE1"
        for rule in rules[1:]:
            assert is_restriction(baseline, rule), rule.name

    def test_not_reflexive_across_unrelated_sadp(self):
        # Raising sadp_min_metal *relaxes* (fewer SADP layers), so the
        # direction matters.
        tight = RuleConfig(name="A", sadp_min_metal=2)
        loose = RuleConfig(name="B", sadp_min_metal=4)
        assert is_restriction(loose, tight)
        assert not is_restriction(tight, loose)

    def test_via_blocking_is_monotone(self):
        free = RuleConfig(name="F")
        ortho = RuleConfig(name="O", via_restriction=ViaRestriction.ORTHOGONAL)
        all_ = RuleConfig(name="A", via_restriction=ViaRestriction.FULL)
        assert is_restriction(free, ortho)
        assert is_restriction(free, all_)
        assert is_restriction(ortho, all_)
        assert not is_restriction(all_, ortho)

    def test_via_shapes_mismatch_is_never_a_restriction(self):
        assert not is_restriction(
            RuleConfig(name="A", allow_via_shapes=True),
            RuleConfig(name="B", allow_via_shapes=False),
        )


def _clip(seed):
    return make_synthetic_clip(
        SyntheticClipSpec(nx=5, ny=6, nz=3, n_nets=2, sinks_per_net=1),
        seed=seed,
    )


class TestOptRouterWarm:
    def test_inherited_infeasible_is_solver_free(self, monkeypatch):
        import repro.router.optrouter as mod

        monkeypatch.setattr(
            mod, "build_routing_ilp",
            lambda *a, **k: (_ for _ in ()).throw(
                AssertionError("built an ILP for an inherited proof")
            ),
        )
        router = OptRouter(certify=False)
        result = router.route(
            _clip(0), RuleConfig(name="R"), warm=WarmStart(infeasible=True)
        )
        assert result.status is RouteStatus.INFEASIBLE
        assert result.warm_used == "inherited-infeasible"

    def test_clean_baseline_routing_is_reused(self):
        clip = _clip(0)
        baseline = OptRouter().route(clip, RuleConfig(name="RULE1"))
        assert baseline.status is RouteStatus.OPTIMAL
        follower = RuleConfig(
            name="RULE6", via_restriction=ViaRestriction.ORTHOGONAL
        )
        cold = OptRouter().route(clip, follower)
        warm = OptRouter().route(
            clip, follower,
            warm=WarmStart(
                routing=baseline.routing,
                cost=baseline.cost,
                lower_bound=baseline.cost,
            ),
        )
        assert warm.status == cold.status
        assert warm.cost == pytest.approx(cold.cost)
        if warm.warm_used == "reused-optimal":
            # Reuse is only legitimate if the routing really is clean
            # under the follower rule.
            from repro.drc import check_clip_routing

            assert check_clip_routing(clip, follower, warm.routing) == []

    def test_drc_dirty_routing_is_never_reused(self):
        # Find a pair where the baseline optimum violates the follower
        # rule; the warm solve must fall back to a cold solve and agree
        # with it exactly.
        from repro.drc import check_clip_routing

        follower = RuleConfig(
            name="RULE11",
            via_restriction=ViaRestriction.FULL,
            sadp_min_metal=2,
        )
        for seed in range(20):
            clip = _clip(seed)
            baseline = OptRouter().route(clip, RuleConfig(name="RULE1"))
            if baseline.status is not RouteStatus.OPTIMAL:
                continue
            if not check_clip_routing(clip, follower, baseline.routing):
                continue  # clean: not the case under test
            cold = OptRouter().route(clip, follower)
            warm = OptRouter().route(
                clip, follower,
                warm=WarmStart(
                    routing=baseline.routing,
                    cost=baseline.cost,
                    lower_bound=baseline.cost,
                ),
            )
            assert warm.warm_used == ""  # shortcut refused
            assert warm.status == cold.status
            if cold.status is RouteStatus.OPTIMAL:
                assert warm.cost == pytest.approx(cold.cost)
            return
        pytest.skip("no seed produced a DRC-dirty baseline routing")

    def test_incremental_sweep_equals_cold_sweep(self):
        """End to end: the lattice schedule (warm starts, bound
        reuse, formulation sharing) reproduces a cold solve of every
        pair's statuses and objectives exactly."""
        from repro.eval import EvalConfig, evaluate_clips

        from .sweep_oracle import cold_study

        rng = random.Random(7)
        population = [_clip(rng.randrange(100)) for _ in range(3)]
        # Deduplicate names in case the rng repeats a seed.
        seen = {}
        population = [
            c for c in population
            if seen.setdefault(c.name, c) is c
        ]
        rule_set = [
            RuleConfig(name="RULE1"),
            RuleConfig(name="RULE3", sadp_min_metal=3),
            RuleConfig(name="RULE6", via_restriction=ViaRestriction.ORTHOGONAL),
            RuleConfig(
                name="RULE10",
                via_restriction=ViaRestriction.FULL,
                sadp_min_metal=3,
            ),
        ]
        config = EvalConfig(time_limit_per_clip=30.0)
        cold = cold_study(population, rule_set, config)
        warm = evaluate_clips(population, rule_set, config)
        for rule_name in cold.rule_names:
            cold_out = {
                o.clip_name: (o.status, o.cost)
                for o in cold.outcomes[rule_name]
            }
            warm_out = {
                o.clip_name: (o.status, o.cost)
                for o in warm.outcomes[rule_name]
            }
            assert set(cold_out) == set(warm_out)
            for name in cold_out:
                c_status, c_cost = cold_out[name]
                w_status, w_cost = warm_out[name]
                assert w_status == c_status, (rule_name, name)
                if c_cost is None:
                    assert w_cost is None
                else:
                    assert w_cost == pytest.approx(c_cost), (rule_name, name)
