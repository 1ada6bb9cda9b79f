"""End-to-end OptRouter tests: optimality, rules, statuses."""

import pytest

from repro.clips import Clip, ClipNet, ClipPin, SyntheticClipSpec, make_synthetic_clip
from repro.clips.clip import paper_directions
from repro.drc import check_clip_routing
from repro.router import OptRouter, RouteStatus, RuleConfig, ViaRestriction


def manual_clip(nets, nx=5, ny=5, nz=3, obstacles=frozenset()):
    return Clip(
        name="manual", nx=nx, ny=ny, nz=nz,
        horizontal=paper_directions(nz), nets=tuple(nets),
        obstacles=frozenset(obstacles),
    )


def net(name, *pin_vertex_sets):
    pins = tuple(ClipPin(access=frozenset(vs)) for vs in pin_vertex_sets)
    return ClipNet(name, pins)


class TestBasicRouting:
    def test_straight_connection_cost(self):
        # Two pins on the same column of the vertical M2 layer, 3 apart.
        clip = manual_clip([net("a", [(2, 0, 0)], [(2, 3, 0)])])
        result = OptRouter().route(clip)
        assert result.status is RouteStatus.OPTIMAL
        assert result.cost == pytest.approx(3.0)
        assert result.wirelength == 3
        assert result.n_vias == 0

    def test_layer_change_costs_vias(self):
        # Pins on different columns force M3 usage: 2 vias + wires.
        clip = manual_clip([net("a", [(1, 2, 0)], [(3, 2, 0)])])
        result = OptRouter().route(clip)
        assert result.status is RouteStatus.OPTIMAL
        assert result.n_vias == 2
        assert result.cost == pytest.approx(2 + 4 * 2)

    def test_multi_pin_steiner(self):
        # One source, two sinks on one column: optimal shares the trunk.
        clip = manual_clip(
            [net("a", [(2, 2, 0)], [(2, 0, 0)], [(2, 4, 0)])],
        )
        result = OptRouter().route(clip)
        assert result.status is RouteStatus.OPTIMAL
        assert result.cost == pytest.approx(4.0)  # shared column trunk

    def test_multiple_access_points_reduce_cost(self):
        wide = manual_clip(
            [net("a", [(2, 0, 0), (2, 1, 0)], [(2, 4, 0)])],
        )
        narrow = manual_clip(
            [net("a", [(2, 0, 0)], [(2, 4, 0)])],
        )
        r_wide = OptRouter().route(wide)
        r_narrow = OptRouter().route(narrow)
        assert r_wide.cost < r_narrow.cost

    def test_obstacle_forces_detour(self):
        free = manual_clip([net("a", [(2, 0, 0)], [(2, 4, 0)])])
        blocked = manual_clip(
            [net("a", [(2, 0, 0)], [(2, 4, 0)])],
            obstacles={(2, 2, 0)},
        )
        assert OptRouter().route(blocked).cost > OptRouter().route(free).cost

    def test_infeasible_when_fully_blocked(self):
        clip = manual_clip(
            [net("a", [(2, 0, 0)], [(2, 4, 0)])],
            nz=1,  # only the vertical layer
            obstacles={(2, 2, 0)},
        )
        assert OptRouter().route(clip).status is RouteStatus.INFEASIBLE


class TestTwoNetInteraction:
    def test_crossing_nets_route_disjointly(self):
        clip = manual_clip(
            [
                net("v", [(2, 0, 0)], [(2, 4, 0)]),
                net("h", [(0, 2, 1)], [(4, 2, 1)]),
            ]
        )
        result = OptRouter().route(clip)
        assert result.status is RouteStatus.OPTIMAL
        violations = check_clip_routing(clip, RuleConfig(), result.routing)
        assert violations == []

    def test_same_track_contention(self):
        # Both nets live on column 2; net a must detour around b's pins
        # through an upper layer, so cost exceeds the naive 4 + 2 = 6.
        clip = manual_clip(
            [
                net("a", [(2, 0, 0)], [(2, 4, 0)]),
                net("b", [(2, 1, 0)], [(2, 3, 0)]),
            ]
        )
        result = OptRouter().route(clip)
        assert result.status is RouteStatus.OPTIMAL
        assert result.cost > 6.0
        assert check_clip_routing(clip, RuleConfig(), result.routing) == []


class TestRuleEffects:
    def test_via_restriction_monotone(self):
        clip = make_synthetic_clip(
            SyntheticClipSpec(nx=6, ny=7, nz=3, n_nets=3, sinks_per_net=1,
                              access_points_per_pin=2, pin_spacing_cols=1),
            seed=9,
        )
        router = OptRouter()
        base = router.route(clip, RuleConfig())
        ortho = router.route(
            clip, RuleConfig(name="R6", via_restriction=ViaRestriction.ORTHOGONAL)
        )
        full = router.route(
            clip, RuleConfig(name="R9", via_restriction=ViaRestriction.FULL)
        )
        costs = [r.cost for r in (base, ortho, full) if r.feasible]
        assert costs == sorted(costs), "via restriction must not reduce cost"

    def test_sadp_never_cheaper(self):
        clip = make_synthetic_clip(
            SyntheticClipSpec(nx=6, ny=7, nz=4, n_nets=3, sinks_per_net=1),
            seed=10,
        )
        router = OptRouter()
        base = router.route(clip, RuleConfig())
        sadp = router.route(clip, RuleConfig(name="R2", sadp_min_metal=2))
        if base.feasible and sadp.feasible:
            assert sadp.cost >= base.cost

    def test_rules_produce_drc_clean_solutions(self):
        clip = make_synthetic_clip(
            SyntheticClipSpec(nx=6, ny=8, nz=4, n_nets=3, sinks_per_net=1),
            seed=11,
        )
        router = OptRouter()
        for rules in (
            RuleConfig(),
            RuleConfig(name="R6", via_restriction=ViaRestriction.ORTHOGONAL),
            RuleConfig(name="R9", via_restriction=ViaRestriction.FULL),
            RuleConfig(name="R2", sadp_min_metal=2),
            RuleConfig(name="R8", sadp_min_metal=3,
                       via_restriction=ViaRestriction.ORTHOGONAL),
        ):
            result = router.route(clip, rules)
            if result.feasible:
                assert check_clip_routing(clip, rules, result.routing) == []


class TestViaShapes:
    def test_shapes_solution_valid(self):
        clip = manual_clip([net("a", [(1, 1, 0)], [(3, 3, 0)])])
        result = OptRouter().route(
            clip, RuleConfig(name="SHAPED", allow_via_shapes=True)
        )
        assert result.status is RouteStatus.OPTIMAL
        # Shaped vias are cheaper, so cost is at most the single-via cost.
        single = OptRouter().route(clip, RuleConfig())
        assert result.cost <= single.cost


class TestBackendAgreement:
    def test_bnb_matches_highs(self):
        clip = manual_clip(
            [
                net("a", [(1, 0, 0)], [(1, 3, 0)]),
                net("b", [(3, 0, 0)], [(3, 3, 0)]),
            ],
        )
        highs = OptRouter(backend="highs").route(clip)
        bnb = OptRouter(backend="bnb").route(clip)
        assert highs.status == bnb.status == RouteStatus.OPTIMAL
        assert highs.cost == pytest.approx(bnb.cost)


class TestSharedFormulationCache:
    def test_single_base_build_per_clip(self, monkeypatch):
        # The restriction prover (the sweep's warm gate, repro analyze)
        # and the solve path share one process-wide FormulationCache:
        # certifying and then routing the same clip must build the
        # rule-independent base formulation exactly once.
        from repro.analysis.semantics import prove_restriction
        from repro.eval import paper_rule
        from repro.router import formulation as fm

        spec = SyntheticClipSpec(
            nx=4, ny=4, nz=4, n_nets=2, sinks_per_net=1,
            access_points_per_pin=2,
        )
        clip = make_synthetic_clip(spec, seed=0)
        base_rule = paper_rule("RULE1")
        other_rule = paper_rule("RULE7")

        calls: list[str] = []
        orig = fm.BaseFormulation.build.__func__

        def spy(cls, clip_arg, **kwargs):
            calls.append(clip_arg.name)
            return orig(cls, clip_arg, **kwargs)

        monkeypatch.setattr(fm.BaseFormulation, "build", classmethod(spy))
        fm.formulation_cache().clear()
        try:
            router = OptRouter(time_limit=60.0)
            proof = prove_restriction(clip, base_rule, other_rule)
            assert proof is not None
            first = router.route(clip, base_rule)
            second = router.route(clip, other_rule)
            assert first.status is RouteStatus.OPTIMAL
            assert second.status in (
                RouteStatus.OPTIMAL, RouteStatus.INFEASIBLE
            )
            assert calls == [clip.name]
        finally:
            fm.formulation_cache().clear()
