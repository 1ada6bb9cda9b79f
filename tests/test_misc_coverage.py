"""Focused tests for smaller behaviors across modules."""

import pytest

from repro.ilp.status import Solution, SolveStatus
from repro.router.rules import RuleConfig, ViaRestriction


class TestSolveStatus:
    def test_is_optimal(self):
        assert SolveStatus.OPTIMAL.is_optimal
        assert not SolveStatus.LIMIT.is_optimal
        assert not SolveStatus.INFEASIBLE.is_optimal

    def test_solution_value_accessor(self):
        from repro.ilp import CooBuilder, solve_with_highs

        m = CooBuilder()
        x = m.binary("x")
        m.ge(x, 1)
        m.minimize(x)
        solution = solve_with_highs(m.freeze("model"))
        assert solution.value(x) == 1


class TestViaRestrictionOffsets:
    def test_none(self):
        assert ViaRestriction.NONE.blocked_offsets() == ()

    def test_orthogonal(self):
        offsets = set(ViaRestriction.ORTHOGONAL.blocked_offsets())
        assert offsets == {(1, 0), (-1, 0), (0, 1), (0, -1)}

    def test_full_includes_diagonals(self):
        offsets = set(ViaRestriction.FULL.blocked_offsets())
        assert len(offsets) == 8
        assert (1, 1) in offsets and (-1, -1) in offsets

    def test_enum_values_match_paper(self):
        assert ViaRestriction.NONE.value == 0
        assert ViaRestriction.ORTHOGONAL.value == 4
        assert ViaRestriction.FULL.value == 8


class TestRuleConfigDescribe:
    def test_no_sadp(self):
        text = RuleConfig().describe()
        assert "No SADP" in text and "0 neighbors" in text

    def test_sadp_applies_to_none(self):
        assert not RuleConfig().sadp_applies_to(2)


class TestEvalFlowBackends:
    def test_bnb_backend_through_eval(self):
        from repro.clips import SyntheticClipSpec, make_synthetic_clip
        from repro.eval import EvalConfig, evaluate_clips, paper_rule

        clips = [
            make_synthetic_clip(
                SyntheticClipSpec(nx=4, ny=5, nz=2, n_nets=1, sinks_per_net=1),
                seed=0,
            )
        ]
        study = evaluate_clips(
            clips, [paper_rule("RULE1")],
            EvalConfig(backend="bnb", time_limit_per_clip=60.0),
        )
        assert study.outcomes["RULE1"][0].feasible

    def test_unknown_backend_rejected(self):
        from repro.clips import SyntheticClipSpec, make_synthetic_clip
        from repro.router import OptRouter

        clip = make_synthetic_clip(
            SyntheticClipSpec(nx=4, ny=5, nz=2, n_nets=1, sinks_per_net=1),
            seed=0,
        )
        with pytest.raises(ValueError):
            OptRouter(backend="cplex").route(clip)


class TestSearchLimits:
    def test_max_expansions_gives_none(self, n28_12t):
        from repro.geometry import Rect
        from repro.route import RoutingGrid
        from repro.route.search import astar_to_targets

        grid = RoutingGrid.for_die(n28_12t, Rect(0, 0, 2720, 2000))
        a = grid.node_id(0, 0, 0)
        b = grid.node_id(10, 10, 0)
        result = astar_to_targets(
            grid, {a}, {b}, (0, 0, grid.nx - 1, grid.ny - 1),
            lambda _n: 0.0, max_expansions=2,
        )
        assert result is None


class TestGridMaxMetal:
    def test_cap_respected(self, n28_12t):
        from repro.geometry import Rect
        from repro.route import RoutingGrid

        grid = RoutingGrid.for_die(n28_12t, Rect(0, 0, 2720, 2000), max_metal=4)
        assert grid.nz == 3  # M2, M3, M4

    def test_bad_cap_rejected(self, n28_12t):
        from repro.geometry import Rect
        from repro.route import RoutingGrid

        with pytest.raises(ValueError):
            RoutingGrid.for_die(n28_12t, Rect(0, 0, 2720, 2000), max_metal=1)
        with pytest.raises(ValueError):
            RoutingGrid.for_die(n28_12t, Rect(0, 0, 2720, 2000), max_metal=99)


class TestLimitSolutionPath:
    def test_solution_without_values(self):
        solution = Solution(status=SolveStatus.LIMIT)
        assert solution.values == {}
        assert solution.objective is None
