"""Warm-start / bound-reuse soundness: seeded solves must be exact.

The lattice sweep's warm starts are only a performance feature: every shortcut it
takes (inherited infeasibility, reused baseline routing, inherited
lower bound) must produce bit-identical statuses and equal optimal
objectives to a cold solve.  These tests attack each shortcut.
"""

import collections
import random

import pytest

from repro.clips import Clip, ClipNet, ClipPin, SyntheticClipSpec, make_synthetic_clip
from repro.clips.clip import paper_directions
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


def _count_certify(monkeypatch):
    """Route every ``OptRouter`` certify call through a counter of
    (clip name, rule name) pairs; returns (counter, real certifier)."""
    import repro.router.optrouter as mod

    real = mod.certify_infeasible
    calls = collections.Counter()

    def counting(clip, rules=None, graph=None):
        calls[(clip.name, rules.name)] += 1
        return real(clip, rules, graph)

    monkeypatch.setattr(mod, "certify_infeasible", counting)
    return calls, real


def _single_layer_clip():
    """One vertical layer, pins in different columns: the certifier
    proves it unroutable (no way to change columns)."""
    pins = (
        ClipPin(access=frozenset({(2, 0, 0)})),
        ClipPin(access=frozenset({(3, 4, 0)})),
    )
    return Clip(
        name="single_layer", nx=5, ny=5, nz=1,
        horizontal=paper_directions(1), nets=(ClipNet("a", pins),),
        obstacles=frozenset(),
    )


class TestCertifyOrder:
    """``OptRouter.route`` tries the reused routing before the
    certifier, and the certifier before an inherited proof."""

    def test_reused_routing_skips_certify(self, monkeypatch):
        from repro.drc import check_clip_routing

        follower = RuleConfig(
            name="RULE6", via_restriction=ViaRestriction.ORTHOGONAL
        )
        for seed in range(6):
            clip = _clip(seed)
            baseline = OptRouter().route(clip, RuleConfig(name="RULE1"))
            assert baseline.status is RouteStatus.OPTIMAL
            if not check_clip_routing(clip, follower, baseline.routing):
                break
        else:
            pytest.fail("no seed gave a baseline routing clean under RULE6")
        calls, _ = _count_certify(monkeypatch)
        result = OptRouter().route(
            clip, follower,
            warm=WarmStart(
                routing=baseline.routing,
                cost=baseline.cost,
                lower_bound=baseline.cost,
            ),
        )
        assert result.warm_used == "reused-optimal"
        assert result.status is RouteStatus.OPTIMAL
        assert result.cost == baseline.cost
        assert not calls

    def test_certificate_wins_over_inherited_proof(self, monkeypatch):
        calls, _ = _count_certify(monkeypatch)
        clip = _single_layer_clip()
        result = OptRouter().route(
            clip, RuleConfig(name="R"), warm=WarmStart(infeasible=True)
        )
        assert result.status is RouteStatus.INFEASIBLE
        assert result.certified
        assert result.warm_used == ""
        assert calls == {("single_layer", "R"): 1}

    def test_lattice_sweep_certifies_each_unreused_pair_once(
        self, monkeypatch
    ):
        from repro.eval import EvalConfig, evaluate_clips, paper_rule

        clips = [_clip(seed) for seed in (0, 2, 3)] + [_single_layer_clip()]
        rules = [
            paper_rule(name)
            for name in ("RULE1", "RULE3", "RULE6", "RULE9", "RULE11")
        ]
        calls, real = _count_certify(monkeypatch)
        study = evaluate_clips(clips, rules, EvalConfig(time_limit_per_clip=30.0))

        by_name = {clip.name: clip for clip in clips}
        rule_by_name = {rule.name: rule for rule in rules}
        warm_used = collections.Counter()
        expected = collections.Counter()
        for rule_name, outcomes in study.outcomes.items():
            for outcome in outcomes:
                warm_used[outcome.warm_used] += 1
                key = (outcome.clip_name, rule_name)
                if outcome.warm_used == "reused-optimal":
                    # The premise of the order: a DRC-clean routing
                    # proves the rule feasible, so certify had nothing
                    # to find.
                    assert real(by_name[key[0]], rule_by_name[key[1]]) is None
                else:
                    expected[key] = 1
        assert calls == expected
        # The corpus exercises reuse, cold solves and certificates.
        assert warm_used["reused-optimal"] > 0
        assert warm_used[""] > 0
        assert any(
            outcome.certified
            for outcomes in study.outcomes.values()
            for outcome in outcomes
        )


class TestPairIndexOrder:
    """The solve cache's pair index is read right after the reused
    routing, and only where it cannot change the outcome: it holds no
    certified pair, and an inherited proof still wins over it."""

    def test_certified_pair_is_never_indexed(self, tmp_path, monkeypatch):
        from repro.ilp.solve_cache import SolveCache

        calls, _ = _count_certify(monkeypatch)
        clip = _single_layer_clip()
        for _ in range(2):
            result = OptRouter(solve_cache=SolveCache(tmp_path)).route(
                clip, RuleConfig(name="R")
            )
            assert result.status is RouteStatus.INFEASIBLE
            assert result.certified
            assert not result.cache_hit
        assert calls == {("single_layer", "R"): 2}
        stats = SolveCache(tmp_path).stats()
        assert (stats["entries"], stats["index_entries"]) == (0, 0)

    def test_a_route_without_certify_writes_no_index_entry(self, tmp_path):
        """The index records that certify found nothing, so a route
        that skipped certify must not write it: a later certified
        route would replay the solver's verdict without the
        certificate."""
        from repro.ilp.solve_cache import SolveCache

        clip, rule = _single_layer_clip(), RuleConfig(name="R")
        unchecked = OptRouter(certify=False, solve_cache=SolveCache(tmp_path))
        solved = unchecked.route(clip, rule)
        assert solved.status is RouteStatus.INFEASIBLE
        assert not solved.certified
        stats = SolveCache(tmp_path).stats()
        assert (stats["entries"], stats["index_entries"]) == (1, 0)
        checked = OptRouter(solve_cache=SolveCache(tmp_path)).route(clip, rule)
        assert checked.certified and not checked.cache_hit

    def test_inherited_proof_wins_over_an_indexed_pair(self, tmp_path):
        from repro.eval import EvalConfig, evaluate_clips, paper_rule
        from repro.ilp.solve_cache import SolveCache

        # RULE6 is proven infeasible by the solver and RULE7 inherits
        # it: with RULE10 as the lattice top, RULE7 runs after RULE6
        # (without it, RULE7 would be the top and run first).
        clip = make_synthetic_clip(
            SyntheticClipSpec(nx=4, ny=4, nz=2, n_nets=3, sinks_per_net=1,
                              access_points_per_pin=2),
            seed=0,
        )
        rules = [
            paper_rule(name) for name in ("RULE1", "RULE6", "RULE7", "RULE10")
        ]
        config = EvalConfig(time_limit_per_clip=10.0, solve_cache_dir=str(tmp_path))
        first = evaluate_clips([clip], rules, config)
        (rule7,) = first.outcomes["RULE7"]
        assert rule7.warm_used == "inherited-infeasible"
        assert rule7.warm_bound_from == "RULE6"
        # Index the inherited pair: a cold route of it alone.
        cache = SolveCache(tmp_path)
        before = cache.stats()["index_entries"]
        alone = OptRouter(time_limit=10.0, solve_cache=cache).route(clip, rules[2])
        assert alone.status is RouteStatus.INFEASIBLE and not alone.certified
        assert cache.stats()["index_entries"] == before + 1

        again = evaluate_clips([clip], rules, config)
        (replayed,) = again.outcomes["RULE7"]
        assert replayed.warm_used == "inherited-infeasible"
        assert replayed.warm_bound_from == "RULE6"
        assert not replayed.cache_hit
        for rule in again.rule_names:
            assert [(o.status, o.cost, o.certified) for o in again.outcomes[rule]] == [
                (o.status, o.cost, o.certified) for o in first.outcomes[rule]
            ]


def _s7034():
    """The sweep benchmark's ``synth_s7034`` and the N28 rules: RULE3's
    LP stays fractional at its optimum, 24, which RULE10's settled
    routing meets."""
    from repro.eval import rules_for_technology

    from .test_router_formulation import POOL_SPEC

    clip = make_synthetic_clip(POOL_SPEC, seed=7034)
    return clip, {r.name: r for r in rules_for_technology("N28-12T")}


def _count_milp(monkeypatch):
    import repro.ilp.highs_backend as highs_backend

    calls = []
    real = highs_backend.milp

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(highs_backend, "milp", counting)
    return calls


class TestIncumbents:
    """A cold HiGHS solve starts from the clip's settled routings."""

    def test_settled_routing_closes_the_pair_without_milp(self, monkeypatch):
        clip, rules = _s7034()
        source = OptRouter().route(clip, rules["RULE10"])
        calls = _count_milp(monkeypatch)
        warm = WarmStart(incumbents=(source.routing.point,))
        result = OptRouter().route(clip, rules["RULE3"], warm=warm)
        assert not calls
        assert result.status is RouteStatus.OPTIMAL
        assert result.cost == result.bound == 24.0
        assert result.n_nodes == 0
        assert result.warm_used == ""
        # The routing is decoded from the RULE3 model's point.
        assert result.routing.point == source.routing.point
        cold = OptRouter().route(clip, rules["RULE3"])
        assert calls == [1]
        assert (cold.status, cold.cost) == (result.status, result.cost)

    def test_bnb_ignores_incumbents(self, monkeypatch):
        import repro.router.optrouter as mod

        clip, rules = _s7034()
        source = OptRouter().route(clip, rules["RULE10"])

        def no_highs(*args, **kwargs):
            raise AssertionError("the B&B backend called HiGHS")

        monkeypatch.setattr(mod, "solve_with_highs", no_highs)
        warm = WarmStart(incumbents=(source.routing.point,))
        result = OptRouter(backend="bnb").route(clip, rules["RULE3"], warm=warm)
        assert result.status is RouteStatus.OPTIMAL
        assert result.cost == 24.0
        assert result.n_nodes > 0

    def test_settled_pair_is_cached_and_replayed(self, tmp_path, monkeypatch):
        import repro.router.optrouter as mod
        from repro.eval import EvalConfig, evaluate_clips, paper_rules

        clip, _ = _s7034()
        rules = paper_rules()
        config = EvalConfig(solve_cache_dir=str(tmp_path))
        calls = _count_milp(monkeypatch)
        first = evaluate_clips([clip], rules, config)
        assert not calls
        (rule3,) = first.outcomes["RULE3"]
        assert (rule3.status, rule3.cost) == (RouteStatus.OPTIMAL, 24.0)
        assert rule3.warm_used == "" and not rule3.cache_hit

        solves = []
        real = mod.solve_with_highs

        def counting(*args, **kwargs):
            solves.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(mod, "solve_with_highs", counting)
        again = evaluate_clips([clip], rules, config)
        assert not solves
        (replayed,) = again.outcomes["RULE3"]
        assert replayed.cache_hit and replayed.bound == 24.0
        for rule in rules:
            assert [(o.status, o.cost) for o in again.outcomes[rule.name]] == [
                (o.status, o.cost) for o in first.outcomes[rule.name]
            ]
