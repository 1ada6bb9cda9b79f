"""Tests for backend racing and budgeted straggler control."""

import pytest

from repro.clips import SyntheticClipSpec, make_synthetic_clip
from repro.exec import (
    RouteJob,
    SweepBudget,
    allocate_deadlines,
    clip_deadlines,
    order_hardest_first,
    predicted_hard,
    race_solve,
)
from repro.exec.portfolio import TIER_BASELINE, TIER_RACE, TIER_SINGLE, hardness
from repro.router import OptRouter, RouteStatus, RuleConfig


def clips(n=3):
    return [
        make_synthetic_clip(
            SyntheticClipSpec(nx=5, ny=6, nz=3, n_nets=2, sinks_per_net=1),
            seed=s,
        )
        for s in range(n)
    ]


class TestHardnessOrdering:
    def test_order_is_hardness_descending_with_name_ties(self):
        population = clips(4)
        order = order_hardest_first(population)
        assert sorted(order) == list(range(4))
        ranked = [
            (-hardness(population[i]), population[i].name) for i in order
        ]
        assert ranked == sorted(ranked)

    def test_predicted_hard_returns_at_least_one(self):
        population = clips(3)
        assert len(predicted_hard(population, fraction=0.01)) == 1
        assert predicted_hard(population, fraction=1.0) == {
            c.name for c in population
        }
        assert predicted_hard([], fraction=0.5) == set()
        assert predicted_hard(population, fraction=0.0) == set()


class TestDeadlineAllocation:
    def test_proportional_with_floor(self):
        deadlines = allocate_deadlines([3.0, 1.0], total=10.0, floor=1.0)
        assert deadlines == pytest.approx([1.0 + 6.0, 1.0 + 2.0])
        assert sum(deadlines) == pytest.approx(10.0)

    def test_floor_dominates_when_budget_tight(self):
        assert allocate_deadlines([5.0, 1.0], total=1.0, floor=2.0) == [
            2.0, 2.0,
        ]

    def test_zero_hardness_splits_evenly(self):
        assert allocate_deadlines([0.0, 0.0], total=10.0, floor=1.0) == [
            5.0, 5.0,
        ]

    def test_invalid_inputs_raise(self):
        with pytest.raises(ValueError):
            allocate_deadlines([1.0], total=0.0)
        with pytest.raises(ValueError):
            allocate_deadlines([1.0], total=1.0, floor=0.0)
        assert allocate_deadlines([], total=5.0) == []

    def test_clip_deadlines_deterministic_across_callers(self):
        population = clips(3)
        a = clip_deadlines(population, total=30.0)
        b = clip_deadlines(list(reversed(population)), total=30.0)
        assert a == b  # order of the input list must not matter
        assert set(a) == {c.name for c in population}
        assert sum(a.values()) == pytest.approx(30.0)


class TestSweepBudget:
    def test_unbudgeted_is_always_race_tier(self):
        budget = SweepBudget(total=None)
        assert budget.tier() == TIER_RACE
        assert budget.remaining() == float("inf")
        assert not budget.exhausted()
        assert budget.clamp(5.0) == 5.0
        assert budget.clamp(None) is None

    def test_tiers_degrade_as_budget_drains(self):
        now = [0.0]
        budget = SweepBudget(
            total=100.0, race_fraction=0.5, baseline_fraction=0.1,
            started=0.0, clock=lambda: now[0],
        )
        assert budget.tier() == TIER_RACE
        now[0] = 60.0  # 40% left
        assert budget.tier() == TIER_SINGLE
        now[0] = 95.0  # 5% left
        assert budget.tier() == TIER_BASELINE
        now[0] = 200.0
        assert budget.exhausted()
        assert budget.remaining() == 0.0

    def test_clamp_caps_deadline_to_remaining(self):
        now = [0.0]
        budget = SweepBudget(total=10.0, started=0.0, clock=lambda: now[0])
        assert budget.clamp(100.0) == pytest.approx(10.0)
        assert budget.clamp(2.0) == pytest.approx(2.0)
        now[0] = 9.0
        assert budget.clamp(None) == pytest.approx(1.0)

    def test_invalid_budgets_raise(self):
        with pytest.raises(ValueError):
            SweepBudget(total=0.0)
        with pytest.raises(ValueError):
            SweepBudget(total=10.0, race_fraction=0.2, baseline_fraction=0.5)


class TestRaceSolve:
    def test_race_produces_certified_optimal_and_cancels_loser(self):
        clip = clips(1)[0]
        router = OptRouter(time_limit=30.0)
        job = RouteJob(clip, RuleConfig(), router)
        outcome = race_solve(job, ("highs", "bnb"), deadline=60.0)
        assert outcome.winner in ("highs", "bnb")
        assert outcome.result.status is RouteStatus.OPTIMAL
        assert outcome.result.backend == outcome.winner
        # Exactly one lane wins; the other was cancelled, finished and
        # lost, or was rejected -- never two winners.
        assert len(outcome.cancelled) + len(outcome.rejected) <= 1

    def test_race_matches_sequential_answer(self):
        clip = clips(1)[0]
        router = OptRouter(time_limit=30.0)
        sequential = router.route(clip, RuleConfig())
        job = RouteJob(clip, RuleConfig(), router)
        outcome = race_solve(job, ("highs", "bnb"), deadline=60.0)
        assert outcome.result.cost == sequential.cost
        assert outcome.result.status is sequential.status

    def test_race_deadline_yields_timeout_result(self):
        clip = clips(1)[0]
        router = OptRouter(time_limit=30.0)
        job = RouteJob(clip, RuleConfig(), router)
        outcome = race_solve(job, ("highs", "bnb"), deadline=0.0)
        assert outcome.winner is None
        assert outcome.result.status is RouteStatus.TIMEOUT
        assert set(outcome.cancelled) == {"highs", "bnb"}
