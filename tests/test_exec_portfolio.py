"""Tests for budgeted straggler control."""

import pytest

from repro.clips import SyntheticClipSpec, make_synthetic_clip
from repro.exec import (
    SweepBudget,
    allocate_deadlines,
    clip_deadlines,
    order_hardest_first,
)
from repro.exec.portfolio import hardness


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
    def test_unbudgeted_is_never_nearly_spent(self):
        budget = SweepBudget(total=None)
        assert not budget.nearly_spent()
        assert budget.remaining() == float("inf")
        assert not budget.exhausted()
        assert budget.clamp(5.0) == 5.0
        assert budget.clamp(None) is None

    def test_tiers_degrade_as_budget_drains(self):
        now = [0.0]
        budget = SweepBudget(total=100.0, started=0.0, clock=lambda: now[0])
        assert not budget.nearly_spent()
        now[0] = 89.0  # 11% left
        assert not budget.nearly_spent()
        now[0] = 90.0  # 10% left: BASELINE_FRACTION
        assert budget.nearly_spent()
        now[0] = 95.0  # 5% left
        assert budget.nearly_spent()
        assert not budget.exhausted()
        now[0] = 200.0
        assert budget.nearly_spent()
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
            SweepBudget(total=-1.0)

