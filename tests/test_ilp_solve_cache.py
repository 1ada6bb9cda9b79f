"""Tests for the canonical LP serialization and the persistent solve cache."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clips import SyntheticClipSpec, make_synthetic_clip
from repro.ilp import (
    CacheEntry,
    CooBuilder,
    Solution,
    SolveCache,
    SolveStatus,
    solve_with_highs,
)
from repro.router import OptRouter, RouteStatus, RuleConfig, ViaRestriction


def knapsack_model(*, order=None, coef=3.0, ub=1.0, sense_le=True, name="m"):
    """A tiny MILP assembled from a spec so tests can permute / perturb it.

    ``order`` permutes variable creation and constraint insertion;
    the canonical serialization must not notice.
    """
    m = CooBuilder()
    var_names = ["x0", "x1", "x2"]
    if order is not None:
        var_names = [var_names[i] for i in order]
    vars_by_name = {n: m.binary(n) for n in var_names}
    x0, x1, x2 = (vars_by_name[n] for n in ["x0", "x1", "x2"])
    cons = [
        (m.le if sense_le else m.ge, x0 + x1 + x2, 2),
        (m.le, coef * x0 + 2 * x1 + x2, 4),
        (m.le, x1, ub),
    ]
    if order is not None:
        cons = [cons[i] for i in order]
    for add, expr, rhs in cons:
        add(expr, rhs)
    m.minimize(-(2 * x0 + 3 * x1 + x2))
    return m.freeze(name)


class TestCanonicalSerialization:
    def test_insertion_order_invariant(self):
        base = knapsack_model().canonical_text()
        for order in [(1, 2, 0), (2, 0, 1), (2, 1, 0)]:
            assert knapsack_model(order=order).canonical_text() == base

    def test_model_name_excluded(self):
        assert knapsack_model(name="a").canonical_text() == (
            knapsack_model(name="b").canonical_text()
        )

    def test_coefficient_perturbation_changes_bytes(self):
        assert knapsack_model(coef=3.0).canonical_text() != (
            knapsack_model(coef=3.0000001).canonical_text()
        )

    def test_bound_perturbation_changes_bytes(self):
        assert knapsack_model(ub=1.0).canonical_text() != (
            knapsack_model(ub=0.0).canonical_text()
        )

    def test_sense_change_changes_bytes(self):
        assert knapsack_model(sense_le=True).canonical_text() != (
            knapsack_model(sense_le=False).canonical_text()
        )

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_random_shuffles_are_invariant(self, rng):
        order = [0, 1, 2]
        rng.shuffle(order)
        assert knapsack_model(order=tuple(order)).canonical_text() == (
            knapsack_model().canonical_text()
        )


class TestCacheKey:
    def test_key_is_stable_across_insertion_orders(self):
        options = {"backend": "highs", "time_limit": None}
        base = SolveCache.key_for(knapsack_model(), options)
        assert SolveCache.key_for(knapsack_model(order=(2, 0, 1)), options) == base

    def test_options_are_part_of_the_key(self):
        m = knapsack_model()
        k1 = SolveCache.key_for(m, {"backend": "highs", "time_limit": None})
        k2 = SolveCache.key_for(m, {"backend": "highs", "time_limit": 5.0})
        k3 = SolveCache.key_for(m, {"backend": "bnb", "time_limit": None})
        assert len({k1, k2, k3}) == 3

    def test_options_key_order_does_not_matter(self):
        m = knapsack_model()
        assert SolveCache.key_for(m, {"a": 1, "b": 2}) == (
            SolveCache.key_for(m, {"b": 2, "a": 1})
        )

    def test_rule_delta_changes_the_key(self):
        # Two rules over the same clip share the formulation core but
        # must never share a cache entry.
        clip = make_synthetic_clip(
            SyntheticClipSpec(nx=5, ny=6, nz=3, n_nets=2, sinks_per_net=1),
            seed=0,
        )
        router = OptRouter()
        m1 = router.build(clip, RuleConfig(name="RULE1")).csr
        m6 = router.build(
            clip,
            RuleConfig(name="RULE6", via_restriction=ViaRestriction.ORTHOGONAL),
        ).csr
        options = {"backend": "highs"}
        assert SolveCache.key_for(m1, options) != SolveCache.key_for(m6, options)


class TestCacheStore:
    def test_round_trip_optimal(self, tmp_path):
        cache = SolveCache(tmp_path)
        model = knapsack_model()
        options = {"backend": "highs", "time_limit": None}
        solution = solve_with_highs(model)
        assert solution.status is SolveStatus.OPTIMAL
        assert cache.put(model, options, solution)

        entry = cache.get(model, options)
        assert entry is not None
        assert entry.status is SolveStatus.OPTIMAL
        assert entry.objective == pytest.approx(solution.objective)
        replayed = entry.to_solution(model)
        assert replayed.values == solution.values
        assert not len(model.violated_rows(model.point(replayed.values)))

    def test_values_remap_by_name_across_insertion_orders(self, tmp_path):
        # Populate from one insertion order, replay onto another: the
        # name-keyed values must land on the right variables.
        cache = SolveCache(tmp_path)
        options = {"backend": "highs"}
        writer = knapsack_model()
        cache.put(writer, options, solve_with_highs(writer))
        reader = knapsack_model(order=(2, 0, 1))
        entry = cache.get(reader, options)
        assert entry is not None
        replayed = entry.to_solution(reader)
        x = reader.point(replayed.values)
        assert not len(reader.violated_rows(x))
        assert reader.obj @ x + reader.obj_const == pytest.approx(
            solve_with_highs(writer).objective
        )

    def test_miss_on_empty_cache(self, tmp_path):
        cache = SolveCache(tmp_path)
        assert cache.get(knapsack_model(), {}) is None
        assert cache.stats()["misses"] == 1

    def test_error_status_never_cached(self, tmp_path):
        cache = SolveCache(tmp_path)
        solution = Solution(status=SolveStatus.ERROR)
        assert not cache.put(knapsack_model(), {}, solution)
        assert cache.stats()["entries"] == 0

    def test_infeasible_and_limit_cached(self, tmp_path):
        cache = SolveCache(tmp_path)
        model = knapsack_model()
        cache.put(model, {"o": 1}, Solution(status=SolveStatus.INFEASIBLE))
        cache.put(model, {"o": 2}, Solution(status=SolveStatus.LIMIT))
        assert cache.get(model, {"o": 1}).status is SolveStatus.INFEASIBLE
        assert cache.get(model, {"o": 2}).status is SolveStatus.LIMIT

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = SolveCache(tmp_path)
        model = knapsack_model()
        cache.put(model, {}, solve_with_highs(model))
        (entry_file,) = cache._entry_files()
        entry_file.write_text("{not json")
        assert cache.get(model, {}) is None

    def test_version_mismatch_reads_as_miss(self, tmp_path):
        cache = SolveCache(tmp_path)
        model = knapsack_model()
        cache.put(model, {}, solve_with_highs(model))
        (entry_file,) = cache._entry_files()
        payload = json.loads(entry_file.read_text())
        payload["v"] = 99
        entry_file.write_text(json.dumps(payload))
        assert cache.get(model, {}) is None

    def test_stats_and_clear(self, tmp_path):
        cache = SolveCache(tmp_path)
        model = knapsack_model()
        cache.put(model, {}, solve_with_highs(model))
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] > 0
        assert cache.clear() == 1
        assert cache.stats()["entries"] == 0

    def test_entry_dict_round_trip(self):
        entry = CacheEntry(
            status=SolveStatus.OPTIMAL, objective=12.5,
            values_by_name={"x": 1.0}, best_bound=12.5, n_nodes=3,
            solve_seconds=0.25,
        )
        assert CacheEntry.from_dict(entry.to_dict()) == entry


class TestEvict:
    """LRU eviction keeps the shared cross-tenant tier bounded."""

    def _populate(self, tmp_path, n=4):
        cache = SolveCache(tmp_path)
        model = knapsack_model()
        for i in range(n):
            assert cache.put(
                model, {"o": i}, Solution(status=SolveStatus.INFEASIBLE)
            )
        return cache

    def _age(self, cache, ages):
        """Assign deterministic mtimes, oldest first in name order."""
        import os

        now = 1_000_000.0
        for entry_file, age in zip(cache._entry_files(), ages):
            os.utime(entry_file, (now - age, now - age))
        return now

    def test_older_than_drops_only_stale_entries(self, tmp_path):
        cache = self._populate(tmp_path, n=4)
        now = self._age(cache, [400.0, 300.0, 10.0, 5.0])
        result = cache.evict(older_than_seconds=60.0, now=now)
        assert result["removed"] == 2
        assert result["remaining_entries"] == 2
        assert cache.stats()["entries"] == 2

    def test_max_bytes_evicts_lru_first(self, tmp_path):
        cache = self._populate(tmp_path, n=4)
        files_before = cache._entry_files()
        sizes = {f: f.stat().st_size for f in files_before}
        now = self._age(cache, [400.0, 300.0, 200.0, 100.0])
        oldest = files_before[0]
        keep_bytes = sum(sizes.values()) - sizes[oldest]
        result = cache.evict(max_bytes=keep_bytes, now=now)
        assert result["removed"] == 1
        assert not oldest.exists()  # the least recently written went
        assert result["remaining_bytes"] <= keep_bytes

    def test_evict_never_touches_quarantine(self, tmp_path):
        cache = self._populate(tmp_path, n=2)
        (entry_file, _) = cache._entry_files()
        entry_file.write_text("{corrupt")
        # Scanning quarantines the corrupt entry...
        report = cache.scan()
        assert len(report["quarantined"]) == 1
        # ...and a full eviction leaves the quarantined evidence.
        result = cache.evict(max_bytes=0, older_than_seconds=0.0,
                             now=1e12)
        assert result["remaining_entries"] == 0
        assert cache.stats()["entries"] == 0
        assert cache.stats()["quarantined"] == 1

    def test_noop_without_criteria(self, tmp_path):
        cache = self._populate(tmp_path, n=2)
        result = cache.evict()
        assert result["removed"] == 0
        assert result["remaining_entries"] == 2


def _clip(seed=0):
    return make_synthetic_clip(
        SyntheticClipSpec(nx=5, ny=6, nz=3, n_nets=2, sinks_per_net=1),
        seed=seed,
    )


class TestRouterIntegration:
    def test_second_route_is_a_pure_replay(self, tmp_path, monkeypatch):
        clip = _clip()
        rules = RuleConfig(name="RULE6", via_restriction=ViaRestriction.ORTHOGONAL)

        cold = OptRouter(solve_cache=SolveCache(tmp_path))
        first = cold.route(clip, rules)
        assert first.status is RouteStatus.OPTIMAL
        assert not first.cache_hit

        # Tripwire: any backend call on the second run is a failure.
        def boom(*args, **kwargs):
            raise AssertionError("backend solve on a warm cache")

        import repro.ilp.highs_backend as highs_backend
        import repro.router.optrouter as optrouter_mod

        monkeypatch.setattr(optrouter_mod, "solve_with_highs", boom)
        monkeypatch.setattr(highs_backend, "solve_with_highs", boom)

        warm = OptRouter(solve_cache=SolveCache(tmp_path))
        second = warm.route(clip, rules)
        assert second.cache_hit
        assert second.status == first.status
        assert second.cost == pytest.approx(first.cost)
        assert second.wirelength == first.wirelength
        assert second.n_vias == first.n_vias

    def test_cache_disabled_by_default(self, tmp_path):
        router = OptRouter()
        assert router.solve_cache is None
        result = router.route(_clip())
        assert not result.cache_hit


class TestSweepReplay:
    def test_repeated_evaluate_does_zero_backend_solves(
        self, tmp_path, monkeypatch
    ):
        from repro.eval import EvalConfig, evaluate_clips, format_delta_cost_table

        population = [_clip(s) for s in range(2)]
        rule_set = [
            RuleConfig(name="RULE1"),
            RuleConfig(name="RULE3", sadp_min_metal=3),
        ]
        config = EvalConfig(
            time_limit_per_clip=30.0, solve_cache_dir=str(tmp_path)
        )
        first = evaluate_clips(population, rule_set, config)
        table = format_delta_cost_table(first)

        calls = {"n": 0}
        import repro.router.optrouter as optrouter_mod

        real = optrouter_mod.solve_with_highs

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(optrouter_mod, "solve_with_highs", counting)

        again = evaluate_clips(population, rule_set, config)
        assert calls["n"] == 0
        assert format_delta_cost_table(again) == table
        for rule_name in first.rule_names:
            assert [
                (o.clip_name, o.status, o.cost)
                for o in first.outcomes[rule_name]
            ] == [
                (o.clip_name, o.status, o.cost)
                for o in again.outcomes[rule_name]
            ]
