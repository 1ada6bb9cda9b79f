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


class TestSparseEntries:
    """Entries store a solution's nonzero values only, and replay every
    value of its point, zeros included."""

    def test_put_stores_only_nonzero_values(self, tmp_path):
        cache = SolveCache(tmp_path)
        model = knapsack_model()
        solution = solve_with_highs(model)
        assert 0 in solution.values.values()
        assert cache.put(model, {}, solution)
        (entry_file,) = cache._entry_files()
        names = model.var_names
        assert json.loads(entry_file.read_text())["values"] == {
            names[j]: value for j, value in solution.values.items() if value
        }
        assert cache.get(model, {}).to_solution(model).values == solution.values

    def test_an_all_zero_point_replays_as_a_point(self, tmp_path):
        cache = SolveCache(tmp_path)
        model = knapsack_model()
        zero = Solution(
            status=SolveStatus.OPTIMAL, objective=0.0, best_bound=0.0,
            values={0: 0, 1: 0, 2: 0},
        )
        assert cache.put(model, {"o": 1}, zero)
        assert cache.put(model, {"o": 2}, Solution(status=SolveStatus.LIMIT))
        assert cache.get(model, {"o": 1}).to_solution(model).values == zero.values
        assert cache.get(model, {"o": 2}).to_solution(model).values == {}

    def test_entries_that_store_every_value_still_read(self, tmp_path):
        from repro.util.integrity import seal_record

        cache = SolveCache(tmp_path)
        model = knapsack_model()
        solution = solve_with_highs(model)
        path = cache._path(cache.key_for(model, {}))
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(seal_record({
            "v": 2,
            "status": "optimal",
            "objective": solution.objective,
            "values": {
                model.var_names[j]: value for j, value in solution.values.items()
            },
            "best_bound": solution.best_bound,
            "n_nodes": 0,
            "solve_seconds": 0.0,
        })))
        entry = cache.get(model, {})
        assert entry is not None and entry.has_point
        assert entry.to_solution(model).values == solution.values


class TestQuarantineEvents:
    """Every quarantine keeps its own copy and reason."""

    def test_a_key_quarantined_twice_keeps_both(self, tmp_path):
        cache = SolveCache(tmp_path)
        model = knapsack_model()
        key = cache.key_for(model, {})
        for reason in ("first", "second"):
            assert cache.put(model, {}, solve_with_highs(model), key=key)
            cache.quarantine(key, reason)
        assert cache.quarantined == 2
        assert cache.stats()["quarantined"] == 2
        qdir = tmp_path / "quarantine"
        assert sorted(
            path.read_text() for path in qdir.glob(f"{key}.*.json.reason")
        ) == ["first\n", "second\n"]

    def test_record_kinds_are_named_apart(self, tmp_path):
        from repro.exec import flip_bit

        cache = SolveCache(tmp_path)
        model = knapsack_model()
        key = cache.key_for(model, {})
        assert cache.put(model, {}, solve_with_highs(model), key=key)
        assert cache.put_indexed("ab" * 32, key, model.stats())
        assert cache.put_proofs("cd" * 32, {})
        for path in cache._index_files() + cache._proof_files():
            flip_bit(path, byte_index=20)
        assert cache.get_indexed("ab" * 32) is None
        assert cache.get_proofs("cd" * 32) is None
        qdir = tmp_path / "quarantine"
        assert [p.name.split(".")[0] for p in sorted(qdir.glob("*.json"))] == [
            "index-" + "ab" * 32, "proofs-" + "cd" * 32,
        ]


def _reject(record):
    raise ValueError("not a proof")


class TestProofSheetStore:
    """Proof sheets: sealed records of a caller's proofs, beside the
    entries, seen by every maintenance command."""

    SHEET = "ef" * 32
    PROOFS = {"e1": {"holds": True}, "e2": {"holds": False}}

    def test_round_trip_and_separate_counts(self, tmp_path):
        cache = SolveCache(tmp_path)
        assert cache.get_proofs(self.SHEET) is None
        assert cache.put_proofs(self.SHEET, self.PROOFS)
        assert cache.get_proofs(self.SHEET) == self.PROOFS
        assert cache.get_proofs(self.SHEET, decode=len) == 2
        stats = cache.stats()
        assert (
            stats["entries"], stats["index_entries"], stats["proof_sheets"]
        ) == (0, 0, 1)
        assert cache.hits == cache.misses == cache.quarantined == 0

    @pytest.mark.parametrize(
        "damage", ["bit-flip", "truncated", "other-version", "rejected"]
    )
    def test_damaged_sheet_is_a_quarantined_miss(self, tmp_path, damage):
        from repro.exec import flip_bit
        from repro.ilp.solve_cache import PROOF_VERSION
        from repro.util.integrity import seal_record

        cache = SolveCache(tmp_path)
        assert cache.put_proofs(self.SHEET, self.PROOFS)
        (sheet,) = cache._proof_files()
        decode = None
        if damage == "bit-flip":
            flip_bit(sheet, byte_index=20)
        elif damage == "truncated":
            sheet.write_text(sheet.read_text()[:40])
        elif damage == "other-version":
            payload = json.loads(sheet.read_text())
            payload["v"] = PROOF_VERSION + 1
            sheet.write_text(json.dumps(seal_record(payload)))
        else:
            decode = _reject
        assert cache.get_proofs(self.SHEET, decode=decode) is None
        assert not sheet.exists()
        assert cache.quarantined == cache.stats()["quarantined"] == 1
        # The caller proves again and rewrites the sheet.
        assert cache.put_proofs(self.SHEET, self.PROOFS)
        assert cache.get_proofs(self.SHEET) == self.PROOFS

    def test_scan_clear_and_evict(self, tmp_path):
        import os

        cache = SolveCache(tmp_path)
        assert cache.put_proofs(self.SHEET, self.PROOFS)
        assert cache.scan() == {"checked": 1, "valid": 1, "quarantined": []}
        (sheet,) = cache._proof_files()
        payload = json.loads(sheet.read_text())
        payload["proofs"]["e2"]["holds"] = True  # without a fresh seal
        sheet.write_text(json.dumps(payload))
        report = cache.scan()
        assert [name for name, _ in report["quarantined"]] == [
            f"proofs/{sheet.name}"
        ]
        assert cache.stats()["proof_sheets"] == 0
        assert cache.put_proofs(self.SHEET, self.PROOFS)
        assert cache.clear() == 0
        assert cache.stats()["proof_sheets"] == 0
        # Sheets never count against the byte bound; they go by age.
        assert cache.put_proofs(self.SHEET, self.PROOFS)
        assert cache.evict(max_bytes=0)["sheets_removed"] == 0
        os.utime(sheet, (1_000.0, 1_000.0))
        result = cache.evict(older_than_seconds=60.0, now=2_000.0)
        assert result["sheets_removed"] == 1
        assert cache.stats()["proof_sheets"] == 0


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


class TestPairIndexStore:
    """The pair index: sealed (pair key -> entry key, model stats)
    records next to the entries, seen by every maintenance command."""

    PAIR = "ab" * 32

    def _populate(self, tmp_path):
        cache = SolveCache(tmp_path)
        model = knapsack_model()
        key = cache.key_for(model, {})
        assert cache.put(model, {}, solve_with_highs(model), key=key)
        assert cache.put_indexed(self.PAIR, key, model.stats())
        return cache, model, key

    def test_round_trip_and_separate_counts(self, tmp_path):
        cache, model, key = self._populate(tmp_path)
        assert cache.get_indexed(self.PAIR) == (key, model.stats(), None)
        assert cache.get_indexed("cd" * 32) is None
        stats = cache.stats()
        assert (stats["entries"], stats["index_entries"]) == (1, 1)
        assert cache.hits == cache.misses == 0  # index reads are not gets
        # A record carries the caller's decoded solution, through the
        # caller's decode hook.
        assert cache.put_indexed(self.PAIR, key, model.stats(), {"x": [1, 2]})
        assert cache.get_indexed(self.PAIR).decoded == {"x": [1, 2]}
        record = cache.get_indexed(self.PAIR, decode=lambda d: tuple(d["x"]))
        assert record == (key, model.stats(), (1, 2))

    def test_corrupt_index_entry_is_a_quarantined_miss(self, tmp_path):
        from repro.exec import flip_bit

        cache, _, _ = self._populate(tmp_path)
        (index_file,) = cache._index_files()
        flip_bit(index_file, byte_index=20)
        assert cache.get_indexed(self.PAIR) is None
        assert cache.quarantined == 1
        assert not index_file.exists()
        assert cache.stats()["quarantined"] == 1

    def test_scan_validates_and_quarantines_index_entries(self, tmp_path):
        cache, _, _ = self._populate(tmp_path)
        report = cache.scan()
        assert (report["checked"], report["valid"]) == (2, 2)
        (index_file,) = cache._index_files()
        payload = json.loads(index_file.read_text())
        payload["key"] = "0" * 64  # re-pointed without a fresh seal
        index_file.write_text(json.dumps(payload))
        report = cache.scan()
        assert report["checked"] == 2
        assert [name for name, _ in report["quarantined"]] == [
            f"index/{index_file.name}"
        ]
        assert "checksum" in report["quarantined"][0][1]
        assert cache.stats()["index_entries"] == 0
        assert cache.scan()["quarantined"] == []  # one-shot

    def test_clear_removes_index_entries(self, tmp_path):
        cache, _, _ = self._populate(tmp_path)
        assert cache.clear() == 1
        stats = cache.stats()
        assert (stats["entries"], stats["index_entries"]) == (0, 0)

    def test_evict_drops_dangling_and_stale_index_entries(self, tmp_path):
        import os

        cache, model, key = self._populate(tmp_path)
        assert cache.evict(older_than_seconds=1e9)["index_removed"] == 0
        # Its entry evicted, the index entry dangles and goes too.
        assert cache.evict(max_bytes=0)["index_removed"] == 1
        assert cache.stats()["index_entries"] == 0
        # A stale index entry goes by age, like an entry.
        assert cache.put_indexed(self.PAIR, key, model.stats())
        (index_file,) = cache._index_files()
        os.utime(index_file, (1_000.0, 1_000.0))
        result = cache.evict(older_than_seconds=60.0, now=2_000.0)
        assert result["index_removed"] == 1


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


RULE6 = RuleConfig(name="RULE6", via_restriction=ViaRestriction.ORTHOGONAL)


def _count_pair_work(monkeypatch):
    """Count the work an indexed replay skips: certify, model builds
    (a base build or rule specialization), model hashing and backend
    solves.  Returns the counter."""
    import collections

    import repro.router.formulation as fm
    import repro.router.optrouter as optrouter_mod

    counts = collections.Counter()

    def counting(owner, name, wrap=None):
        real = owner.__dict__[name]
        fn = real.__func__ if wrap is not None else real

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrap(counted) if wrap else counted)

    counting(optrouter_mod, "certify_infeasible")
    counting(optrouter_mod, "solve_with_highs")
    counting(SolveCache, "key_for", wrap=staticmethod)
    counting(fm.BaseFormulation, "specialize")
    counting(fm.BaseFormulation, "build", wrap=classmethod)
    return counts


class TestPairIndexReplay:
    """``OptRouter.route`` replays an indexed pair right after the
    reused-routing check: no certify, build or hash, the same result.
    Any index miss takes the build path and heals the index."""

    FIELDS = (
        "status", "cost", "wirelength", "n_vias", "bound", "gap", "n_nodes",
        "solve_seconds", "model_stats", "backend", "warm_used", "certificate",
    )

    def _first(self, tmp_path, clip):
        first = OptRouter(solve_cache=SolveCache(tmp_path)).route(clip, RULE6)
        assert first.status is RouteStatus.OPTIMAL and not first.cache_hit
        stats = SolveCache(tmp_path).stats()
        assert (stats["entries"], stats["index_entries"]) == (1, 1)
        return first

    def test_indexed_pair_skips_certify_build_and_hash(
        self, tmp_path, monkeypatch
    ):
        import pickle

        clip = _clip()
        first = self._first(tmp_path, clip)
        counts = _count_pair_work(monkeypatch)
        replay = OptRouter(solve_cache=SolveCache(tmp_path)).route(
            pickle.loads(pickle.dumps(clip)), RULE6
        )
        assert not counts
        assert replay.cache_hit
        assert replay.build_seconds == replay.serialize_seconds == 0.0
        for name in self.FIELDS:
            assert getattr(replay, name) == getattr(first, name), name
        assert replay.routing.nets == first.routing.nets

    def test_replay_reads_the_routing_and_builds_no_base(
        self, tmp_path, monkeypatch
    ):
        from repro.router.formulation import formulation_cache

        clip = _clip()
        first = self._first(tmp_path, clip)
        formulation_cache().clear()  # as in a fresh process
        counts = _count_pair_work(monkeypatch)
        replay = OptRouter(solve_cache=SolveCache(tmp_path)).route(clip, RULE6)
        assert not counts
        assert replay.routing == first.routing
        assert replay.routing.point == first.routing.point
        assert replay.routing.point and first.routing.point

    def test_malformed_routing_is_a_quarantined_miss(self, tmp_path, monkeypatch):
        from repro.util.integrity import seal_record

        clip = _clip()
        first = self._first(tmp_path, clip)
        cache = SolveCache(tmp_path)
        (index_file,) = cache._index_files()
        payload = json.loads(index_file.read_text())
        payload["decoded"]["cost"] = str(payload["decoded"]["cost"])
        index_file.write_text(json.dumps(seal_record(payload)))
        counts = _count_pair_work(monkeypatch)
        healed = OptRouter(solve_cache=cache).route(clip, RULE6)
        assert cache.quarantined == 1
        assert counts["certify_infeasible"] == counts["key_for"] == 1
        assert counts["solve_with_highs"] == 0 and healed.cache_hit
        assert healed.routing == first.routing
        counts.clear()
        again = OptRouter(solve_cache=SolveCache(tmp_path)).route(clip, RULE6)
        assert not counts
        assert again.routing == first.routing

    def test_other_program_digest_misses(self, tmp_path, monkeypatch):
        import repro.router.optrouter as optrouter_mod

        clip = _clip()
        with monkeypatch.context() as patch:
            patch.setattr(optrouter_mod, "program_digest", lambda: "0" * 64)
            self._first(tmp_path, clip)
        counts = _count_pair_work(monkeypatch)
        replay = OptRouter(solve_cache=SolveCache(tmp_path)).route(clip, RULE6)
        assert replay.cache_hit  # through the build path: certify, build, hash
        assert counts["certify_infeasible"] == counts["key_for"] == 1
        assert counts["specialize"] == 1
        assert counts["solve_with_highs"] == 0
        assert replay.build_seconds > 0 and replay.serialize_seconds > 0
        # The build path indexed the pair under this program's digest.
        assert SolveCache(tmp_path).stats()["index_entries"] == 2

    @pytest.mark.parametrize(
        "damage",
        [
            "index-corrupt", "index-truncated", "index-other-version",
            "entry-missing", "entry-corrupt",
        ],
    )
    def test_damage_falls_back_and_heals(self, tmp_path, monkeypatch, damage):
        from repro.exec import flip_bit
        from repro.ilp.solve_cache import INDEX_VERSION
        from repro.util.integrity import seal_record

        clip = _clip()
        first = self._first(tmp_path, clip)
        cache = SolveCache(tmp_path)
        (index_file,) = cache._index_files()
        (entry_file,) = cache._entry_files()
        if damage == "index-corrupt":
            flip_bit(index_file, byte_index=20)
        elif damage == "index-truncated":
            index_file.write_text(index_file.read_text()[:100])
        elif damage == "index-other-version":
            payload = json.loads(index_file.read_text())
            payload["v"] = INDEX_VERSION - 1
            index_file.write_text(json.dumps(seal_record(payload)))
        elif damage == "entry-missing":
            entry_file.unlink()
        else:
            flip_bit(entry_file, byte_index=30)
        counts = _count_pair_work(monkeypatch)
        healed = OptRouter(solve_cache=cache).route(clip, RULE6)
        assert cache.quarantined == (0 if damage == "entry-missing" else 1)
        # Today's path: certify, build, hash; a re-solve unless the
        # entry itself survived.
        assert counts["certify_infeasible"] == counts["key_for"] == 1
        index_damage = damage.startswith("index")
        assert counts["solve_with_highs"] == (not index_damage)
        assert healed.cache_hit == index_damage
        for name in ("status", "cost", "wirelength", "n_vias"):
            assert getattr(healed, name) == getattr(first, name), name
        # Healed: the next route replays through the index again.
        counts.clear()
        again = OptRouter(solve_cache=SolveCache(tmp_path)).route(clip, RULE6)
        assert not counts
        assert again.cache_hit and again.cost == first.cost


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

    def test_indexed_replay_of_equal_clips_builds_and_hashes_nothing(
        self, tmp_path, monkeypatch
    ):
        import pickle

        from repro.eval import EvalConfig, evaluate_clips, format_delta_cost_table
        from repro.eval.flow import _journaled, outcome_to_record
        from repro.exec import CheckpointJournal

        population = [_clip(s) for s in range(2)]
        rule_set = [
            RuleConfig(name="RULE1"),
            RuleConfig(name="RULE3", sadp_min_metal=3),
            RULE6,
        ]
        config = EvalConfig(
            time_limit_per_clip=30.0, solve_cache_dir=str(tmp_path / "cache")
        )
        first = evaluate_clips(
            population, rule_set, config, checkpoint_path=tmp_path / "1.jsonl"
        )
        counts = _count_pair_work(monkeypatch)
        again = evaluate_clips(
            pickle.loads(pickle.dumps(population)), rule_set, config,
            checkpoint_path=tmp_path / "2.jsonl",
        )
        assert not counts
        assert format_delta_cost_table(again) == format_delta_cost_table(first)

        def records(name):
            journal = CheckpointJournal(tmp_path / name)
            return {
                key: outcome_to_record(outcome)
                for key, outcome in _journaled(journal.load()).items()
            }

        def untimed(record):
            record = dict(record, build_seconds=0.0, serialize_seconds=0.0)
            record["attempt_log"] = [
                dict(attempt, seconds=0.0) for attempt in record["attempt_log"]
            ]
            return record

        cold, replayed = records("1.jsonl"), records("2.jsonl")
        assert cold.keys() == replayed.keys()
        n_hits = 0
        for key, record in cold.items():
            replay = replayed[key]
            assert not record["certified"]
            # The first run's cold solves are the replay's cache hits.
            assert replay["cache_hit"] == (not record["warm_used"])
            n_hits += replay["cache_hit"]
            if replay["cache_hit"]:
                assert replay["build_seconds"] == replay["serialize_seconds"] == 0
            assert untimed(dict(replay, cache_hit=False)) == untimed(record)
        assert n_hits > 0

    def test_poisoned_routing_heals_through_the_entry_quarantine(self, tmp_path):
        from repro.eval import EvalConfig, evaluate_clips, format_delta_cost_table
        from repro.util.integrity import seal_record

        clip = _clip()
        rule_set = [RuleConfig(name="RULE1"), RULE6]
        config = EvalConfig(
            time_limit_per_clip=30.0, solve_cache_dir=str(tmp_path / "cache")
        )
        first = evaluate_clips([clip], rule_set, config)
        table = format_delta_cost_table(first)
        # Poison RULE1's index record: its routing loses a net's wires,
        # under a valid seal.
        router = OptRouter(time_limit=30.0)
        cache = SolveCache(tmp_path / "cache")
        record = cache._index_path(router._pair_key(clip, rule_set[0]))
        payload = json.loads(record.read_text())
        payload["decoded"]["nets"][0]["wires"] = []
        record.write_text(json.dumps(seal_record(payload), sort_keys=True))
        n_entries = cache.stats()["entries"]

        def rule1(study):
            (outcome,) = study.outcomes["RULE1"]
            return outcome

        replayed = evaluate_clips([clip], rule_set, config)
        assert rule1(replayed).quarantined and rule1(replayed).healed
        assert format_delta_cost_table(replayed) == table
        # The audit quarantined the entry the record points at.
        stats = cache.stats()
        assert (stats["entries"], stats["quarantined"]) == (n_entries - 1, 1)
        # The next sweep re-solves and re-indexes the pair, the one
        # after reads it.
        for expect_hit in (False, True):
            again = evaluate_clips([clip], rule_set, config)
            assert not rule1(again).quarantined
            assert rule1(again).cache_hit is expect_hit
            assert format_delta_cost_table(again) == table
