"""Incremental-solving benchmark: cold vs warm Table-3 sweeps.

Regenerates ``BENCH_incremental.json`` at the repo root.  Two sweeps
run over the same ranked clip pool and all eleven Table-3 rules:

- **cold**: every (clip, rule) pair rebuilds its formulation from
  scratch and solves with no cross-rule information (the pre-PR
  behaviour, ``reuse_formulation=False``);
- **warm**: per clip, RULE1 solves first and its outcome seeds every
  follower rule through the sound shortcuts (inherited infeasibility,
  DRC-verified routing reuse, lower-bound transfer) on top of the
  shared formulation core and the persistent solve cache.

The accompanying assertions are the PR's acceptance gates:

- >= 1.5x median wall-clock speedup on the follower rules
  (RULE2..RULE11, per-pair cold/warm ratio);
- bitwise-equal statuses and equal optimal objectives between the
  sweeps, and zero pairs where warm turns a decided status into LIMIT
  (the soundness contract, measured rather than assumed);
- a replay of the warm sweep against the populated solve cache
  performs **zero** backend solves and reproduces every outcome.

The clip pool intentionally solves fast: wall-time medians on long MIP
solves are dominated by branching variance, which would measure HiGHS
luck rather than the incremental machinery.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from repro.clips import SyntheticClipSpec, make_synthetic_clip, select_top_clips
from repro.eval import paper_rule, paper_rules
from repro.ilp import SolveCache
from repro.router import OptRouter, RouteStatus, WarmStart, is_restriction

BENCH_PATH = Path(__file__).parent.parent / "BENCH_incremental.json"

RULES = [rule.name for rule in paper_rules()]  # RULE1..RULE11
FOLLOWERS = RULES[1:]
TIME_LIMIT = 60.0  # >> any cold solve in the pool; LIMIT means a bug
SPEEDUP_GATE = 1.5

#: Wide, moderately sparse shapes: the RULE1 optimum is DRC-clean
#: under most (not all) follower rules, so the bench exercises both
#: the routing-reuse shortcut and the DRC-rejected cold-solve path.
SHAPES = (
    SyntheticClipSpec(nx=6, ny=5, nz=6, n_nets=3, sinks_per_net=1,
                      access_points_per_pin=2),
    SyntheticClipSpec(nx=6, ny=6, nz=6, n_nets=3, sinks_per_net=1,
                      access_points_per_pin=2),
    SyntheticClipSpec(nx=6, ny=5, nz=6, n_nets=4, sinks_per_net=1,
                      access_points_per_pin=2),
)
SEEDS_PER_SHAPE = 20
TOP_K = 24


def clip_pool():
    pool = []
    for shape_no, spec in enumerate(SHAPES):
        for seed in range(SEEDS_PER_SHAPE):
            try:
                clip = make_synthetic_clip(
                    spec, seed=seed, name=f"bench_sh{shape_no}_s{seed}"
                )
            except ValueError:
                continue  # spec too tight for this seed
            pool.append(clip)
    return select_top_clips(pool, k=TOP_K)


def timed_route(router, clip, rules, warm=None):
    t0 = time.perf_counter()
    result = router.route(clip, rules, warm=warm)
    return result, time.perf_counter() - t0


def warm_start_from(baseline, baseline_rule, rule):
    """Mirror of the sweep scheduler's seeding policy."""
    if not is_restriction(baseline_rule, rule):
        return None
    if baseline.status is RouteStatus.INFEASIBLE and not baseline.degraded:
        return WarmStart(infeasible=True)
    if (
        baseline.status is RouteStatus.OPTIMAL
        and not baseline.degraded
        and baseline.routing is not None
    ):
        return WarmStart(
            routing=baseline.routing,
            cost=baseline.cost,
            lower_bound=baseline.cost,
        )
    return None


def run_cold(clips):
    """One fresh formulation + cold solve per (clip, rule) pair."""
    records = {}
    for clip in clips:
        for rule_name in RULES:
            router = OptRouter(
                time_limit=TIME_LIMIT, reuse_formulation=False
            )
            result, seconds = timed_route(router, clip, paper_rule(rule_name))
            records[(clip.name, rule_name)] = (result, seconds)
    return records


def run_warm(clips, cache):
    """Clip-major sweep: RULE1 first, followers seeded from it."""
    records = {}
    baseline_rule = paper_rule("RULE1")
    for clip in clips:
        router = OptRouter(time_limit=TIME_LIMIT, solve_cache=cache)
        baseline, seconds = timed_route(router, clip, baseline_rule)
        records[(clip.name, "RULE1")] = (baseline, seconds)
        for rule_name in FOLLOWERS:
            rule = paper_rule(rule_name)
            warm = warm_start_from(baseline, baseline_rule, rule)
            result, seconds = timed_route(router, clip, rule, warm=warm)
            records[(clip.name, rule_name)] = (result, seconds)
    return records


def summarize(records):
    speedups = [r["speedup"] for r in records if r["rule"] != "RULE1"]
    by_rule = {}
    for rule_name in RULES:
        rows = [r for r in records if r["rule"] == rule_name]
        by_rule[rule_name] = {
            "n_clips": len(rows),
            "median_cold_seconds": statistics.median(
                r["cold_seconds"] for r in rows
            ),
            "median_warm_seconds": statistics.median(
                r["warm_seconds"] for r in rows
            ),
            "median_speedup": statistics.median(r["speedup"] for r in rows),
            "median_cold_nodes": statistics.median(
                r["cold_nodes"] for r in rows
            ),
            "median_warm_nodes": statistics.median(
                r["warm_nodes"] for r in rows
            ),
            "warm_shortcuts": sum(1 for r in rows if r["warm_used"]),
            "cache_hits": sum(1 for r in rows if r["cache_hit"]),
            "status_mismatches": sum(
                1 for r in rows if r["warm_status"] != r["cold_status"]
            ),
            "limit_regressions": sum(
                1 for r in rows
                if r["warm_status"] == RouteStatus.LIMIT.value
                and r["cold_status"] != RouteStatus.LIMIT.value
            ),
        }
    return {
        "median_follower_speedup": statistics.median(speedups),
        "by_rule": by_rule,
    }


def test_bench_incremental_cold_vs_warm(tmp_path, monkeypatch):
    clips = clip_pool()
    assert len(clips) == TOP_K

    cache = SolveCache(tmp_path / "solve-cache")
    cold = run_cold(clips)
    warm = run_warm(clips, cache)

    records = []
    for clip in clips:
        for rule_name in RULES:
            cold_result, cold_seconds = cold[(clip.name, rule_name)]
            warm_result, warm_seconds = warm[(clip.name, rule_name)]
            records.append({
                "clip": clip.name,
                "rule": rule_name,
                "cold_status": cold_result.status.value,
                "warm_status": warm_result.status.value,
                "cold_objective": cold_result.cost,
                "warm_objective": warm_result.cost,
                "cold_seconds": round(cold_seconds, 6),
                "warm_seconds": round(warm_seconds, 6),
                "speedup": round(cold_seconds / max(warm_seconds, 1e-9), 3),
                "cold_nodes": cold_result.n_nodes,
                "warm_nodes": warm_result.n_nodes,
                "warm_used": warm_result.warm_used,
                "cache_hit": warm_result.cache_hit,
                "warm_build_seconds": round(warm_result.build_seconds, 6),
                "warm_solve_seconds": round(warm_result.solve_seconds, 6),
            })

    summary = summarize(records)

    # -- replay: the populated cache satisfies an entire second sweep
    #    without a single backend call.
    import repro.router.optrouter as optrouter_mod

    calls = {"n": 0}
    real_solve_with_highs = optrouter_mod.solve_with_highs

    def counting_highs(*args, **kwargs):
        calls["n"] += 1
        return real_solve_with_highs(*args, **kwargs)

    monkeypatch.setattr(optrouter_mod, "solve_with_highs", counting_highs)
    replay = run_warm(clips, SolveCache(tmp_path / "solve-cache"))
    monkeypatch.undo()

    replay_backend_calls = calls["n"]
    replay_mismatches = sum(
        1
        for key, (result, _) in warm.items()
        if (result.status, result.cost) != (
            replay[key][0].status, replay[key][0].cost
        )
    )

    payload = {
        "config": {
            "rules": RULES,
            "time_limit_seconds": TIME_LIMIT,
            "top_k": TOP_K,
            "speedup_gate": SPEEDUP_GATE,
            "shapes": [
                {
                    "nx": s.nx, "ny": s.ny, "nz": s.nz, "n_nets": s.n_nets,
                    "sinks_per_net": s.sinks_per_net,
                    "access_points_per_pin": s.access_points_per_pin,
                }
                for s in SHAPES
            ],
        },
        "summary": summary,
        "replay": {
            "backend_calls": replay_backend_calls,
            "outcome_mismatches": replay_mismatches,
        },
        "records": records,
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    # Soundness, measured: identical statuses, identical optima, no
    # new LIMITs.
    for record in records:
        assert record["warm_status"] == record["cold_status"], record
        if record["cold_status"] == RouteStatus.OPTIMAL.value:
            assert (
                abs(record["warm_objective"] - record["cold_objective"])
                < 1e-6
            ), record
    for rule_name in RULES:
        assert summary["by_rule"][rule_name]["limit_regressions"] == 0

    # The headline gate: incremental solving pays for itself.
    assert summary["median_follower_speedup"] >= SPEEDUP_GATE, summary

    # The cache replay is solver-free and outcome-identical.
    assert replay_backend_calls == 0
    assert replay_mismatches == 0
