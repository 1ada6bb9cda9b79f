"""Columnar-core benchmark: object pipeline vs CSR pipeline, cold.

Regenerates ``BENCH_columnar.json`` at the repo root: per (clip, rule)
cold-path wall times -- build, canonical serialization, and solve --
for the pre-columnar *object* pipeline and the shipping *columnar*
pipeline, under RULE1 (baseline), RULE7 (via-shape blocking), and
RULE11 (SADP + full via blocking).  The accompanying assertions are
the gates:

- bitwise-equal statuses and objectives between the two arms on every
  (clip, rule) pair, and zero decided->LIMIT regressions (both arms
  hand HiGHS the same arrays);
- identical solve-cache keys from either representation (the columnar
  canonical serialization is the object one, byte for byte).

The median cold build+serialize speedup is recorded per rule
(``cold_speedup``) but not gated.

Arms, per (clip, rule):

- *columnar* -- the shipping path: ``OptRouter.build`` (COO triplets
  -> one CSR construction), :meth:`CsrModel.canonical_text`, and
  :func:`solve_with_highs` on the CSR model (zero-copy HiGHS handoff).
- *object* -- the pre-columnar pipeline reconstructed from the same
  build: object-model materialization (``ilp.model``),
  :func:`write_lp_canonical`, and :func:`solve_with_highs` on the
  object model.  The shared graph/specialization cost inside ``build``
  is charged to both arms; the object arm additionally pays the
  object-model construction the old path could not avoid, so the
  measured ratio *understates* the speedup over the historical builder
  (which also paid per-expression arithmetic during emission).
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from repro.clips import SyntheticClipSpec, make_synthetic_clip, select_top_clips
from repro.eval import paper_rule
from repro.ilp.highs_backend import solve_with_highs
from repro.ilp.lp_format import write_lp_canonical
from repro.ilp.solve_cache import SolveCache
from repro.ilp.status import SolveStatus
from repro.router import OptRouter

BENCH_PATH = Path(__file__).parent.parent / "BENCH_columnar.json"

RULES = ("RULE1", "RULE7", "RULE11")
TIME_LIMIT = 60.0  # >> any solve in the pool; LIMIT means a bug

#: 2-pin-net clip shapes, ranked by pin cost.
SHAPES = (
    SyntheticClipSpec(nx=4, ny=5, nz=6, n_nets=4, sinks_per_net=1,
                      access_points_per_pin=2),
    SyntheticClipSpec(nx=4, ny=4, nz=6, n_nets=3, sinks_per_net=1,
                      access_points_per_pin=2),
    SyntheticClipSpec(nx=4, ny=5, nz=6, n_nets=3, sinks_per_net=1,
                      access_points_per_pin=2),
)
SEEDS_PER_SHAPE = 50
TOP_K = 100


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


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def bench_pair(router, clip, rule_name):
    rules = paper_rule(rule_name)
    cache_options = {"backend": "highs", "time_limit": TIME_LIMIT}

    # Columnar arm: the shipping cold path.
    ilp_c, col_build = timed(router.build, clip, rules)
    _, col_serialize = timed(ilp_c.csr.canonical_text)
    col_key = SolveCache.key_for(ilp_c.csr, cache_options)
    col_sol, col_solve = timed(
        solve_with_highs, ilp_c.csr, time_limit=TIME_LIMIT
    )

    # Object arm: the same clip through the pre-columnar pipeline.
    ilp_o, obj_build = timed(router.build, clip, rules)
    model, obj_materialize = timed(lambda: ilp_o.model)
    _, obj_serialize = timed(write_lp_canonical, model)
    obj_key = SolveCache.key_for(model, cache_options)
    obj_sol, obj_solve = timed(solve_with_highs, model, time_limit=TIME_LIMIT)

    col_cold = col_build + col_serialize
    obj_cold = obj_build + obj_materialize + obj_serialize
    return {
        "clip": clip.name,
        "rule": rule_name,
        "columnar_build_seconds": round(col_build, 6),
        "columnar_serialize_seconds": round(col_serialize, 6),
        "columnar_solve_seconds": round(col_solve, 6),
        "columnar_cold_seconds": round(col_cold, 6),
        "object_build_seconds": round(obj_build + obj_materialize, 6),
        "object_serialize_seconds": round(obj_serialize, 6),
        "object_solve_seconds": round(obj_solve, 6),
        "object_cold_seconds": round(obj_cold, 6),
        "columnar_status": col_sol.status.value,
        "object_status": obj_sol.status.value,
        "columnar_objective": col_sol.objective,
        "object_objective": obj_sol.objective,
        "cache_keys_match": col_key == obj_key,
    }


def summarize(records):
    out = {}
    for rule_name in RULES:
        rows = [r for r in records if r["rule"] == rule_name]
        med_col = statistics.median(r["columnar_cold_seconds"] for r in rows)
        med_obj = statistics.median(r["object_cold_seconds"] for r in rows)
        out[rule_name] = {
            "n_clips": len(rows),
            "median_columnar_cold_seconds": med_col,
            "median_object_cold_seconds": med_obj,
            "cold_speedup": (med_obj / med_col) if med_col else 0.0,
            "median_columnar_build_seconds": statistics.median(
                r["columnar_build_seconds"] for r in rows
            ),
            "median_columnar_serialize_seconds": statistics.median(
                r["columnar_serialize_seconds"] for r in rows
            ),
            "median_columnar_solve_seconds": statistics.median(
                r["columnar_solve_seconds"] for r in rows
            ),
            "median_object_solve_seconds": statistics.median(
                r["object_solve_seconds"] for r in rows
            ),
            "limit_regressions": sum(
                1 for r in rows
                if r["columnar_status"] == SolveStatus.LIMIT.value
                and r["object_status"] != SolveStatus.LIMIT.value
            ),
            "status_mismatches": sum(
                1 for r in rows if r["columnar_status"] != r["object_status"]
            ),
            "cache_key_mismatches": sum(
                1 for r in rows if not r["cache_keys_match"]
            ),
        }
    return out


def test_bench_columnar_vs_object():
    # reuse_formulation=False: every build in either arm is cold --
    # the shared base-formulation cache would otherwise hand the
    # second (object) build of each pair a warm core.
    router = OptRouter(certify=False, reuse_formulation=False)
    clips = clip_pool()
    assert len(clips) == TOP_K
    records = [
        bench_pair(router, clip, rule_name)
        for clip in clips
        for rule_name in RULES
    ]
    summary = summarize(records)
    payload = {
        "config": {
            "rules": list(RULES),
            "time_limit_seconds": TIME_LIMIT,
            "top_k": TOP_K,
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
        "records": records,
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    # Soundness, measured: both arms solve the same arrays, so
    # statuses and objectives must agree bitwise.
    for record in records:
        assert record["columnar_status"] == record["object_status"], record
        if record["columnar_status"] == SolveStatus.OPTIMAL.value:
            assert (
                record["columnar_objective"] == record["object_objective"]
            ), record
        assert record["cache_keys_match"], record

    for rule_name in RULES:
        stats = summary[rule_name]
        assert stats["limit_regressions"] == 0, stats
        assert stats["status_mismatches"] == 0, stats
