"""Distributed-sweep benchmark: scaling curve + kill-injection smoke.

Regenerates ``BENCH_distributed.json`` at the repo root.  Three claims
are measured, not assumed:

- **Scaling**: the same Δcost sweep runs at 1, 2 and 4 lease-
  coordinated workers.  Per-pair solver latency is calibrated with a
  deterministic SLEEP fault (the clip pool solves in milliseconds, so
  uncalibrated wall clocks would measure process-spawn noise; the
  sleeps release the GIL and overlap across worker processes, which is
  exactly the property a distributed sweep exploits on a multi-core
  box).  Gate: >= 2.5x median wall-clock speedup at 4 workers vs 1.
- **Determinism**: the Δcost table of every distributed run is
  byte-identical to the sequential run -- distribution changes *when*
  answers arrive, never *what* they are.
- **Crash tolerance**: a 4-worker sweep with two workers SIGKILLed
  mid-group (respawn disabled) still completes with zero lost and zero
  duplicated (clip, rule) results, and a resume of its journal
  reproduces the sequential report byte for byte.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from repro.clips import SyntheticClipSpec, make_synthetic_clip
from repro.eval import (
    EvalConfig,
    evaluate_clips,
    format_delta_cost_table,
    paper_rule,
)
from repro.exec import (
    CheckpointJournal,
    FaultKind,
    FaultPlan,
    FaultSpec,
    KillPlan,
    dedupe_results,
)
from repro.router import RuleConfig, ViaRestriction

BENCH_PATH = Path(__file__).parent.parent / "BENCH_distributed.json"

N_CLIPS = 8
SLEEP_SECONDS = 1.0
WORKER_COUNTS = (1, 2, 4)
REPS = 2
SPEEDUP_GATE = 2.5
CHAOS_KILLS = 2
CHAOS_SEED = 0

SPEC = SyntheticClipSpec(
    nx=5, ny=6, nz=3, n_nets=2, sinks_per_net=1,
    access_points_per_pin=2, pin_spacing_cols=1,
)


def clip_pool():
    return [
        make_synthetic_clip(SPEC, seed=s, name=f"dbench_s{s}")
        for s in range(N_CLIPS)
    ]


def rule_set():
    return [
        paper_rule("RULE1"),
        RuleConfig(name="RULE6", via_restriction=ViaRestriction.ORTHOGONAL),
    ]


def latency_plan(clips, rules):
    """Deterministic per-pair solver latency (sleeps overlap across
    processes; the solves themselves finish in milliseconds)."""
    return FaultPlan(by_key={
        (clip.name, rule.name): FaultSpec(
            FaultKind.SLEEP, sleep_seconds=SLEEP_SECONDS
        )
        for clip in clips
        for rule in rules
    })


def eval_config(n_procs=1):
    # audit=False: certification re-solves would double the calibrated
    # latency per pair and measure the verify layer, not distribution.
    # certify off for the same reason: the serial per-pair overhead
    # dilutes the calibrated latency the sweep overlaps.
    return EvalConfig(
        time_limit_per_clip=30.0, n_procs=n_procs, audit=False,
        certify=False,
    )


def run_sweep(tmp_path, tag, n_procs, plan, chaos_kills=0):
    clips, rules = clip_pool(), rule_set()
    path = tmp_path / f"{tag}.jsonl"
    t0 = time.perf_counter()
    study = evaluate_clips(
        clips, rules, eval_config(n_procs),
        checkpoint_path=path,
        fault_plan=plan,
        chaos_kills=chaos_kills,
        chaos_seed=CHAOS_SEED,
    )
    return study, time.perf_counter() - t0, path


def snapshot(study):
    return {
        rule: [
            (o.clip_name, o.status.value, o.cost)
            for o in study.outcomes[rule]
        ]
        for rule in study.rule_names
    }


def test_bench_distributed_scaling_and_chaos(tmp_path):
    clips, rules = clip_pool(), rule_set()
    plan = latency_plan(clips, rules)
    n_pairs = len(clips) * len(rules)

    sequential, _, _ = run_sweep(tmp_path, "reference", 1, plan)
    reference_table = format_delta_cost_table(sequential)
    reference_snapshot = snapshot(sequential)

    walls: dict[int, list[float]] = {w: [] for w in WORKER_COUNTS}
    table_mismatches = 0
    for rep in range(REPS):
        for n_procs in WORKER_COUNTS:
            study, wall, _ = run_sweep(
                tmp_path, f"scale-{n_procs}w-r{rep}", n_procs, plan
            )
            walls[n_procs].append(wall)
            if format_delta_cost_table(study) != reference_table:
                table_mismatches += 1
            assert snapshot(study) == reference_snapshot

    medians = {w: statistics.median(walls[w]) for w in WORKER_COUNTS}
    speedup_4w = medians[1] / medians[4]

    # -- kill-injection smoke: 4 workers, 2 SIGKILLed mid-group -------------
    chaos_study, chaos_wall, chaos_path = run_sweep(
        tmp_path, "chaos", 4, plan, chaos_kills=CHAOS_KILLS
    )
    report = chaos_study.distributed_report
    records = dedupe_results(CheckpointJournal(chaos_path).read())
    chaos_pairs = [(r["clip"], r["rule"]) for r in records]
    expected_pairs = {(c.name, r.name) for c in clips for r in rules}
    lost = sorted(expected_pairs - set(chaos_pairs))
    duplicated = sorted(
        pair for pair in set(chaos_pairs) if chaos_pairs.count(pair) > 1
    )
    chaos_table = format_delta_cost_table(chaos_study)

    # Resume the chaos journal sequentially: byte-identical report.
    resumed = evaluate_clips(
        clips, rules, eval_config(1),
        checkpoint_path=chaos_path, resume=True,
    )
    resumed_table = format_delta_cost_table(resumed)

    payload = {
        "config": {
            "n_clips": N_CLIPS,
            "n_pairs": n_pairs,
            "rules": [r.name for r in rules],
            "sleep_seconds_per_pair": SLEEP_SECONDS,
            "worker_counts": list(WORKER_COUNTS),
            "reps": REPS,
            "speedup_gate": SPEEDUP_GATE,
            "chaos_kills": CHAOS_KILLS,
            "chaos_seed": CHAOS_SEED,
        },
        "scaling": {
            "median_wall_seconds": {
                str(w): round(medians[w], 3) for w in WORKER_COUNTS
            },
            "all_wall_seconds": {
                str(w): [round(t, 3) for t in walls[w]]
                for w in WORKER_COUNTS
            },
            "speedup_4w_vs_1w": round(speedup_4w, 3),
            "delta_table_mismatches": table_mismatches,
        },
        "chaos": {
            "wall_seconds": round(chaos_wall, 3),
            "workers_killed": sorted(report.killed) if report else [],
            "lease_reclaims": report.reclaims if report else 0,
            "respawns": report.respawns if report else 0,
            "inline_groups": len(report.inline_groups) if report else 0,
            "lost_pairs": lost,
            "duplicated_pairs": duplicated,
            "table_matches_sequential": chaos_table == reference_table,
            "resumed_table_matches_sequential":
                resumed_table == reference_table,
        },
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    # Determinism gates: identical Δcost everywhere.
    assert table_mismatches == 0
    assert chaos_table == reference_table
    assert resumed_table == reference_table
    assert snapshot(chaos_study) == reference_snapshot

    # Crash-tolerance gates: both victims shot, nothing lost, nothing
    # duplicated.
    assert report is not None
    assert sorted(report.killed) == sorted(
        KillPlan(4, CHAOS_KILLS, seed=CHAOS_SEED).victims()
    )
    assert lost == []
    assert duplicated == []

    # The headline gate: distribution pays for itself.
    assert speedup_4w >= SPEEDUP_GATE, payload["scaling"]
