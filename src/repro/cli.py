"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``route-clip``: generate (or load) a clip, route it with OptRouter
  under a named Table 3 rule, print metrics and an ASCII rendering.
- ``evaluate`` (alias ``eval``): run the Figure-6 Δcost flow on
  synthetic clips for a technology's applicable rules, under the
  fault-tolerant supervisor — supports a backend fallback chain,
  resumable checkpoints (``--checkpoint`` / ``--resume``), and
  lease-coordinated worker processes over the checkpoint journal
  (``--procs N --checkpoint PATH``).
- ``full-flow``: synthesize/place/route a design, extract clips, rank
  them, and report the top pin costs.
- ``rules``: print the Table 3 rule matrix.
- ``lint``: pre-solve static analysis of a clip set -- model lint
  findings plus infeasibility certificates, as text or JSON.
- ``analyze``: formulation-semantics audit -- exhaustive DRC-equivalence
  check of the routing ILP on the micro-clip corpus (optionally with a
  solver no-good-cut sweep and model-level restriction proofs), as text
  or byte-deterministic JSON; exits non-zero on any counterexample.
- ``audit``: integrity scan of sweep artifacts -- checkpoint journal
  and/or solve cache -- quarantining corrupt records; exits non-zero
  when anything was quarantined.
- ``serve``: run the crash-safe sweep service -- an HTTP API with a
  durable WAL-backed experiment queue, admission control, graceful
  drain, a shared cross-tenant solve-cache tier, and ``--procs`` lease
  workers per sweep (:mod:`repro.service`).
- ``cache``: inspect (``stats``), bound (``evict``), or wipe
  (``clear``) a persistent solve cache.
"""

from __future__ import annotations

import argparse
import sys

from repro.version import __version__


def _cmd_rules(_args) -> int:
    from repro.eval import format_rule_table, paper_rules

    print(format_rule_table(paper_rules(), title="Table 3 rule configurations"))
    return 0


def _cmd_route_clip(args) -> int:
    from repro.clips import SyntheticClipSpec, make_synthetic_clip
    from repro.drc import check_clip_routing
    from repro.eval import paper_rule
    from repro.router import OptRouter
    from repro.viz import render_routing_ascii

    spec = SyntheticClipSpec(
        nx=args.nx, ny=args.ny, nz=args.nz,
        n_nets=args.nets, sinks_per_net=args.sinks,
        access_points_per_pin=args.access_points,
    )
    clip = make_synthetic_clip(spec, seed=args.seed)
    rules = paper_rule(args.rule)
    result = OptRouter(time_limit=args.time_limit).route(clip, rules)
    print(f"clip {clip.name}: {len(clip.nets)} nets, "
          f"{clip.nx}x{clip.ny}x{clip.nz}")
    print(f"{rules.describe()}")
    print(f"status={result.status.value} cost={result.cost} "
          f"wirelength={result.wirelength} vias={result.n_vias} "
          f"({result.solve_seconds:.2f}s)")
    if result.feasible:
        print(render_routing_ascii(clip, result.routing))
        violations = check_clip_routing(clip, rules, result.routing)
        print(f"DRC violations: {len(violations)}")
        return 0 if not violations else 1
    return 0


def _cmd_evaluate(args) -> int:
    import signal
    import threading

    from repro.clips import SyntheticClipSpec, make_synthetic_clip
    from repro.eval import (
        EvalConfig,
        evaluate_clips,
        format_delta_cost_table,
        rules_for_technology,
    )
    from repro.eval.report import format_sorted_traces
    from repro.exec import RetryPolicy, SupervisorConfig, SweepInterrupted

    if args.resume and not args.checkpoint:
        print("--resume requires --checkpoint", file=sys.stderr)
        return 2
    if args.procs > 1 and not args.checkpoint:
        print("--procs > 1 requires --checkpoint (the journal is the "
              "coordination log)", file=sys.stderr)
        return 2
    if args.chaos_kill and args.procs <= 1:
        print("--chaos-kill requires --procs > 1", file=sys.stderr)
        return 2

    spec = SyntheticClipSpec(
        nx=args.nx, ny=args.ny, nz=args.nz,
        n_nets=args.nets, sinks_per_net=args.sinks,
        access_points_per_pin=args.access_points,
    )
    clips = [make_synthetic_clip(spec, seed=s) for s in range(args.clips)]
    rules = rules_for_technology(args.tech)
    fallback = (
        tuple(name.strip() for name in args.fallback.split(",") if name.strip())
        if args.fallback
        else None
    )
    supervisor = SupervisorConfig(
        isolation="inline",
        retry=RetryPolicy(max_attempts=args.max_attempts),
        backends=fallback,
    )
    # Graceful shutdown (SIGINT/SIGTERM): set the stop event so the
    # coordinator flushes the journal, releases leases, and reaps
    # workers; print the exact resume command instead of a traceback.
    stop_event = threading.Event()
    previous_handlers = {}

    def _request_stop(signum, _frame) -> None:
        stop_event.set()
        # Restore default so a second Ctrl-C force-quits.
        signal.signal(signum, previous_handlers.get(signum, signal.SIG_DFL))

    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous_handlers[signum] = signal.signal(signum, _request_stop)
        except ValueError:  # non-main thread (embedding); skip handlers
            previous_handlers.pop(signum, None)

    def _resume_hint() -> str:
        argv = [a for a in sys.argv[1:] if a != "--resume"]
        return "repro " + " ".join(argv + ["--resume"])

    try:
        study = evaluate_clips(
            clips, rules,
            EvalConfig(
                time_limit_per_clip=args.time_limit,
                solve_cache_dir=args.solve_cache,
                audit=not args.no_audit,
                cross_check_fraction=args.cross_check,
                n_procs=args.procs,
                time_budget=args.time_budget,
            ),
            checkpoint_path=args.checkpoint,
            resume=args.resume,
            supervisor=supervisor,
            chaos_kills=args.chaos_kill,
            chaos_seed=args.chaos_seed,
            stop_event=stop_event,
        )
    except (SweepInterrupted, KeyboardInterrupt):
        print("\nsweep interrupted: completed pairs are journaled; "
              "leases released; workers reaped.", file=sys.stderr)
        if args.checkpoint:
            print(f"resume with:\n  {_resume_hint()}", file=sys.stderr)
        return 130
    finally:
        for signum, handler in previous_handlers.items():
            try:
                signal.signal(signum, handler)
            except ValueError:
                pass
    print(format_delta_cost_table(study, title=f"Δcost study ({args.tech})"))
    print(format_sorted_traces(study))
    if not args.no_audit:
        from repro.eval import format_audit_table

        print(format_audit_table(study))
    if args.timing:
        from repro.eval.report import format_timing_table

        print(format_timing_table(study))
    unhealed = sum(study.unhealed_count(r) for r in study.rule_names)
    return 1 if unhealed else 0


def _cmd_cache(args) -> int:
    from repro.ilp.solve_cache import SolveCache

    cache = SolveCache(args.dir)
    if args.action == "stats":
        stats = cache.stats()
        print(f"solve cache at {stats['root']}: {stats['entries']} "
              f"entries, {stats['bytes']} bytes, "
              f"{stats['index_entries']} index entries, "
              f"{stats['proof_sheets']} proof sheets, "
              f"{stats['quarantined']} quarantined")
        return 0
    if args.action == "evict":
        if args.max_bytes is None and args.older_than is None:
            print("evict needs --max-bytes and/or --older-than",
                  file=sys.stderr)
            return 2
        result = cache.evict(
            max_bytes=args.max_bytes,
            older_than_seconds=args.older_than,
        )
        print(f"evicted {result['removed']} entries "
              f"({result['bytes_freed']} bytes) from {args.dir}; "
              f"{result['remaining_entries']} entries "
              f"({result['remaining_bytes']} bytes) remain")
        return 0
    removed = cache.clear()
    print(f"cleared {removed} cache entries from {args.dir}")
    return 0


def _cmd_serve(args) -> int:
    from repro.service import ServiceConfig, serve

    return serve(ServiceConfig(
        data_dir=args.data_dir,
        host=args.host,
        port=args.port,
        concurrency=args.concurrency,
        sweep_procs=args.procs,
        default_time_limit=args.time_limit,
        solve_cache=args.solve_cache,
        no_solve_cache=args.no_solve_cache,
        max_queue_depth=args.max_queue_depth,
        max_pending_per_tenant=args.max_pending_per_tenant,
        max_body_bytes=args.max_body_bytes,
        drain_grace=args.drain_grace,
        chaos_kill_after=args.chaos_kill_after,
    ))


def _cmd_audit(args) -> int:
    import json

    from repro.verify import scan_cache, scan_journal

    if not args.journal and not args.solve_cache:
        print("audit needs --journal and/or --solve-cache", file=sys.stderr)
        return 2
    reports = []
    if args.journal:
        reports.append(scan_journal(args.journal))
    if args.solve_cache:
        reports.append(scan_cache(args.solve_cache))
    if args.json:
        print(json.dumps(
            [report.to_dict() for report in reports],
            indent=2,
            sort_keys=True,
        ))
    else:
        for report in reports:
            print(report)
            for detail in report.details:
                print(f"  {detail}")
    return 0 if all(report.ok for report in reports) else 1


def _cmd_lint(args) -> int:
    from repro.analysis import certify_infeasible, lint_routing_ilp
    from repro.clips import SyntheticClipSpec, make_synthetic_clip
    from repro.eval import paper_rule, rules_for_technology
    from repro.router import OptRouter

    spec = SyntheticClipSpec(
        nx=args.nx, ny=args.ny, nz=args.nz,
        n_nets=args.nets, sinks_per_net=args.sinks,
        access_points_per_pin=args.access_points,
    )
    clips = [make_synthetic_clip(spec, seed=s) for s in range(args.clips)]
    if args.rule:
        rules = [paper_rule(args.rule)]
    else:
        rules = rules_for_technology(args.tech)

    router = OptRouter()
    records = []
    n_errors = 0
    for clip in clips:
        for rule in rules:
            certificate = certify_infeasible(clip, rule)
            report = lint_routing_ilp(router.build(clip, rule))
            n_errors += len(report.errors)
            records.append((clip, rule, report, certificate))

    if args.json:
        from repro.analysis.semantics.report import SCHEMA_VERSION, dump_json

        payload = {
            "schema_version": SCHEMA_VERSION,
            "kind": "lint",
            "n_errors": n_errors,
            "reports": [
                {
                    "clip": clip.name,
                    "rule": rule.name,
                    "lint": report.to_dict(),
                    "certificate": (
                        certificate.to_dict() if certificate is not None else None
                    ),
                }
                for clip, rule, report, certificate in records
            ],
        }
        print(dump_json(payload))
    else:
        for clip, rule, report, certificate in records:
            status = "certified-infeasible" if certificate else "ok"
            print(
                f"{clip.name} {rule.name}: {status}, "
                f"{len(report.errors)} error(s), "
                f"{len(report.warnings)} warning(s), "
                f"{report.stats['n_vars']} vars / "
                f"{report.stats['n_constraints']} rows"
            )
            for finding in report.findings:
                print(f"  {finding}")
            if certificate is not None:
                print(f"  {certificate}")
        n_certified = sum(1 for r in records if r[3] is not None)
        print(
            f"linted {len(records)} (clip, rule) pairs: {n_errors} model "
            f"error(s), {n_certified} certified infeasible"
        )
    return 1 if n_errors else 0


def _cmd_analyze_concurrency(args) -> int:
    """Both concurrency engines: protocol model check + code lint."""
    from repro.analysis.concurrency import (
        ProtocolSpec,
        check_protocol,
        lint_concurrency,
        render_schedule,
    )
    from repro.analysis.semantics import dump_json

    seeded = {}
    if args.seed_bug:
        seeded[args.seed_bug.replace("-", "_")] = True
    spec = ProtocolSpec(
        n_workers=args.workers,
        n_groups=args.groups,
        pairs_per_group=args.pairs,
        crash_budget=args.crashes,
        **seeded,
    )
    result = check_protocol(spec)
    lint = lint_concurrency()
    ok = result.ok and lint.ok

    if args.json:
        payload = {
            "schema_version": 1,
            "ok": ok,
            "protocol": {"spec": spec.to_dict(), **result.to_dict()},
            "lint": lint.to_dict(),
        }
        print(dump_json(payload))
        return 0 if ok else 1

    print(result.summary())
    for violation in result.violations:
        print(f"  VIOLATION [{violation.invariant}] {violation.message}")
        for line in render_schedule(spec, list(violation.schedule)):
            print(f"  {line}")
    print(
        f"lint: {lint.n_files} files, {len(lint.findings)} finding(s), "
        f"{len(lint.errors)} error(s)"
    )
    for finding in lint.findings:
        print(f"  {finding}")
    return 0 if ok else 1


def _cmd_analyze(args) -> int:
    if args.concurrency:
        return _cmd_analyze_concurrency(args)
    from repro.analysis.semantics import (
        dump_json,
        matrix_to_dict,
        micro_corpus,
        prove_restriction,
        run_equivalence_matrix,
    )
    from repro.eval import paper_rule, paper_rules

    rules = [paper_rule(args.rule)] if args.rule else paper_rules()
    corpus = micro_corpus()
    if args.clip:
        corpus = [m for m in corpus if m.clip.name == args.clip]
        if not corpus:
            names = ", ".join(m.clip.name for m in micro_corpus())
            print(f"unknown micro-clip {args.clip!r}; corpus: {names}",
                  file=sys.stderr)
            return 2

    reports = run_equivalence_matrix(
        rules, corpus, solver_sweep=args.solver_sweep
    )
    payload = matrix_to_dict(reports)

    disagreements = []
    if args.restrictions:
        proofs = []
        for micro in corpus:
            for base in rules:
                for other in rules:
                    if base.name == other.name:
                        continue
                    proof = prove_restriction(micro.clip, base, other)
                    proofs.append(proof)
                    if not proof.agrees_with_predicate:
                        disagreements.append(proof)
        payload["restrictions"] = {
            "n_proofs": len(proofs),
            "n_holds": sum(1 for p in proofs if p.holds),
            "n_predicate": sum(1 for p in proofs if p.predicate),
            "n_strengthened": sum(
                1 for p in proofs if p.holds and not p.predicate
            ),
            "disagreements": [p.to_dict() for p in disagreements],
        }

    ok = payload["ok"] and not disagreements
    if args.json:
        print(dump_json(payload))
        return 0 if ok else 1

    for report in reports:
        print(report.summary())
        for finding in sorted(
            report.findings, key=lambda f: f.sort_key()
        ):
            print(f"  {finding}")
    n_findings = sum(len(report.findings) for report in reports)
    print(
        f"checked {len(reports)} (clip, rule) pairs: "
        f"{n_findings} counterexample(s)"
    )
    if args.restrictions:
        summary = payload["restrictions"]
        print(
            f"restriction proofs: {summary['n_holds']}/"
            f"{summary['n_proofs']} hold "
            f"({summary['n_strengthened']} strengthen the predicate, "
            f"{len(disagreements)} disagreement(s))"
        )
        for proof in disagreements:
            print(
                f"  DISAGREES {proof.clip_name}: {proof.base_rule} -> "
                f"{proof.other_rule} (predicate says restriction, "
                f"prover found {len(proof.failures)} unimplied row(s))"
            )
    return 0 if ok else 1


def _cmd_full_flow(args) -> int:
    from repro.cells import generate_library
    from repro.clips import ClipWindowSpec, extract_clips, select_top_clips
    from repro.netlist import synthesize_design
    from repro.place import place_design
    from repro.route import RoutingGrid
    from repro.route.detailed_router import route_design
    from repro.tech import technology_by_name

    tech = technology_by_name(args.tech)
    library = generate_library(tech)
    design = synthesize_design(library, args.profile, args.instances, seed=args.seed)
    placement = place_design(design, utilization=args.utilization, seed=args.seed)
    print(f"placed {design.n_instances} instances at "
          f"{placement.utilization:.1%} utilization")
    grid = RoutingGrid.for_die(tech, design.die, max_metal=args.max_metal)
    routed = route_design(design, grid)
    print(f"routed {len(routed.routes)} nets "
          f"({len(routed.failed_nets)} failures), "
          f"WL={routed.total_wirelength_steps} steps, vias={routed.total_vias}")
    clips = extract_clips(design, grid, routed, ClipWindowSpec())
    top = select_top_clips(clips, k=args.top_k)
    print(f"extracted {len(clips)} clips; top-{args.top_k} pin costs:")
    for clip in top:
        print(f"  {clip.name}: {clip.pin_cost:.1f} ({len(clip.nets)} nets)")
    return 0 if not routed.failed_nets else 1


def _cmd_improve(args) -> int:
    from repro.cells import generate_library
    from repro.improve import improve_routing
    from repro.netlist import synthesize_design
    from repro.place import place_design
    from repro.route import RoutingGrid
    from repro.route.detailed_router import route_design
    from repro.router import OptRouter
    from repro.tech import technology_by_name

    tech = technology_by_name(args.tech)
    library = generate_library(tech)
    design = synthesize_design(library, args.profile, args.instances, seed=args.seed)
    place_design(design, utilization=args.utilization, seed=args.seed)
    grid = RoutingGrid.for_die(tech, design.die, max_metal=args.max_metal)
    routed = route_design(design, grid)
    before = routed.routed_cost()
    report = improve_routing(
        design, grid, routed,
        router=OptRouter(time_limit=args.time_limit),
        max_clips=args.max_clips,
    )
    after = routed.routed_cost()
    print(report.summary())
    print(f"chip routing cost: {before:.0f} -> {after:.0f}")
    return 0


def _cmd_sta(args) -> int:
    from repro.cells import generate_library
    from repro.netlist import synthesize_design
    from repro.place import place_design
    from repro.tech import technology_by_name
    from repro.tech.rc import WireRc, derive_n7_rc
    from repro.timing import analyze_timing, default_timing_library

    tech = technology_by_name(args.tech)
    library = generate_library(tech)
    design = synthesize_design(library, args.profile, args.instances, seed=args.seed)
    place_design(design, utilization=args.utilization, seed=args.seed)
    rc = WireRc(r_per_um=10.0, c_per_um=0.25)
    if tech.name.startswith("N7"):
        rc = derive_n7_rc(rc)
    report = analyze_timing(design, default_timing_library(library), rc)
    print(f"endpoints: {report.n_endpoints}  "
          f"broken loop arcs: {report.broken_loop_arcs}")
    print(f"min feasible period: {report.min_period_ps:.0f} ps")
    print("critical path:")
    for point in report.critical_path:
        print(f"  {point.instance}/{point.pin}  @ {point.arrival_ps:.1f} ps")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BEOL design-rule evaluation with an optimal ILP router "
        "(DAC 2015 reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("rules", help="print the Table 3 rule matrix")

    route = sub.add_parser("route-clip", help="optimally route one clip")
    route.add_argument("--rule", default="RULE1")
    route.add_argument("--seed", type=int, default=0)
    route.add_argument("--nx", type=int, default=7)
    route.add_argument("--ny", type=int, default=10)
    route.add_argument("--nz", type=int, default=4)
    route.add_argument("--nets", type=int, default=3)
    route.add_argument("--sinks", type=int, default=1)
    route.add_argument("--access-points", type=int, default=3)
    route.add_argument("--time-limit", type=float, default=60.0)

    ev = sub.add_parser(
        "evaluate", aliases=["eval"], help="Δcost study on synthetic clips"
    )
    ev.add_argument("--tech", default="N7-9T")
    ev.add_argument("--clips", type=int, default=6)
    ev.add_argument("--nx", type=int, default=6)
    ev.add_argument("--ny", type=int, default=8)
    ev.add_argument("--nz", type=int, default=4)
    ev.add_argument("--nets", type=int, default=4)
    ev.add_argument("--sinks", type=int, default=1)
    ev.add_argument("--access-points", type=int, default=2)
    ev.add_argument("--time-limit", type=float, default=30.0)
    ev.add_argument("--checkpoint", default=None, metavar="PATH",
                    help="journal completed (clip, rule) pairs to a JSONL file")
    ev.add_argument("--resume", action="store_true",
                    help="resume from --checkpoint, skipping finished pairs")
    ev.add_argument("--fallback", default=None, metavar="CHAIN",
                    help="comma-separated backend fallback chain, e.g. "
                         "'highs,bnb,baseline'")
    ev.add_argument("--max-attempts", type=int, default=2,
                    help="attempts per backend before falling back")
    ev.add_argument("--solve-cache", default=None, metavar="DIR",
                    help="persistent content-addressed solve cache; "
                         "repeated sweeps replay identical solves")
    ev.add_argument("--timing", action="store_true",
                    help="also print per-rule phase timing medians "
                         "(build/serialize/solve, warm/cache counts)")
    ev.add_argument("--no-audit", action="store_true",
                    help="skip independent result certification "
                         "(trust the solver's claims unchecked)")
    ev.add_argument("--cross-check", type=float, default=0.0,
                    metavar="FRACTION",
                    help="re-solve this deterministic fraction of pairs "
                         "on the alternate backend and compare claims")
    ev.add_argument("--procs", type=int, default=1,
                    help="distributed sweep worker processes coordinated "
                         "through the --checkpoint journal (leases; any "
                         "worker may die without losing results)")
    ev.add_argument("--time-budget", type=float, default=None,
                    metavar="SECONDS",
                    help="sweep-level wall-clock budget allocated "
                         "hardest-first; once nearly spent, pairs fall "
                         "to the heuristic baseline (LIMIT, degraded)")
    ev.add_argument("--chaos-kill", type=int, default=0, metavar="N",
                    help="chaos scenario: SIGKILL N random workers "
                         "mid-sweep (requires --procs > 1)")
    ev.add_argument("--chaos-seed", type=int, default=0,
                    help="seed for the chaos kill plan")

    cache = sub.add_parser(
        "cache", help="inspect, bound, or clear a persistent solve cache"
    )
    cache.add_argument("action", choices=("stats", "evict", "clear"))
    cache.add_argument("--dir", required=True, metavar="DIR",
                       help="solve-cache directory")
    cache.add_argument("--max-bytes", type=int, default=None,
                       help="evict: LRU-drop oldest entries until live "
                            "entries fit this byte budget")
    cache.add_argument("--older-than", type=float, default=None,
                       metavar="SECONDS",
                       help="evict: drop entries not written for this "
                            "long (quarantined entries are never touched)")

    srv = sub.add_parser(
        "serve",
        help="run the crash-safe sweep service (HTTP experiment API)",
    )
    srv.add_argument("--data-dir", required=True, metavar="DIR",
                     help="service state root: WAL, per-experiment "
                          "journals, shared solve cache")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8080,
                     help="0 picks an ephemeral port (printed on start)")
    srv.add_argument("--concurrency", type=int, default=1,
                     help="experiments run concurrently (threads)")
    srv.add_argument("--procs", type=int, default=1,
                     help="lease-coordinated worker processes inside "
                          "each sweep (the experiment's journal is the "
                          "coordination log)")
    srv.add_argument("--time-limit", type=float, default=20.0,
                     help="default per-clip solver limit for payloads "
                          "that name none")
    srv.add_argument("--solve-cache", default=None, metavar="DIR",
                     help="shared solve-cache tier (default: "
                          "<data-dir>/solve-cache)")
    srv.add_argument("--no-solve-cache", action="store_true",
                     help="disable the shared solve-cache tier")
    srv.add_argument("--max-queue-depth", type=int, default=16,
                     help="pending-experiment bound (429 beyond it)")
    srv.add_argument("--max-pending-per-tenant", type=int, default=8,
                     help="per-tenant share of the queue bound")
    srv.add_argument("--max-body-bytes", type=int, default=8 * 1024 * 1024,
                     help="request-size bound (413 beyond it)")
    srv.add_argument("--drain-grace", type=float, default=30.0,
                     help="seconds to wait for in-flight sweeps to "
                          "checkpoint on SIGTERM")
    srv.add_argument("--chaos-kill-after", type=int, default=0, metavar="N",
                     help="chaos scenario: SIGKILL the server after the "
                          "Nth journaled (clip, rule) pair")

    audit = sub.add_parser(
        "audit", help="integrity scan of sweep artifacts (journal, cache)"
    )
    audit.add_argument("--journal", default=None, metavar="PATH",
                       help="checkpoint journal to validate (corrupt "
                            "records are quarantined to a sidecar)")
    audit.add_argument("--solve-cache", default=None, metavar="DIR",
                       help="solve cache to validate (corrupt entries "
                            "move to its quarantine/ subdirectory)")
    audit.add_argument("--json", action="store_true",
                       help="emit reports as JSON instead of text")

    lint = sub.add_parser(
        "lint", help="pre-solve static analysis of a synthetic clip set"
    )
    lint.add_argument("--tech", default="N7-9T")
    lint.add_argument("--rule", default=None,
                      help="lint one Table 3 rule instead of the tech set")
    lint.add_argument("--clips", type=int, default=4)
    lint.add_argument("--nx", type=int, default=6)
    lint.add_argument("--ny", type=int, default=8)
    lint.add_argument("--nz", type=int, default=4)
    lint.add_argument("--nets", type=int, default=4)
    lint.add_argument("--sinks", type=int, default=1)
    lint.add_argument("--access-points", type=int, default=2)
    lint.add_argument("--json", action="store_true",
                      help="emit findings as JSON instead of text")

    an = sub.add_parser(
        "analyze",
        help="formulation-semantics audit: DRC-equivalence proofs on "
             "the micro-clip corpus",
    )
    an.add_argument("--rule", default=None,
                    help="check one Table 3 rule instead of all eleven")
    an.add_argument("--clip", default=None, metavar="NAME",
                    help="check one micro-clip (e.g. mc-via) instead of "
                         "the whole corpus")
    an.add_argument("--solver-sweep", action="store_true",
                    help="also enumerate every feasible ILP support via "
                         "no-good cuts and DRC-check each decode")
    an.add_argument("--restrictions", action="store_true",
                    help="also prove model-level restriction for every "
                         "ordered rule pair and cross-check the "
                         "is_restriction predicate")
    an.add_argument("--json", action="store_true",
                    help="emit the report as byte-deterministic JSON")
    an.add_argument("--concurrency", action="store_true",
                    help="run the concurrency engines instead: exhaustive "
                         "lease-protocol model check plus the "
                         "determinism/race lint over src/repro")
    an.add_argument("--workers", type=int, default=2,
                    help="model-checker bound: worker processes (1..4)")
    an.add_argument("--groups", type=int, default=2,
                    help="model-checker bound: sweep groups (1..4)")
    an.add_argument("--pairs", type=int, default=2,
                    help="model-checker bound: (clip, rule) pairs per "
                         "group (1..3)")
    an.add_argument("--crashes", type=int, default=2,
                    help="model-checker bound: SIGKILL budget")
    an.add_argument("--seed-bug", default=None,
                    choices=("skip-reread", "early-done",
                             "done-not-terminal", "nondet-results"),
                    help="deliberately break one protocol obligation and "
                         "show the minimal counterexample schedule (sanity "
                         "check that the invariants have teeth)")

    flow = sub.add_parser("full-flow", help="synth→place→route→extract→rank")
    flow.add_argument("--tech", default="N28-12T")
    flow.add_argument("--profile", default="aes", choices=("aes", "m0"))
    flow.add_argument("--instances", type=int, default=150)
    flow.add_argument("--utilization", type=float, default=0.88)
    flow.add_argument("--max-metal", type=int, default=6)
    flow.add_argument("--top-k", type=int, default=5)
    flow.add_argument("--seed", type=int, default=0)

    improve = sub.add_parser(
        "improve", help="OptRouter-based local routing improvement"
    )
    improve.add_argument("--tech", default="N28-8T")
    improve.add_argument("--profile", default="m0", choices=("aes", "m0"))
    improve.add_argument("--instances", type=int, default=180)
    improve.add_argument("--utilization", type=float, default=0.92)
    improve.add_argument("--max-metal", type=int, default=3)
    improve.add_argument("--max-clips", type=int, default=10)
    improve.add_argument("--time-limit", type=float, default=20.0)
    improve.add_argument("--seed", type=int, default=0)

    sta = sub.add_parser("sta", help="static timing analysis of a design")
    sta.add_argument("--tech", default="N28-12T")
    sta.add_argument("--profile", default="aes", choices=("aes", "m0"))
    sta.add_argument("--instances", type=int, default=100)
    sta.add_argument("--utilization", type=float, default=0.85)
    sta.add_argument("--seed", type=int, default=0)

    return parser


_COMMANDS = {
    "rules": _cmd_rules,
    "route-clip": _cmd_route_clip,
    "evaluate": _cmd_evaluate,
    "eval": _cmd_evaluate,
    "cache": _cmd_cache,
    "serve": _cmd_serve,
    "audit": _cmd_audit,
    "lint": _cmd_lint,
    "analyze": _cmd_analyze,
    "full-flow": _cmd_full_flow,
    "improve": _cmd_improve,
    "sta": _cmd_sta,
}


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
