"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rules_command(self, capsys):
        assert main(["rules"]) == 0
        out = capsys.readouterr().out
        assert "RULE1" in out and "RULE11" in out

    def test_route_clip_small(self, capsys):
        code = main([
            "route-clip", "--nx", "5", "--ny", "6", "--nz", "3",
            "--nets", "2", "--seed", "4",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "status=" in out
        assert "DRC violations: 0" in out

    def test_route_clip_with_rule(self, capsys):
        code = main([
            "route-clip", "--nx", "5", "--ny", "6", "--nz", "3",
            "--nets", "2", "--rule", "RULE6", "--seed", "4",
        ])
        assert code == 0
        assert "4 neighbors blocked" in capsys.readouterr().out

    def test_evaluate_small(self, capsys):
        code = main([
            "evaluate", "--tech", "N7-9T", "--clips", "2",
            "--nx", "5", "--ny", "6", "--nz", "3", "--nets", "2",
            "--time-limit", "20",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "RULE8" in out

    def test_lint_text(self, capsys):
        code = main([
            "lint", "--clips", "2", "--nx", "5", "--ny", "6", "--nz", "3",
            "--nets", "2", "--rule", "RULE6",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "RULE6" in out
        assert "error(s)" in out and "linted" in out

    def test_lint_json(self, capsys):
        import json

        code = main([
            "lint", "--clips", "1", "--nx", "5", "--ny", "6", "--nz", "3",
            "--nets", "2", "--rule", "RULE1", "--json",
        ])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        reports = payload["reports"]
        assert reports[0]["rule"] == "RULE1"
        assert "findings" in reports[0]["lint"]
        assert "stats" in reports[0]["lint"]

    def test_analyze_concurrency_clean_and_seeded(self, capsys):
        import json

        code = main([
            "analyze", "--concurrency",
            "--workers", "1", "--groups", "1", "--json",
        ])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"]
        assert payload["protocol"]["exhausted"]
        assert payload["lint"]["n_errors"] == 0
        # A seeded bug must flip the exit code and carry a schedule.
        code = main([
            "analyze", "--concurrency", "--seed-bug", "skip-reread",
            "--workers", "2", "--groups", "1", "--json",
        ])
        out = capsys.readouterr().out
        assert code == 1
        payload = json.loads(out)
        violations = payload["protocol"]["violations"]
        assert any(v["invariant"] == "mutual_exclusion" for v in violations)

    def test_full_flow_small(self, capsys):
        code = main([
            "full-flow", "--instances", "40", "--utilization", "0.8",
            "--max-metal", "5", "--top-k", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "pin costs" in out

    def test_unknown_rule_errors(self):
        with pytest.raises(KeyError):
            main(["route-clip", "--rule", "RULE99", "--nx", "4", "--ny",
                  "5", "--nz", "2", "--nets", "1"])


class TestEvalResume:
    _ARGS = [
        "--tech", "N7-9T", "--clips", "2",
        "--nx", "5", "--ny", "6", "--nz", "3", "--nets", "2",
        "--time-limit", "20",
    ]

    def test_eval_alias_with_checkpoint_then_resume(self, capsys, tmp_path):
        ckpt = str(tmp_path / "sweep.jsonl")
        code = main(["eval", *self._ARGS, "--checkpoint", ckpt])
        first = capsys.readouterr().out
        assert code == 0
        assert "RULE8" in first

        # Resume over a finished journal: no pair re-solves, identical table.
        code = main(["eval", *self._ARGS, "--checkpoint", ckpt, "--resume"])
        second = capsys.readouterr().out
        assert code == 0
        assert second == first

    def test_resume_requires_checkpoint(self, capsys):
        code = main(["eval", *self._ARGS, "--resume"])
        assert code == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_fallback_chain_accepted(self, capsys):
        code = main([
            "evaluate", *self._ARGS,
            "--fallback", "highs,bnb,baseline", "--max-attempts", "1",
        ])
        assert code == 0
        assert "RULE1" in capsys.readouterr().out


class TestColumnarCli:
    def test_lint_accepts_csr_models(self):
        # `repro lint` runs on CSR-built ILPs; lint_model also takes
        # the columnar form directly and agrees with the object form.
        from repro.analysis.model_lint import lint_model
        from repro.clips import SyntheticClipSpec, make_synthetic_clip
        from repro.eval import paper_rule
        from repro.router import OptRouter

        spec = SyntheticClipSpec(
            nx=4, ny=4, nz=3, n_nets=2, sinks_per_net=1,
            access_points_per_pin=2,
        )
        clip = make_synthetic_clip(spec, seed=0)
        ilp = OptRouter().build(clip, paper_rule("RULE7"))
        direct = lint_model(ilp.csr)
        via_object = lint_model(ilp.model)
        assert direct.model_name == via_object.model_name
        assert direct.stats == via_object.stats
        assert [f.code for f in direct.findings] == [
            f.code for f in via_object.findings
        ]
        assert ilp.csr.validate().stats == direct.stats

    def test_lint_smoke_on_csr_path(self, capsys):
        # End-to-end CLI smoke over the columnar build path.
        code = main([
            "lint", "--clips", "1", "--nx", "4", "--ny", "4", "--nz", "3",
            "--nets", "2", "--rule", "RULE7",
        ])
        assert code == 0
        assert "linted" in capsys.readouterr().out

    def test_evaluate_timing_includes_serialize(self, capsys):
        code = main([
            "evaluate", "--tech", "N7-9T", "--clips", "1",
            "--nx", "4", "--ny", "4", "--nz", "3", "--nets", "2",
            "--time-limit", "20", "--timing",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "serialize_s" in out and "build_s" in out
        assert "solve_s" in out
