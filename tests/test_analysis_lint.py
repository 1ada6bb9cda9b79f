"""Tests for the pre-solve model linter."""

import json

from repro.analysis import Severity, lint_model, lint_routing_ilp
from repro.clips import Clip, ClipNet, ClipPin, SyntheticClipSpec, make_synthetic_clip
from repro.clips.clip import paper_directions
from repro.ilp import CooBuilder, LinExpr
from repro.router import OptRouter, RuleConfig


def codes(report, severity=None):
    return {
        f.code
        for f in report.findings
        if severity is None or f.severity is severity
    }


class TestRowChecks:
    def test_constant_infeasible_row(self):
        m = CooBuilder()
        x = m.binary("x")
        m.le(x - x + 3, 0)
        report = lint_model(m.freeze("m"))
        assert "constant-infeasible-row" in codes(report, Severity.ERROR)
        assert report.has_errors

    def test_constant_trivial_row_warns(self):
        m = CooBuilder()
        x = m.binary("x")
        m.le(x - x, 1)  # -1 <= 0, always true
        m.minimize(x)
        report = lint_model(m.freeze("m"))
        assert "constant-row" in codes(report, Severity.WARN)
        assert not report.has_errors

    def test_bound_infeasible_le(self):
        m = CooBuilder()
        x = m.binary("x")
        y = m.binary("y")
        m.ge(x + y, 3)  # max activity 2
        m.minimize(x + y)
        report = lint_model(m.freeze("m"))
        assert "bound-infeasible-row" in codes(report, Severity.ERROR)

    def test_bound_infeasible_eq(self):
        m = CooBuilder()
        x = m.var("x", 0.0, 2.0)
        m.eq(LinExpr({x.index: 1.0}), 5)
        m.minimize(x)
        report = lint_model(m.freeze("m"))
        assert "bound-infeasible-row" in codes(report, Severity.ERROR)

    def test_satisfiable_rows_clean(self):
        m = CooBuilder()
        x, y = m.binary("x"), m.binary("y")
        m.le(x + y, 1)
        m.ge(x + y, 1)
        m.minimize(x + 2 * y)
        assert lint_model(m.freeze("m")).findings == []


class TestVariableChecks:
    def test_unused_variable(self):
        m = CooBuilder()
        x = m.binary("x")
        m.binary("dead")
        m.le(x, 1)
        m.minimize(x)
        report = lint_model(m.freeze("m"))
        unused = [f for f in report.findings if f.code == "unused-variable"]
        assert [f.context["var"] for f in unused] == ["dead"]

    def test_objective_only_variable_is_used(self):
        m = CooBuilder()
        x = m.binary("x")
        m.minimize(x)
        assert codes(lint_model(m.freeze("m"))) == set()

    def test_fixed_variable(self):
        m = CooBuilder()
        x = m.var("x", 2.0, 2.0)
        m.le(x, 5)
        m.minimize(x)
        report = lint_model(m.freeze("m"))
        assert "fixed-variable" in codes(report, Severity.WARN)

    def test_empty_integer_domain(self):
        m = CooBuilder()
        x = m.var("x", 0.4, 0.6, integer=True)
        m.le(x, 1)
        m.minimize(x)
        report = lint_model(m.freeze("m"))
        assert "empty-integer-domain" in codes(report, Severity.ERROR)


class TestDuplicateChecks:
    def test_duplicate_row(self):
        m = CooBuilder()
        x, y = m.binary("x"), m.binary("y")
        m.le(x + y, 1)
        m.le(x + y, 1)
        m.minimize(x + y)
        report = lint_model(m.freeze("m"))
        assert report.count("duplicate-row") == 1

    def test_dominated_row(self):
        m = CooBuilder()
        x, y = m.binary("x"), m.binary("y")
        m.le(x + y, 1)
        m.le(x + y, 2)  # implied by the first
        m.minimize(x + y)
        report = lint_model(m.freeze("m"))
        dominated = [f for f in report.findings if f.code == "dominated-row"]
        assert len(dominated) == 1
        assert dominated[0].context["row"] == 1

    def test_opposite_senses_not_flagged(self):
        m = CooBuilder()
        x, y = m.binary("x"), m.binary("y")
        m.le(x + y, 1)
        m.ge(x + y, 1)
        m.minimize(x + y)
        report = lint_model(m.freeze("m"))
        assert report.count("duplicate-row") == 0
        assert report.count("dominated-row") == 0

    def test_finding_cap_keeps_stats_exact(self):
        from repro.analysis.model_lint import MAX_FINDINGS_PER_CODE

        m = CooBuilder()
        x, y = m.binary("x"), m.binary("y")
        n_rows = MAX_FINDINGS_PER_CODE + 10
        for _ in range(n_rows):
            m.le(x + y, 1)
        m.minimize(x + y)
        report = lint_model(m.freeze("m"))
        assert report.count("duplicate-row") == MAX_FINDINGS_PER_CODE
        assert report.stats["n_duplicate_row"] == n_rows - 1


#: The full report of :func:`eight_code_model`, byte for byte, as the
#: linter rendered it when it still walked an object model.
EIGHT_CODE_REPORT = (
    '{"model": "eight-codes", "findings": ['
    '{"code": "bound-infeasible-row", "severity": "error", '
    '"message": "reach: activity range [-2, -1] cannot satisfy >= 0", '
    '"context": {"row": 2, "lo": -2.0, "hi": -1.0, "sense": ">="}}, '
    '{"code": "constant-infeasible-row", "severity": "error", '
    '"message": "impossible: constant-only constraint 3 <= 0 cannot hold", '
    '"context": {"row": 0, "const": 3.0, "sense": "<="}}, '
    '{"code": "empty-integer-domain", "severity": "error", '
    '"message": "integer variable z: no integer point in [0.2, 0.8]", '
    '"context": {"var": "z"}}, '
    '{"code": "constant-row", "severity": "warn", '
    '"message": "row 1: constraint has no variables", '
    '"context": {"row": 1}}, '
    '{"code": "dominated-row", "severity": "warn", '
    '"message": "row 5 (rhs 2) is implied by row 3 (rhs 1)", '
    '"context": {"row": 5, "dominated_by": 3}}, '
    '{"code": "duplicate-row", "severity": "warn", '
    '"message": "row 4 duplicates row 3", '
    '"context": {"row": 4, "duplicate_of": 3}}, '
    '{"code": "fixed-variable", "severity": "warn", '
    '"message": "variable w is fixed to 1", "context": {"var": "w"}}, '
    '{"code": "unused-variable", "severity": "warn", '
    '"message": "variable u appears in no constraint and has zero '
    'objective coefficient", "context": {"var": "u"}}], '
    '"stats": {"n_vars": 5, "n_integer_vars": 3, "n_constraints": 7, '
    '"n_nonzeros": 10, "n_bound_infeasible_row": 1, '
    '"n_constant_infeasible_row": 1, "n_constant_row": 1, '
    '"n_dominated_row": 1, "n_duplicate_row": 1, '
    '"n_empty_integer_domain": 1, "n_fixed_variable": 1, '
    '"n_unused_variable": 1}}'
)


def eight_code_model():
    """One model that trips all eight model-level lint codes."""
    m = CooBuilder()
    x = m.binary("x")
    y = m.binary("y")
    z = m.integer_var("z", lb=0.2, ub=0.8)  # empty-integer-domain
    w = m.var("w", lb=1.0, ub=1.0)  # fixed-variable
    m.var("u", lb=0.0, ub=5.0)  # unused-variable
    m.le(LinExpr(const=3.0), name="impossible")  # constant-infeasible-row
    m.le(LinExpr(const=-1.0))  # constant-row
    m.ge(x, 2, name="reach")  # bound-infeasible-row
    m.le(x + y, 1, name="cap")
    m.le(x + y, 1)  # duplicate-row
    m.le(2 * x + 2 * y, 4)  # dominated-row (scaled copy, looser rhs)
    m.eq(z + w - y, 1)
    m.minimize(x + 2 * y)
    return m.freeze("eight-codes")


class TestReportPin:
    def test_full_report_is_pinned(self):
        report = lint_model(eight_code_model())
        # Emission order, before to_dict's severity/code sort.
        assert [f.code for f in report.findings] == [
            "constant-infeasible-row",
            "constant-row",
            "bound-infeasible-row",
            "empty-integer-domain",
            "fixed-variable",
            "unused-variable",
            "duplicate-row",
            "dominated-row",
        ]
        assert json.dumps(report.to_dict()) == EIGHT_CODE_REPORT


def manual_clip(nets, nx=5, ny=5, nz=3, obstacles=frozenset()):
    return Clip(
        name="manual", nx=nx, ny=ny, nz=nz,
        horizontal=paper_directions(nz), nets=tuple(nets),
        obstacles=frozenset(obstacles),
    )


def net(name, *pin_vertex_sets):
    pins = tuple(ClipPin(access=frozenset(vs)) for vs in pin_vertex_sets)
    return ClipNet(name, pins)


class TestRoutingIlpLint:
    def test_healthy_routing_ilp_is_clean(self):
        clip = make_synthetic_clip(
            SyntheticClipSpec(nx=5, ny=6, nz=3, n_nets=2, sinks_per_net=1),
            seed=1,
        )
        report = lint_routing_ilp(OptRouter().build(clip, RuleConfig()))
        assert not report.has_errors
        assert report.stats["n_vars"] > 0

    def test_empty_commodity(self):
        # A 3x1 single-layer clip whose vertical layer has no wire
        # arcs at all: the net has no usable physical arcs.
        clip = manual_clip(
            [net("a", [(0, 0, 0)], [(2, 0, 0)])], nx=3, ny=1, nz=1,
        )
        report = lint_routing_ilp(OptRouter().build(clip, RuleConfig()))
        assert "empty-commodity" in codes(report, Severity.ERROR)
        assert report.stats["n_empty_commodity"] == 1

    def test_disconnected_pin_group(self):
        # Obstacles sever every arc at the sink's only access vertex,
        # while the rest of the graph keeps plenty of arcs.
        clip = manual_clip(
            [net("a", [(0, 0, 0)], [(1, 1, 0)])],
            nx=2, ny=3, nz=1,
            obstacles={(1, 0, 0), (1, 2, 0)},
        )
        report = lint_routing_ilp(OptRouter().build(clip, RuleConfig()))
        assert "disconnected-pin-group" in codes(report, Severity.ERROR)

    def test_coincident_source_sink_not_flagged(self):
        # Degenerate but feasible: the sink shares the source's metal,
        # so the commodity needs no physical arcs.
        clip = manual_clip(
            [net("a", [(0, 0, 0)], [(0, 0, 0)])], nx=1, ny=1, nz=1,
        )
        report = lint_routing_ilp(OptRouter().build(clip, RuleConfig()))
        assert not report.has_errors

    def test_lint_errors_match_solver(self):
        # Every ERROR-level routing finding must be a real
        # infeasibility: cross-check with the exact solver.
        clip = manual_clip(
            [net("a", [(0, 0, 0)], [(1, 1, 0)])],
            nx=2, ny=3, nz=1,
            obstacles={(1, 0, 0), (1, 2, 0)},
        )
        router = OptRouter(certify=False)
        report = lint_routing_ilp(router.build(clip, RuleConfig()))
        assert report.has_errors
        assert not router.route(clip, RuleConfig()).feasible
