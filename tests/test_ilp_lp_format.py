"""Tests for LP-format export."""

import pytest

from repro.ilp import LinExpr, Model
from repro.ilp.lp_format import write_lp


def sample_model():
    m = Model("sample")
    x = m.binary("x")
    y = m.binary("y")
    z = m.integer("z", 0, 7)
    w = m.var("w", -2.0, 3.5)
    m.add(2 * x + 3 * y - z <= 4, name="cap")
    m.add(LinExpr({x.index: 1.0, w.index: 1.0}) == 1)
    m.minimize(x + 2 * y + 0.5 * z - w)
    return m


class TestWriteLp:
    def test_sections_present(self):
        text = write_lp(sample_model())
        for section in ("Minimize", "Subject To", "Bounds", "Binaries",
                        "Generals", "End"):
            assert section in text

    def test_named_constraint(self):
        assert "cap:" in write_lp(sample_model())

    def test_constraint_operators(self):
        text = write_lp(sample_model())
        assert "<= 4" in text
        assert "= 1" in text

    def test_binary_listing(self):
        text = write_lp(sample_model())
        binaries_line = text.split("Binaries")[1].splitlines()[1]
        assert "x" in binaries_line and "y" in binaries_line
        assert "z" not in binaries_line

    def test_bounds_for_general_and_continuous(self):
        text = write_lp(sample_model())
        assert "0 <= z <= 7" in text
        assert "-2 <= w <= 3.5" in text

    def test_routing_model_exports(self):
        from repro.clips import SyntheticClipSpec, make_synthetic_clip
        from repro.router import OptRouter, RuleConfig

        clip = make_synthetic_clip(
            SyntheticClipSpec(nx=4, ny=5, nz=2, n_nets=1, sinks_per_net=1),
            seed=0,
        )
        ilp = OptRouter().build(clip, RuleConfig())
        text = write_lp(ilp.model)
        assert text.startswith("\\ Problem: optroute_")
        assert text.rstrip().endswith("End")
        # One constraint line per model constraint.
        body = text.split("Subject To")[1].split("Bounds")[0]
        n_lines = sum(1 for line in body.splitlines() if ":" in line)
        assert n_lines == ilp.model.n_constraints

    def test_objective_coefficients(self):
        text = write_lp(sample_model())
        objective = text.split("Subject To")[0]
        assert "2 y" in objective
        assert "0.5 z" in objective
        assert "- w" in objective


class TestDeterminism:
    def test_two_builds_serialize_identically(self):
        """Byte-deterministic export: LP dumps must be diffable
        across runs."""
        from repro.clips import SyntheticClipSpec, make_synthetic_clip
        from repro.eval import paper_rule
        from repro.router import OptRouter

        spec = SyntheticClipSpec(
            nx=4, ny=5, nz=4, n_nets=3, sinks_per_net=1,
            access_points_per_pin=2,
        )
        for rule in ("RULE1", "RULE7", "RULE11"):
            rules = paper_rule(rule)
            first = write_lp(
                OptRouter().build(make_synthetic_clip(spec, seed=5), rules).model
            )
            second = write_lp(
                OptRouter().build(make_synthetic_clip(spec, seed=5), rules).model
            )
            assert first == second

    def test_emission_order_is_sorted(self):
        # Insertion order must not leak: permuting constraint insertion
        # yields the same bytes (same names, same rows).
        m1 = Model("p")
        x = m1.binary("x")
        y = m1.binary("y")
        m1.add(x + y <= 1, name="a")
        m1.add(x - y >= 0, name="b")
        m1.minimize(x + y)

        m2 = Model("p")
        x = m2.binary("x")
        y = m2.binary("y")
        m2.add(x - y >= 0, name="b")
        m2.add(x + y <= 1, name="a")
        m2.minimize(x + y)
        assert write_lp(m1) == write_lp(m2)
