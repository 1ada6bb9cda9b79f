"""Unit tests of the ILP formulation internals."""

import pytest

from repro.clips import Clip, ClipNet, ClipPin
from repro.clips.clip import paper_directions
from repro.ilp import SolveStatus, solve_with_highs
from repro.router import RuleConfig, ViaRestriction, build_routing_ilp


def pin(*vertices):
    return ClipPin(access=frozenset(vertices))


def make_clip(nets, nx=5, ny=5, nz=3, obstacles=frozenset()):
    return Clip(
        name="f", nx=nx, ny=ny, nz=nz,
        horizontal=paper_directions(nz), nets=tuple(nets),
        obstacles=frozenset(obstacles),
    )


def two_pin_clip():
    return make_clip([ClipNet("a", (pin((1, 1, 0)), pin((1, 3, 0))))])


def three_pin_clip():
    return make_clip(
        [ClipNet("a", (pin((2, 2, 0)), pin((2, 0, 0)), pin((2, 4, 0))))]
    )


class TestVariableStructure:
    def test_two_pin_nets_share_e_and_f(self):
        ilp = build_routing_ilp(two_pin_clip(), RuleConfig())
        nv = ilp.nets[0]
        assert nv.n_sinks == 1
        for arc_index, e in nv.e.items():
            assert nv.f[arc_index] is e  # aliased, no separate column

    def test_multi_pin_nets_get_separate_f(self):
        ilp = build_routing_ilp(three_pin_clip(), RuleConfig())
        nv = ilp.nets[0]
        assert nv.n_sinks == 2
        separate = sum(
            1 for arc_index, e in nv.e.items() if nv.f[arc_index] is not e
        )
        assert separate == len(nv.e)

    def test_virtual_structure(self):
        ilp = build_routing_ilp(three_pin_clip(), RuleConfig())
        nv = ilp.nets[0]
        assert len(nv.supersinks) == 2
        # source pin: 1 access; sinks: 1 access each -> 3 virtual arcs.
        assert len(nv.virtual_arcs) == 3

    def test_foreign_pin_vertices_pruned(self):
        clip = make_clip(
            [
                ClipNet("a", (pin((1, 0, 0)), pin((1, 4, 0)))),
                ClipNet("b", (pin((3, 2, 0)), pin((3, 4, 0)))),
            ]
        )
        ilp = build_routing_ilp(clip, RuleConfig())
        graph = ilp.graph
        a_vars = ilp.nets[0]
        foreign = graph.vid(3, 2, 0)
        for arc_index in a_vars.e:
            arc = graph.arcs[arc_index]
            assert foreign not in (arc.tail, arc.head)

    def test_obstacle_vertices_pruned_for_all(self):
        clip = make_clip(
            [ClipNet("a", (pin((1, 0, 0)), pin((1, 4, 0))))],
            obstacles={(2, 2, 0)},
        )
        ilp = build_routing_ilp(clip, RuleConfig())
        blocked_vid = ilp.graph.vid(2, 2, 0)
        for nv in ilp.nets:
            for arc_index in nv.e:
                arc = ilp.graph.arcs[arc_index]
                assert blocked_vid not in (arc.tail, arc.head)


class TestConstraintStructure:
    def test_sadp_adds_p_vars_only_on_sadp_layers(self):
        clip = two_pin_clip()
        ilp = build_routing_ilp(clip, RuleConfig(sadp_min_metal=3))
        nv = ilp.nets[0]
        slots = {
            ilp.graph.vertex_xyz(vid)[2]
            for vid in list(nv.p_pos) + list(nv.p_neg)
        }
        # slot 0 = M2 (not SADP), slots 1,2 = M3,M4 (SADP).
        assert slots and 0 not in slots

    def test_no_sadp_no_p_vars(self):
        ilp = build_routing_ilp(two_pin_clip(), RuleConfig())
        nv = ilp.nets[0]
        assert not nv.p_pos and not nv.p_neg

    def test_via_restriction_scales_constraints(self):
        clip = two_pin_clip()
        n_none = build_routing_ilp(clip, RuleConfig()).csr.n_rows
        n_4 = build_routing_ilp(
            clip, RuleConfig(via_restriction=ViaRestriction.ORTHOGONAL)
        ).csr.n_rows
        n_8 = build_routing_ilp(
            clip, RuleConfig(via_restriction=ViaRestriction.FULL)
        ).csr.n_rows
        assert n_none < n_4 < n_8


class TestFlowSemantics:
    def test_source_emits_sink_count_units(self):
        ilp = build_routing_ilp(three_pin_clip(), RuleConfig())
        solution = solve_with_highs(ilp.csr)
        assert solution.status is SolveStatus.OPTIMAL
        nv = ilp.nets[0]
        out_from_source = sum(
            solution.values[nv.f[a].index]
            for a in nv.virtual_arcs
            if ilp.graph.arcs[a].tail == nv.supersource
        )
        assert out_from_source == pytest.approx(2.0)

    def test_each_sink_absorbs_one_unit(self):
        ilp = build_routing_ilp(three_pin_clip(), RuleConfig())
        solution = solve_with_highs(ilp.csr)
        nv = ilp.nets[0]
        for sink in nv.supersinks:
            inflow = sum(
                solution.values[nv.f[a].index]
                for a in nv.virtual_arcs
                if ilp.graph.arcs[a].head == sink
            )
            assert inflow == pytest.approx(1.0)

    def test_objective_counts_only_physical_arcs(self):
        ilp = build_routing_ilp(two_pin_clip(), RuleConfig())
        virtual_indices = {
            ilp.nets[0].e[a].index for a in ilp.nets[0].virtual_arcs
        }
        for index in virtual_indices:
            assert ilp.csr.obj[index] == 0.0
