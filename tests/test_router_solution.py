"""Unit tests for ILP solution decoding."""

import pytest

from repro.clips import Clip, ClipNet, ClipPin
from repro.clips.clip import paper_directions
from repro.ilp import solve_with_highs
from repro.router import OptRouter, RuleConfig, build_routing_ilp, decode_solution
from repro.router.solution import NetSolution


def pin(*vertices):
    return ClipPin(access=frozenset(vertices))


def simple_clip():
    return Clip(
        name="dec", nx=5, ny=5, nz=3,
        horizontal=paper_directions(3),
        nets=(
            ClipNet("a", (pin((2, 0, 0)), pin((2, 3, 0)))),
        ),
    )


class TestDecode:
    def test_decodes_expected_edges(self):
        ilp = build_routing_ilp(simple_clip(), RuleConfig())
        routing = decode_solution(ilp, solve_with_highs(ilp.csr))
        (net,) = routing.nets
        assert net.net_name == "a"
        assert net.wirelength == 3
        assert net.n_vias == 0
        edges = {frozenset((a, b)) for a, b in net.wire_edges}
        assert edges == {
            frozenset(((2, 0, 0), (2, 1, 0))),
            frozenset(((2, 1, 0), (2, 2, 0))),
            frozenset(((2, 2, 0), (2, 3, 0))),
        }

    def test_cost_matches_components(self):
        clip = simple_clip()
        result = OptRouter().route(clip)
        assert result.cost == pytest.approx(
            result.wirelength * 1.0 + result.n_vias * 4.0
        )

    def test_virtual_arcs_not_decoded(self):
        ilp = build_routing_ilp(simple_clip(), RuleConfig())
        routing = decode_solution(ilp, solve_with_highs(ilp.csr))
        for net in routing.nets:
            for a, b in net.wire_edges:
                assert len(a) == 3 and len(b) == 3  # grid vertices only

    def test_via_records_lower_layer(self):
        clip = Clip(
            name="v", nx=5, ny=5, nz=2,
            horizontal=paper_directions(2),
            nets=(ClipNet("a", (pin((1, 2, 0)), pin((3, 2, 0)))),),
        )
        result = OptRouter().route(clip)
        (net,) = result.routing.nets
        assert net.n_vias == 2
        for x, y, z in net.vias:
            assert z == 0  # only one cut layer exists

    def test_used_vertices_cover_both_via_layers(self):
        clip = Clip(
            name="v2", nx=5, ny=5, nz=2,
            horizontal=paper_directions(2),
            nets=(ClipNet("a", (pin((1, 2, 0)), pin((3, 2, 0)))),),
        )
        result = OptRouter().route(clip)
        (net,) = result.routing.nets
        used = net.used_vertices()
        for x, y, z in net.vias:
            assert (x, y, z) in used
            assert (x, y, z + 1) in used


class TestNetSolutionHelpers:
    def test_empty_solution(self):
        net = NetSolution(net_name="empty")
        assert net.wirelength == 0
        assert net.n_vias == 0
        assert net.used_vertices() == set()
