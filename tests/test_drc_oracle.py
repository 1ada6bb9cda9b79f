"""Adversarial fixtures for the DRC checker as an independent oracle.

``check_clip_routing`` is the oracle behind every sweep result's audit
and every reused warm-start routing, so its authority rests on each
violation class demonstrably firing.  Every test here starts from a
genuinely optimal, DRC-clean OptRouter solution and corrupts it in
exactly the way one check guards against, asserting that check — not a
bystander — reports it.
"""

import copy

from repro.clips import Clip, ClipNet, ClipPin
from repro.clips.clip import paper_directions
from repro.drc import check_clip_routing
from repro.eval import paper_rule
from repro.router import OptRouter, RouteStatus, RuleConfig


def oracle_clip():
    return Clip(
        name="oracle", nx=5, ny=5, nz=3,
        horizontal=paper_directions(3),  # slots: vertical, horizontal, vertical
        nets=(
            ClipNet("a", (
                ClipPin(access=frozenset({(1, 0, 0)})),
                ClipPin(access=frozenset({(1, 3, 0)})),
            )),
            ClipNet("b", (
                ClipPin(access=frozenset({(3, 0, 0)})),
                ClipPin(access=frozenset({(3, 3, 0)})),
            )),
        ),
    )


def routed(rules):
    clip = oracle_clip()
    result = OptRouter(time_limit=60.0).route(clip, rules)
    assert result.status is RouteStatus.OPTIMAL
    assert check_clip_routing(clip, rules, result.routing) == []
    return clip, result.routing


def kinds(clip, rules, routing):
    return {v.kind for v in check_clip_routing(clip, rules, routing)}


class TestShortOracle:
    def test_injected_overlap_fires_short(self):
        rules = RuleConfig()
        clip, clean = routed(rules)
        broken = copy.deepcopy(clean)
        # Graft one of net b's edges onto net a: both now conduct on
        # the same vertices.
        stolen = broken.nets[1].wire_edges[0]
        broken.nets[0].wire_edges.append(stolen)
        assert "short" in kinds(clip, rules, broken)
        assert "short" not in kinds(clip, rules, clean)


class TestDirectionOracle:
    def test_wrong_way_edge_fires_direction(self):
        rules = RuleConfig()
        clip, clean = routed(rules)
        broken = copy.deepcopy(clean)
        # Slot 0 is vertical; an x-move there is against the layer.
        broken.nets[0].wire_edges.append(((0, 4, 0), (1, 4, 0)))
        assert "direction" in kinds(clip, rules, broken)
        assert "direction" not in kinds(clip, rules, clean)

    def test_layer_spanning_edge_fires_direction(self):
        rules = RuleConfig()
        clip, clean = routed(rules)
        broken = copy.deepcopy(clean)
        broken.nets[0].wire_edges.append(((0, 4, 0), (0, 4, 1)))
        assert "direction" in kinds(clip, rules, broken)


class TestViaAdjacencyOracle:
    def test_adjacent_vias_fire_under_rule7(self):
        rules = paper_rule("RULE7")  # orthogonal neighbors blocked
        clip, clean = routed(rules)
        broken = copy.deepcopy(clean)
        broken.nets[0].vias.extend([(0, 4, 0), (1, 4, 0)])
        assert "via_adjacency" in kinds(clip, rules, broken)
        assert "via_adjacency" not in kinds(clip, rules, clean)

    def test_adjacent_vias_legal_without_restriction(self):
        rules = RuleConfig()  # no via restriction
        clip, clean = routed(rules)
        broken = copy.deepcopy(clean)
        broken.nets[0].vias.extend([(0, 4, 0), (1, 4, 0)])
        assert "via_adjacency" not in kinds(clip, rules, broken)


class TestSadpOracle:
    def test_facing_eols_fire_sadp(self):
        rules = RuleConfig(name="SADP-M3", sadp_min_metal=3)
        clip, clean = routed(rules)
        broken = copy.deepcopy(clean)
        # Slot 1 is horizontal metal 3 (SADP applies).  Two stubs on
        # the same track whose tips face each other across a one-site
        # gap: forbidden opposite-polarity pattern (Figure 5(b)).
        broken.nets[0].wire_edges.append(((3, 4, 1), (4, 4, 1)))
        broken.nets[1].wire_edges.append(((1, 4, 1), (2, 4, 1)))
        assert "sadp_eol" in kinds(clip, rules, broken)
        assert "sadp_eol" not in kinds(clip, rules, clean)

    def test_same_stubs_legal_below_sadp_floor(self):
        # Identical geometry, but SADP only from metal 4 up: slot 1 is
        # metal 3, so the facing tips are legal there.
        rules = RuleConfig(name="SADP-M4", sadp_min_metal=4)
        clip, clean = routed(rules)
        broken = copy.deepcopy(clean)
        broken.nets[0].wire_edges.append(((3, 4, 1), (4, 4, 1)))
        broken.nets[1].wire_edges.append(((1, 4, 1), (2, 4, 1)))
        assert "sadp_eol" not in kinds(clip, rules, broken)
