"""Decoding of ILP solutions into routed-clip form."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.clips.clip import Vertex
from repro.ilp.status import Solution
from repro.router.formulation import RoutingIlp
from repro.router.graph import ArcKind


@dataclass
class ShapeViaUse:
    """One placed via shape: its footprint and entry/exit vertices."""

    lower_slot: int
    shape_name: str
    lower_members: tuple[Vertex, ...]
    upper_members: tuple[Vertex, ...]


@dataclass
class NetSolution:
    """Decoded routing of one net.

    ``wire_edges`` are unordered grid-vertex pairs on one layer;
    ``vias`` are single-via placements ``(x, y, lower_slot)``.
    """

    net_name: str
    wire_edges: list[tuple[Vertex, Vertex]] = field(default_factory=list)
    vias: list[tuple[int, int, int]] = field(default_factory=list)
    shape_vias: list[ShapeViaUse] = field(default_factory=list)

    @property
    def wirelength(self) -> int:
        return len(self.wire_edges)

    @property
    def n_vias(self) -> int:
        return len(self.vias) + len(self.shape_vias)

    def used_vertices(self) -> set[Vertex]:
        used: set[Vertex] = set()
        for a, b in self.wire_edges:
            used.add(a)
            used.add(b)
        for x, y, z in self.vias:
            used.add((x, y, z))
            used.add((x, y, z + 1))
        for use in self.shape_vias:
            used.update(use.lower_members)
            used.update(use.upper_members)
        return used


@dataclass
class ClipRouting:
    """Decoded solution for a whole clip.

    ``point`` is the solution it was decoded from, as the nonzero
    values of the core columns (the e/f columns every rule's model on
    one base formulation shares, by column index); empty for a routing
    that was not decoded from a model.  A solve of another rule on the
    same base starts from it (:class:`~repro.router.optrouter.WarmStart`).
    """

    nets: list[NetSolution]
    cost: float
    point: dict[int, float] = field(default_factory=dict, compare=False, repr=False)

    @property
    def total_wirelength(self) -> int:
        return sum(net.wirelength for net in self.nets)

    @property
    def total_vias(self) -> int:
        return sum(net.n_vias for net in self.nets)

    def to_dict(self) -> dict:
        """JSON form (the solve cache's pair index stores it): per-net
        wires, vias and shape vias, the cost, and the point as
        ``[column, value]`` pairs."""
        return {
            "nets": [
                {
                    "name": net.net_name,
                    "wires": [[list(a), list(b)] for a, b in net.wire_edges],
                    "vias": [list(via) for via in net.vias],
                    "shape_vias": [
                        {
                            "lower_slot": use.lower_slot,
                            "shape": use.shape_name,
                            "lower": [list(v) for v in use.lower_members],
                            "upper": [list(v) for v in use.upper_members],
                        }
                        for use in net.shape_vias
                    ],
                }
                for net in self.nets
            ],
            "cost": self.cost,
            "point": [[column, value] for column, value in self.point.items()],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ClipRouting":
        """Rebuild a routing from :meth:`to_dict`'s form; a malformed
        one raises KeyError, TypeError or ValueError."""
        nets = [
            NetSolution(
                net_name=_typed(net["name"], str),
                wire_edges=[(_vertex(a), _vertex(b)) for a, b in net["wires"]],
                vias=[_vertex(via) for via in net["vias"]],
                shape_vias=[
                    ShapeViaUse(
                        lower_slot=_typed(use["lower_slot"], int),
                        shape_name=_typed(use["shape"], str),
                        lower_members=tuple(_vertex(v) for v in use["lower"]),
                        upper_members=tuple(_vertex(v) for v in use["upper"]),
                    )
                    for use in net["shape_vias"]
                ],
            )
            for net in data["nets"]
        ]
        point = {
            _typed(column, int): _typed(value, (int, float))
            for column, value in data["point"]
        }
        return cls(nets=nets, cost=_typed(data["cost"], (int, float)), point=point)


def _typed(value, kind):
    """``value`` when it is a ``kind`` (never a bool), else TypeError."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TypeError(f"expected {kind}, got {value!r}")
    return value


def _vertex(value) -> Vertex:
    x, y, z = value
    return (_typed(x, int), _typed(y, int), _typed(z, int))


def decode_solution(ilp: RoutingIlp, solution: Solution) -> ClipRouting:
    """Convert a solved ILP into per-net wiring."""
    graph = ilp.graph
    nets: list[NetSolution] = []
    for nv in ilp.nets:
        decoded = NetSolution(net_name=nv.net.name)
        seen_undirected: set[frozenset[int]] = set()
        shape_entries: set[int] = set()
        for arc_index, e in nv.e.items():
            if solution.values.get(e.index, 0) < 0.5:
                continue
            arc = graph.arcs[arc_index]
            if arc.layer == -1:
                continue  # virtual supersource/supersink arc
            key = frozenset((arc.tail, arc.head))
            if key in seen_undirected:
                continue
            seen_undirected.add(key)
            if arc.kind is ArcKind.WIRE:
                decoded.wire_edges.append(
                    (graph.vertex_xyz(arc.tail), graph.vertex_xyz(arc.head))
                )
            elif arc.kind is ArcKind.VIA:
                lo = min(arc.tail, arc.head, key=lambda v: graph.vertex_xyz(v)[2])
                x, y, z = graph.vertex_xyz(lo)
                decoded.vias.append((x, y, z))
            else:  # SHAPE
                rep = arc.head if not graph.is_grid_vertex(arc.head) else arc.tail
                shape_entries.add(rep)
        for inst in graph.shape_instances:
            if inst.rep in shape_entries:
                decoded.shape_vias.append(
                    ShapeViaUse(
                        lower_slot=inst.lower_slot,
                        shape_name=inst.shape.name,
                        lower_members=tuple(
                            graph.vertex_xyz(v) for v in inst.lower_members
                        ),
                        upper_members=tuple(
                            graph.vertex_xyz(v) for v in inst.upper_members
                        ),
                    )
                )
        nets.append(decoded)
    point = {
        j: value
        for j, value in solution.values.items()
        if j < ilp.n_core and value
    }
    return ClipRouting(nets=nets, cost=solution.objective or 0.0, point=point)
