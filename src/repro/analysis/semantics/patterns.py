"""Local routing-pattern enumeration and ILP assignment construction.

The equivalence checker works on *patterns*: for every net of a
micro-clip, one simple source-to-sink path through a geometric
"universe" graph, optionally extended (for the soundness direction) by
one vertex-disjoint directed cycle.  The universe is a superset of the
ILP's arc space -- it also contains obstacle vertices, other nets' pin
metal, and (optionally) wire edges against the layer direction -- so
patterns the ILP cannot even represent are still enumerated and must
be flagged by the geometric DRC oracle for the encoding to count as
equivalent.

Each pattern maps two ways:

- :func:`pattern_routing` decodes it to a :class:`ClipRouting`, which
  the DRC oracle judges;
- :func:`pattern_assignment` encodes it as a 0/1 point over the ILP's
  variables (path arcs, the matching virtual supersource / supersink /
  pin-chain arcs, and minimally-raised SADP indicator variables),
  which the equivalence checker judges against the model's bounds,
  integrality and rows.  ``None`` means the pattern is not
  representable in the ILP at all -- equivalent to infeasible.

The SADP ``p`` indicators are the only auxiliary variables: they carry
``>=`` lower bounds (raised by wire/cross arc products) and appear
positively in ``<=`` forbidden-pattern rows, so the *minimal* raise
computed by fixpoint propagation is exactly the solver-optimal
completion -- if the minimal point is infeasible, every completion is.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Any

from repro.clips.clip import Clip, ClipNet, Vertex
from repro.router.formulation import NetVars, RoutingIlp
from repro.router.graph import SwitchboxGraph

#: Edge kinds a pattern step can take.
WIRE = "wire"          # along the layer's routing direction
OFFWIRE = "offwire"    # against the direction (never ILP-representable)
VIA = "via"            # between vertically adjacent vertices
PIN = "pin"            # zero-geometry hop inside the net's own pin metal

_Step = tuple[Vertex, Vertex, str]


@dataclass(frozen=True)
class NetPattern:
    """One net's candidate local routing: a path plus optional cycle."""

    net_name: str
    path: tuple[_Step, ...]
    cycle: tuple[_Step, ...] = ()

    @property
    def size(self) -> int:
        """Physical footprint: wire + via steps (pin hops are free)."""
        return sum(
            1 for _, _, kind in self.path + self.cycle if kind != PIN
        )

    def to_dict(self) -> dict[str, Any]:
        def ser(steps: tuple[_Step, ...]) -> list[list[Any]]:
            return [[list(a), list(b), kind] for a, b, kind in steps]

        payload: dict[str, Any] = {"path": ser(self.path)}
        if self.cycle:
            payload["cycle"] = ser(self.cycle)
        return payload


# -- the enumeration universe -------------------------------------------------


def net_universe(
    clip: Clip, net: ClipNet, include_offdirection: bool = False
) -> dict[Vertex, list[tuple[Vertex, str]]]:
    """Adjacency of the geometric universe graph for one net.

    Contains every grid wire edge along the layer direction, every via
    edge, this net's own pin-chain hops (consecutive sorted access
    vertices -- mirroring how both the ILP and the DRC oracle treat pin
    metal as one conductor), and, when requested, wire edges *against*
    the layer direction.  Obstacles and foreign pin vertices are NOT
    removed: patterns through them exist and must be DRC-flagged.
    """
    adj: dict[Vertex, list[tuple[Vertex, str]]] = defaultdict(list)

    def link(a: Vertex, b: Vertex, kind: str) -> None:
        adj[a].append((b, kind))
        adj[b].append((a, kind))

    for z in range(clip.nz):
        horizontal = clip.horizontal[z]
        for y in range(clip.ny):
            for x in range(clip.nx):
                if x + 1 < clip.nx:
                    kind = WIRE if horizontal else OFFWIRE
                    if kind == WIRE or include_offdirection:
                        link((x, y, z), (x + 1, y, z), kind)
                if y + 1 < clip.ny:
                    kind = OFFWIRE if horizontal else WIRE
                    if kind == WIRE or include_offdirection:
                        link((x, y, z), (x, y + 1, z), kind)
    for z in range(clip.nz - 1):
        for y in range(clip.ny):
            for x in range(clip.nx):
                link((x, y, z), (x, y, z + 1), VIA)
    for pin in net.pins:
        access = sorted(pin.access)
        for a, b in zip(access, access[1:]):
            link(a, b, PIN)

    for vertex in adj:
        adj[vertex].sort(key=lambda item: (item[0], item[1]))
    return adj


def enumerate_net_paths(
    clip: Clip,
    net: ClipNet,
    *,
    include_offdirection: bool = False,
    max_paths: int = 400,
) -> tuple[list[NetPattern], bool]:
    """All simple source-to-sink paths of a 2-pin net, in deterministic
    DFS order.  Returns ``(patterns, exhausted)``; ``exhausted`` is
    False when ``max_paths`` truncated the enumeration."""
    if len(net.sinks) != 1:
        raise ValueError(
            f"net {net.name!r} has {len(net.sinks)} sinks; the pattern "
            "enumerator supports 2-pin micro-clip nets only"
        )
    adj = net_universe(clip, net, include_offdirection)
    sink_access = set(net.sinks[0].access)
    patterns: list[NetPattern] = []
    exhausted = True

    def dfs(vertex: Vertex, visited: set[Vertex], steps: list[_Step]) -> bool:
        """Returns False when the path cap was hit (abort)."""
        if vertex in sink_access:
            patterns.append(NetPattern(net.name, tuple(steps)))
            if len(patterns) >= max_paths:
                return False
            # A path may also continue through the sink access vertex
            # (e.g. feed through pin metal); keep exploring.
        for neighbor, kind in adj.get(vertex, ()):
            if neighbor in visited:
                continue
            visited.add(neighbor)
            steps.append((vertex, neighbor, kind))
            if not dfs(neighbor, visited, steps):
                return False
            steps.pop()
            visited.remove(neighbor)
        return True

    for start in sorted(net.source.access):
        if start in sink_access:
            patterns.append(NetPattern(net.name, ()))
            continue
        if not dfs(start, {start}, []):
            exhausted = False
            break
    return patterns, exhausted


def enumerate_net_cycles(
    clip: Clip, net: ClipNet, *, max_cycles: int = 64
) -> list[tuple[_Step, ...]]:
    """Directed simple cycles over the net's physical universe (wire +
    via edges, direction-correct only: cycles against the direction are
    never ILP-representable and add nothing to the soundness sweep).

    Canonical form: each cycle starts at its minimal vertex; the two
    traversal directions are distinct cycles (distinct arc supports).
    """
    adj = net_universe(clip, net, include_offdirection=False)
    cycles: list[tuple[_Step, ...]] = []
    vertices = sorted(adj)

    def dfs(start: Vertex, vertex: Vertex, visited: set[Vertex],
            steps: list[_Step]) -> bool:
        for neighbor, kind in adj.get(vertex, ()):
            if kind == PIN:
                continue
            if neighbor == start and len(steps) >= 3:
                cycles.append(tuple(steps + [(vertex, neighbor, kind)]))
                if len(cycles) >= max_cycles:
                    return False
                continue
            if neighbor <= start or neighbor in visited:
                continue
            visited.add(neighbor)
            steps.append((vertex, neighbor, kind))
            if not dfs(start, neighbor, visited, steps):
                return False
            steps.pop()
            visited.remove(neighbor)
        return True

    for start in vertices:
        if not dfs(start, start, {start}, []):
            break
    return cycles


def pattern_vertices(pattern: NetPattern) -> set[Vertex]:
    out: set[Vertex] = set()
    for a, b, _ in pattern.path + pattern.cycle:
        out.add(a)
        out.add(b)
    return out


def enumerate_clip_patterns(
    clip: Clip,
    *,
    include_offdirection: bool = False,
    cycles: bool = True,
    max_paths_per_net: int = 400,
    max_patterns: int = 20000,
) -> tuple[list[tuple[NetPattern, ...]], int, bool]:
    """The clip's pattern space: the cartesian product of per-net paths,
    plus (for the soundness direction) every product variant in which
    exactly one net additionally carries a vertex-disjoint cycle.

    Returns ``(combos, n_path_combos, exhausted)`` where the first
    ``n_path_combos`` entries are the pure path products -- the only
    patterns the completeness direction judges (a cycle never helps
    reach a sink, so a clean-but-infeasible cycle variant would be a
    false incompleteness alarm).
    """
    per_net: list[list[NetPattern]] = []
    exhausted = True
    for net in clip.nets:
        paths, net_exhausted = enumerate_net_paths(
            clip,
            net,
            include_offdirection=include_offdirection,
            max_paths=max_paths_per_net,
        )
        exhausted &= net_exhausted
        per_net.append(paths)

    def products(parts: list[list[NetPattern]]) -> Iterator[tuple[NetPattern, ...]]:
        if not parts:
            yield ()
            return
        for head in parts[0]:
            for rest in products(parts[1:]):
                yield (head, *rest)

    combos: list[tuple[NetPattern, ...]] = []
    for combo in products(per_net):
        combos.append(combo)
        if len(combos) >= max_patterns:
            exhausted = False
            break
    n_path_combos = len(combos)

    if cycles and exhausted:
        cycle_lists = [
            enumerate_net_cycles(clip, net) for net in clip.nets
        ]
        for combo in list(combos):
            for k, net_cycles in enumerate(cycle_lists):
                base = combo[k]
                used = pattern_vertices(base)
                for cyc in net_cycles:
                    if any(
                        a in used or b in used for a, b, _ in cyc
                    ):
                        continue
                    extended = list(combo)
                    extended[k] = NetPattern(base.net_name, base.path, cyc)
                    combos.append(tuple(extended))
                    if len(combos) >= max_patterns:
                        return combos, n_path_combos, False
    return combos, n_path_combos, exhausted


# -- decoding to geometry -----------------------------------------------------


def pattern_routing(clip: Clip, combo: tuple[NetPattern, ...]):
    """Decode a pattern combo into the DRC oracle's input form."""
    from repro.router.solution import ClipRouting, NetSolution

    nets = []
    for pattern in combo:
        decoded = NetSolution(net_name=pattern.net_name)
        seen: set[frozenset[Vertex]] = set()
        for a, b, kind in pattern.path + pattern.cycle:
            key = frozenset((a, b))
            if key in seen:
                continue
            seen.add(key)
            if kind in (WIRE, OFFWIRE):
                decoded.wire_edges.append((a, b))
            elif kind == VIA:
                lo = a if a[2] < b[2] else b
                decoded.vias.append(lo)
            # PIN hops are existing pin metal, not drawn routing.
        nets.append(decoded)
    return ClipRouting(nets=nets, cost=0.0)


# -- encoding to an ILP assignment -------------------------------------------


def _virtual_arc_lookup(
    graph: SwitchboxGraph, nv: NetVars
) -> dict[tuple[int, int], int]:
    out = {}
    for arc_index in nv.virtual_arcs:
        arc = graph.arcs[arc_index]
        out[(arc.tail, arc.head)] = arc_index
    return out


def pattern_assignment(
    ilp: RoutingIlp, combo: tuple[NetPattern, ...]
) -> dict[int, float] | None:
    """Encode a pattern combo as a point over the ILP's variables.

    Returns ``None`` when some step has no usable arc (off-direction
    edge, blocked vertex, foreign pin metal): the pattern is outside
    the ILP's representable space, i.e. infeasible by construction.
    """
    graph = ilp.graph
    values: dict[int, float] = {}
    for nv, pattern in zip(ilp.nets, combo):
        virtual = _virtual_arc_lookup(graph, nv)

        def set_arc(arc_index: int | None, nv: NetVars = nv) -> bool:
            if arc_index is None:
                return False
            e = nv.e.get(arc_index)
            if e is None:
                return False
            values[e.index] = 1.0
            f = nv.f.get(arc_index)
            if f is not None:
                values[f.index] = 1.0
            return True

        if pattern.path:
            first, last = pattern.path[0][0], pattern.path[-1][1]
        else:
            access = set(nv.net.source.access) & set(nv.net.sinks[0].access)
            if not access:
                return None
            first = last = min(access)
        source_arc = virtual.get((nv.supersource, graph.vid(*first)))
        sink_arc = virtual.get((graph.vid(*last), nv.supersinks[0]))
        if not (set_arc(source_arc) and set_arc(sink_arc)):
            return None
        for a, b, kind in pattern.path + pattern.cycle:
            va, vb = graph.vid(*a), graph.vid(*b)
            if kind in (WIRE, OFFWIRE):
                ok = set_arc(graph.wire_arc_between(va, vb))
            elif kind == VIA:
                lo = a if a[2] < b[2] else b
                site = graph.via_site_arcs.get((lo[0], lo[1], lo[2]))
                if site is None:
                    ok = False
                else:
                    up, down = site
                    ok = set_arc(up if a[2] < b[2] else down)
            else:  # PIN
                ok = set_arc(virtual.get((va, vb)))
            if not ok:
                return None
    _raise_auxiliaries(ilp, values)
    return values


def _raise_auxiliaries(ilp: RoutingIlp, values: dict[int, float]) -> None:
    """Minimal completion of auxiliary (SADP indicator) variables.

    Fixpoint: while some ``>=`` row is violated and contains exactly
    one raisable non-decision variable with positive coefficient,
    raise it to the smallest satisfying value.  Decision variables
    (the e/f support chosen by the pattern) are never touched.
    """
    csr = ilp.csr
    ub = csr.ub.tolist()
    integer = csr.integer.tolist()
    decision = set()
    for nv in ilp.nets:
        for var in nv.e.values():
            decision.add(var.index)
        for var in nv.f.values():
            decision.add(var.index)
    ge_rows = [
        (coefs, const) for coefs, const, sense in csr.rows() if sense == ">="
    ]

    for _ in range(4):
        changed = False
        for coefs, const in ge_rows:
            lhs = const
            free = []
            for index, coef in coefs.items():
                lhs += coef * values.get(index, 0.0)
                if index not in decision and coef > 0:
                    free.append((index, coef))
            if lhs >= -1e-9:
                continue
            raisable = [
                (index, coef)
                for index, coef in free
                if values.get(index, 0.0) < ub[index] - 1e-9
            ]
            if len(raisable) != 1:
                continue
            index, coef = raisable[0]
            need = values.get(index, 0.0) + (-lhs) / coef
            if integer[index]:
                need = float(int(need + 1 - 1e-9))
            values[index] = min(need, ub[index])
            changed = True
        if not changed:
            return
