"""ILP formulation of minimum-cost switchbox routing (paper Section 3).

Implements, on top of :mod:`repro.router.graph`:

- the multi-commodity-flow base model, constraints (1)-(4): per-arc
  exclusivity across nets, e/f coupling, and per-net flow conservation
  with supersource emitting |T_k| units and one unit absorbed per
  supersink;
- pin shapes: per-net virtual supersource/supersink vertices connected
  to every access point of the corresponding pin;
- via adjacency restrictions (orthogonal / orthogonal+diagonal);
- via shapes with footprint blocking, constraint (5);
- SADP end-of-line rules via p indicator variables, constraints
  (6)-(12).  The product terms of (6)-(7) are enforced through their
  linearized lower bounds (the right-hand side of (8)); the upper
  bounds of (8)-(9) are omitted because the p variables appear only in
  ``<=``-type forbidden-pattern constraints (11)-(12), where a solver
  never benefits from spuriously raising p -- the projection is exact
  for the optimization.

Two additions beyond the paper's printed constraints make solutions
physically sound and DRC-checkable:

- vertex capacity: at most one net's flow may *enter* any physical
  vertex (the paper's arc-exclusivity (1) does not by itself prevent
  two nets from meeting at a vertex through disjoint arc sets, e.g. a
  via landing against a through-wire);
- pin blocking: vertices covered by other nets' pin shapes are removed
  from a net's usable graph (routing through foreign pin metal would
  short).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace

from repro.clips.clip import Clip, ClipNet
from repro.ilp.csr import CooBuilder, CsrModel
from repro.ilp.model import LinExpr, Model, Var
from repro.router.graph import ArcKind, ShapeViaInstance, SwitchboxGraph, build_graph
from repro.router.rules import RuleConfig, eol_grid_offset


@dataclass
class NetVars:
    """Per-net variables and virtual structure."""

    net: ClipNet
    n_sinks: int
    supersource: int
    supersinks: list[int]
    e: dict[int, Var] = field(default_factory=dict)  # arc index -> Var
    f: dict[int, Var] = field(default_factory=dict)
    virtual_arcs: list[int] = field(default_factory=list)
    p_pos: dict[int, Var] = field(default_factory=dict)  # vertex -> Var
    p_neg: dict[int, Var] = field(default_factory=dict)

    def e_at(self, arc: int) -> "Var | None":
        return self.e.get(arc)

    def for_rule(self) -> "NetVars":
        """A per-rule view: e/f/virtual structure shared (the core is
        rule-independent), p stores fresh (SADP indicators are created
        per rule delta)."""
        return replace(self, p_pos={}, p_neg={})


@dataclass(eq=False)
class RoutingIlp:
    """A built model plus the handles needed to decode its solution.

    The model lives natively in columnar form (:attr:`csr`); the sweep
    (cache hashing, the HiGHS handoff, restriction proofs) consumes
    the arrays directly.  :attr:`model` lazily materializes
    the equivalent object :class:`Model` for consumers that still walk
    constraints (the equivalence checker, the model linter, the bnb
    backend) and caches it, so code that *mutates* ``ilp.model`` keeps
    seeing its own edits; the CSR side is never written back to.
    """

    csr: CsrModel
    graph: SwitchboxGraph
    nets: list[NetVars]
    rules: RuleConfig
    _model: "Model | None" = field(default=None, repr=False)

    @property
    def model(self) -> Model:
        if self._model is None:
            self._model = self.csr.to_model()
        return self._model


@dataclass
class BaseFormulation:
    """The rule-independent core of a clip's routing ILP, built once.

    Holds the switchbox graph (including every net's virtual
    supersource/supersink structure), the net variables, and the core
    model: flow conservation, arc exclusivity, e/f coupling, vertex
    capacity, shape-footprint blocking (when via shapes are offered)
    and the cost objective.  Table 3's rule deltas -- via-adjacency
    rows and SADP indicator blocks -- are layered onto a clone by
    :meth:`specialize`, which never mutates the base, so one base
    serves the whole RULE1..RULE11 sweep of a clip.

    The only rule field the core depends on is ``allow_via_shapes``
    (it changes the graph itself); bases are therefore keyed on it.
    """

    clip: Clip
    allow_via_shapes: bool
    wire_cost: float
    via_cost: float
    graph: SwitchboxGraph
    core: CsrModel
    nets: list[NetVars]

    @classmethod
    def build(
        cls,
        clip: Clip,
        *,
        allow_via_shapes: bool = False,
        wire_cost: float = 1.0,
        via_cost: float = 4.0,
    ) -> "BaseFormulation":
        core_rules = RuleConfig(allow_via_shapes=allow_via_shapes)
        graph = build_graph(
            clip, core_rules, wire_cost=wire_cost, via_cost=via_cost
        )
        coo = CooBuilder()
        builder = _Builder(clip, core_rules, graph, coo)
        builder.build_core()
        return cls(
            clip=clip,
            allow_via_shapes=allow_via_shapes,
            wire_cost=wire_cost,
            via_cost=via_cost,
            graph=graph,
            core=coo.freeze(f"optroute_{clip.name}_core"),
            nets=builder.nets,
        )

    def specialize(self, rules: RuleConfig) -> RoutingIlp:
        """Apply one rule configuration as a delta section appended to
        the frozen core arrays (no object-model clone)."""
        if rules.allow_via_shapes != self.allow_via_shapes:
            raise ValueError(
                "rule wants allow_via_shapes="
                f"{rules.allow_via_shapes} but the base was built with "
                f"{self.allow_via_shapes} (different graphs)"
            )
        delta = CooBuilder(base=self.core)
        nets = [nv.for_rule() for nv in self.nets]
        builder = _Builder(self.clip, rules, self.graph, delta, nets=nets)
        builder.build_delta()
        csr = delta.freeze(f"optroute_{self.clip.name}_{rules.name}")
        return RoutingIlp(csr=csr, graph=self.graph, nets=nets, rules=rules)


class FormulationCache:
    """Per-process LRU of :class:`BaseFormulation` instances.

    Keyed on clip *identity* plus the core knobs.  Clips are frozen
    dataclasses and the cache keeps strong references, so an id key
    can neither go stale through mutation nor be reused while cached.
    Thread-safe: the supervised runner specializes from several
    supervision threads; ``specialize`` itself only reads the base.
    """

    def __init__(self, max_entries: int = 4):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: dict[tuple, tuple[Clip, BaseFormulation]] = {}
        self.hits = 0
        self.misses = 0

    def base_for(
        self,
        clip: Clip,
        *,
        allow_via_shapes: bool = False,
        wire_cost: float = 1.0,
        via_cost: float = 4.0,
    ) -> BaseFormulation:
        key = (id(clip), allow_via_shapes, wire_cost, via_cost)
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is not None:
                self._entries[key] = entry  # re-insert: LRU order
                self.hits += 1
                return entry[1]
            self.misses += 1
        # Build outside the lock; a racing duplicate build is wasted
        # work, never a correctness problem (bases are equivalent).
        base = BaseFormulation.build(
            clip,
            allow_via_shapes=allow_via_shapes,
            wire_cost=wire_cost,
            via_cost=via_cost,
        )
        with self._lock:
            self._entries[key] = (clip, base)
            while len(self._entries) > self.max_entries:
                self._entries.pop(next(iter(self._entries)))
        return base

    def specialize(
        self,
        clip: Clip,
        rules: RuleConfig,
        wire_cost: float = 1.0,
        via_cost: float = 4.0,
    ) -> RoutingIlp:
        base = self.base_for(
            clip,
            allow_via_shapes=rules.allow_via_shapes,
            wire_cost=wire_cost,
            via_cost=via_cost,
        )
        return base.specialize(rules)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


#: Module-level cache shared by every OptRouter in the process: the
#: supervised runner builds a fresh router per attempt, so a
#: router-owned cache would never see two rules of the same clip.
_BASE_CACHE = FormulationCache()


def formulation_cache() -> FormulationCache:
    """The process-wide :class:`FormulationCache`.

    Every cold-path consumer -- the solve path, the restriction prover
    (:func:`~repro.analysis.semantics.restriction.prove_restriction`,
    behind the sweep's warm gate and ``repro analyze``), and the
    equivalence matrix -- shares this one cache, so a (clip, core)
    pair's base formulation is built exactly once per process no
    matter which subsystem asks first (while it stays in the LRU).
    """
    return _BASE_CACHE


def build_routing_ilp(
    clip: Clip,
    rules: RuleConfig,
    wire_cost: float = 1.0,
    via_cost: float = 4.0,
    *,
    reuse: bool = True,
) -> RoutingIlp:
    """Build the complete routing ILP for a clip under a rule config.

    With ``reuse`` (the default) the rule-independent core comes from
    the process-wide :class:`FormulationCache` and only the rule delta
    is built; ``reuse=False`` forces a cold build (benchmark control).
    """
    if reuse:
        return _BASE_CACHE.specialize(
            clip, rules, wire_cost=wire_cost, via_cost=via_cost
        )
    base = BaseFormulation.build(
        clip,
        allow_via_shapes=rules.allow_via_shapes,
        wire_cost=wire_cost,
        via_cost=via_cost,
    )
    return base.specialize(rules)


class _Builder:
    def __init__(
        self,
        clip: Clip,
        rules: RuleConfig,
        graph: SwitchboxGraph,
        coo: CooBuilder,
        nets: "list[NetVars] | None" = None,
    ):
        self.clip = clip
        self.rules = rules
        self.graph = graph
        self.coo = coo
        self.nets: list[NetVars] = nets if nets is not None else []
        # Arcs shared by all nets.  Net vars append per-net virtual
        # arcs to the graph, so count physical arcs from the grid
        # structure rather than the current arc list (a delta builder
        # sees the graph *after* every net's virtual arcs were added).
        self.n_physical_arcs = (
            min(nv.virtual_arcs[0] for nv in self.nets if nv.virtual_arcs)
            if self.nets
            else len(graph.arcs)
        )
        self._rep_vertices = {inst.rep for inst in graph.shape_instances}

    # ---- helpers --------------------------------------------------------

    def _pin_vertices_by_net(self) -> dict[str, set[int]]:
        out: dict[str, set[int]] = {}
        for net in self.clip.nets:
            vids = set()
            for pin in net.pins:
                for x, y, z in pin.access:
                    vids.add(self.graph.vid(x, y, z))
            out[net.name] = vids
        return out

    def _blocked_for(self, net: ClipNet, pin_vertices: dict[str, set[int]]) -> set[int]:
        blocked = {
            self.graph.vid(x, y, z) for x, y, z in self.clip.obstacles
        }
        for other, vids in pin_vertices.items():
            if other != net.name:
                blocked |= vids
        return blocked

    # ---- build ----------------------------------------------------------

    def build_core(self) -> None:
        """The rule-independent model: everything Table 3 cannot touch
        (given the graph, i.e. given ``allow_via_shapes``)."""
        pin_vertices = self._pin_vertices_by_net()

        for k, net in enumerate(self.clip.nets):
            blocked = self._blocked_for(net, pin_vertices)
            nv = self._make_net_vars(k, net, blocked)
            self.nets.append(nv)

        self._arc_exclusivity()
        self._e_f_coupling()
        self._flow_conservation()
        self._vertex_capacity()
        if self.rules.allow_via_shapes:
            self._shape_blocking()
        self._objective()

    def build_delta(self) -> None:
        """The rule-dependent rows, appended to a core clone: via
        adjacency blocking and the SADP indicator blocks (which add
        the per-rule p variables)."""
        if self.rules.via_restriction.blocked_offsets():
            self._via_adjacency()
        if self.rules.sadp_min_metal is not None:
            self._sadp_rules()

    def _make_net_vars(self, k: int, net: ClipNet, blocked: set[int]) -> NetVars:
        g, m = self.graph, self.coo
        n_sinks = len(net.sinks)

        # Shape instances unusable by this net (footprint over blocked).
        bad_shapes = {
            inst.rep
            for inst in g.shape_instances
            if any(member in blocked for member in inst.members)
        }

        supersource = g.add_virtual_vertex()
        supersinks = [g.add_virtual_vertex() for _ in net.sinks]
        nv = NetVars(
            net=net, n_sinks=n_sinks, supersource=supersource, supersinks=supersinks
        )

        for pin_vertex in net.source.access:
            arc = g.add_virtual_arc(supersource, g.vid(*pin_vertex))
            nv.virtual_arcs.append(arc)
        for sink_index, sink in enumerate(net.sinks):
            for pin_vertex in sink.access:
                arc = g.add_virtual_arc(g.vid(*pin_vertex), supersinks[sink_index])
                nv.virtual_arcs.append(arc)
        # Pin metal is one conductor: zero-cost arcs chain each pin's
        # access vertices so the net may route *through* its own pin
        # (entering at one access point and leaving at another), as
        # heuristic routers do.  Without these, OptRouter can report a
        # higher "optimum" than a pin-feedthrough solution.
        for pin in net.pins:
            vertices = sorted(g.vid(*v) for v in pin.access)
            for a, b in zip(vertices, vertices[1:]):
                nv.virtual_arcs.append(g.add_virtual_arc(a, b))
                nv.virtual_arcs.append(g.add_virtual_arc(b, a))

        # e/f over usable physical arcs.  For 2-pin nets (|T_k| = 1) the
        # coupling (2)-(3) forces f = e, so e doubles as the flow
        # variable and the f column is not materialized.
        two_pin = n_sinks == 1
        for arc in g.arcs[: self.n_physical_arcs]:
            if arc.tail in blocked or arc.head in blocked:
                continue
            if arc.kind is ArcKind.SHAPE and (
                arc.tail in bad_shapes or arc.head in bad_shapes
            ):
                continue
            e = m.binary(f"e_{k}_{arc.index}")
            nv.e[arc.index] = e
            nv.f[arc.index] = e if two_pin else m.var(
                f"f_{k}_{arc.index}", 0.0, float(n_sinks), integer=False
            )
        # e/f over this net's virtual arcs.
        for arc_index in nv.virtual_arcs:
            e = m.binary(f"e_{k}_v{arc_index}")
            nv.e[arc_index] = e
            nv.f[arc_index] = e if two_pin else m.var(
                f"f_{k}_v{arc_index}", 0.0, float(n_sinks), integer=False
            )
        return nv

    # ---- constraints ------------------------------------------------------

    def _arc_exclusivity(self) -> None:
        """Constraint (1): each undirected physical arc serves one net,
        one direction."""
        m = self.coo
        for arc in self.graph.arcs[: self.n_physical_arcs]:
            if arc.reverse < arc.index:
                continue  # handle each undirected pair once
            expr = LinExpr()
            present = False
            for nv in self.nets:
                fwd, rev = nv.e.get(arc.index), nv.e.get(arc.reverse)
                if fwd is not None:
                    expr += fwd
                    present = True
                if rev is not None:
                    expr += rev
                    present = True
            if present:
                m.le(expr, 1.0)

    def _e_f_coupling(self) -> None:
        """Constraints (2)-(3): e = 1 exactly when flow passes the arc.

        Skipped for 2-pin nets, whose f variables are aliased to e.
        """
        m = self.coo
        for nv in self.nets:
            if nv.n_sinks == 1:
                continue
            cap = float(nv.n_sinks)
            for arc_index, e in nv.e.items():
                f = nv.f[arc_index]
                m.ge(cap * e - f)  # (2)  e >= f / |T_k|
                m.le(e - f)        # (3)  e <= f

    def _flow_conservation(self) -> None:
        """Constraint (4) at every vertex each net can touch."""
        g, m = self.graph, self.coo
        for nv in self.nets:
            # Collect incident arcs per vertex from this net's variables.
            outflow: dict[int, LinExpr] = {}
            inflow: dict[int, LinExpr] = {}
            for arc_index, f in nv.f.items():
                arc = g.arcs[arc_index]
                outflow.setdefault(arc.tail, LinExpr())._iadd(f, 1.0)
                inflow.setdefault(arc.head, LinExpr())._iadd(f, 1.0)
            vertices = set(outflow) | set(inflow)
            sink_set = set(nv.supersinks)
            for vertex in vertices:
                balance = outflow.get(vertex, LinExpr()) - inflow.get(vertex, LinExpr())
                if vertex == nv.supersource:
                    m.eq(balance, float(nv.n_sinks))
                elif vertex in sink_set:
                    m.eq(balance, -1.0)
                else:
                    m.eq(balance)

    def _vertex_capacity(self) -> None:
        """At most one net's flow enters any physical vertex."""
        g, m = self.graph, self.coo
        entering: dict[int, LinExpr] = {}
        for nv in self.nets:
            for arc_index, e in nv.e.items():
                arc = g.arcs[arc_index]
                if arc.layer == -1:
                    continue  # virtual arcs (pin chains) are same-net metal
                if not self._is_physical_vertex(arc.head):
                    continue
                entering.setdefault(arc.head, LinExpr())._iadd(e, 1.0)
        for vertex, expr in entering.items():
            if len(expr.coefs) > 1:
                m.le(expr, 1.0)

    def _is_physical_vertex(self, vid: int) -> bool:
        return self.graph.is_grid_vertex(vid) or vid in self._rep_vertices

    def _site_usage(self, x: int, y: int, z: int) -> "LinExpr | None":
        """Total via usage at cut-layer site (x, y, z) across nets,
        including any via shapes whose footprint covers the site."""
        arcs = self.graph.via_site_arcs.get((x, y, z))
        if arcs is None:
            return None
        expr = LinExpr()
        up, down = arcs
        for nv in self.nets:
            for arc_index in (up, down):
                e = nv.e.get(arc_index)
                if e is not None:
                    expr += e
        if self.rules.allow_via_shapes:
            vid_low = self.graph.vid(x, y, z)
            for inst in self.graph.shape_instances:
                if inst.lower_slot == z and vid_low in inst.lower_members:
                    expr += self._shape_usage(inst)
        return expr

    def _shape_usage(self, inst: ShapeViaInstance) -> LinExpr:
        """Number of nets whose flow enters the shape's rep vertex."""
        expr = LinExpr()
        for nv in self.nets:
            for arc_index in self.graph.in_arcs[inst.rep]:
                e = nv.e.get(arc_index)
                if e is not None:
                    expr += e
        return expr

    def _via_adjacency(self) -> None:
        """Via restriction: a via blocks its neighbor via sites."""
        m = self.coo
        clip = self.clip
        offsets = self.rules.via_restriction.blocked_offsets()
        usage_cache: dict[tuple[int, int, int], "LinExpr | None"] = {}

        def usage(x: int, y: int, z: int) -> "LinExpr | None":
            key = (x, y, z)
            if key not in usage_cache:
                usage_cache[key] = self._site_usage(x, y, z)
            return usage_cache[key]

        for z in range(clip.nz - 1):
            for y in range(clip.ny):
                for x in range(clip.nx):
                    u_here = usage(x, y, z)
                    if u_here is None or not u_here.coefs:
                        continue
                    for dx, dy in offsets:
                        x2, y2 = x + dx, y + dy
                        if (x2, y2) < (x, y):
                            continue  # each unordered pair once
                        if not (0 <= x2 < clip.nx and 0 <= y2 < clip.ny):
                            continue
                        u_there = usage(x2, y2, z)
                        if u_there is None or not u_there.coefs:
                            continue
                        m.le(u_here + u_there, 1.0)

    def _shape_blocking(self) -> None:
        """Constraint (5): a used via shape reserves its whole footprint."""
        m = self.coo
        for inst in self.graph.shape_instances:
            rep_in = self.graph.in_arcs[inst.rep]
            entered_total: dict[int, LinExpr] = {}
            entered_by_net: list[dict[int, LinExpr]] = []
            for nv in self.nets:
                per_net: dict[int, LinExpr] = {}
                for member in inst.members:
                    expr = LinExpr()
                    for arc_index in self.graph.in_arcs[member]:
                        arc = self.graph.arcs[arc_index]
                        if arc.tail == inst.rep:
                            continue  # the shape's own exit arc
                        e = nv.e.get(arc_index)
                        if e is not None:
                            expr += e
                    per_net[member] = expr
                    entered_total.setdefault(member, LinExpr())
                    entered_total[member] += expr
                entered_by_net.append(per_net)

            for k, nv in enumerate(self.nets):
                w = LinExpr()
                for arc_index in rep_in:
                    e = nv.e.get(arc_index)
                    if e is not None:
                        w += e
                if not w.coefs:
                    continue
                for member in inst.members:
                    total = entered_total[member]
                    own = entered_by_net[k][member]
                    others = total - own
                    if others.coefs:
                        m.le(others + w, 1.0)

    # ---- SADP --------------------------------------------------------------

    def _sadp_rules(self) -> None:
        clip = self.clip
        for z in range(clip.nz):
            if not self.rules.sadp_applies_to(clip.metal_of(z)):
                continue
            self._sadp_layer(z)

    def _wire_arc_pair(self, a: int, b: int) -> tuple[int | None, int | None]:
        fwd = self.graph.wire_arc_between(a, b)
        rev = self.graph.wire_arc_between(b, a)
        return fwd, rev

    def _sadp_layer(self, z: int) -> None:
        """Create p variables and forbidden-pattern constraints on one
        SADP layer (constraints (6)-(12))."""
        clip, g, m = self.clip, self.graph, self.coo
        horizontal = clip.horizontal[z]

        def along_neighbor(x: int, y: int, direction: int) -> "tuple[int, int] | None":
            if horizontal:
                x2, y2 = x + direction, y
            else:
                x2, y2 = x, y + direction
            if 0 <= x2 < clip.nx and 0 <= y2 < clip.ny:
                return x2, y2
            return None

        # Per-net p variables with the linearized EOL lower bounds.
        for k, nv in enumerate(self.nets):
            for y in range(clip.ny):
                for x in range(clip.nx):
                    vid = g.vid(x, y, z)
                    cross = [
                        a for a in g.cross_arcs_at(vid) if a in nv.e
                    ]
                    if not cross:
                        continue
                    for direction, store in ((-1, nv.p_neg), (1, nv.p_pos)):
                        nbr = along_neighbor(x, y, direction)
                        if nbr is None:
                            continue
                        nbr_vid = g.vid(nbr[0], nbr[1], z)
                        arc_in, arc_out = self._wire_arc_pair(nbr_vid, vid)
                        e_in = nv.e.get(arc_in) if arc_in is not None else None
                        e_out = nv.e.get(arc_out) if arc_out is not None else None
                        if e_in is None and e_out is None:
                            continue
                        p = m.binary(f"p{'rn'[direction > 0]}_{k}_{vid}")
                        store[vid] = p
                        for arc_index in cross:
                            arc = g.arcs[arc_index]
                            e_cross = nv.e[arc_index]
                            # Consistent-flow EOL pairs: wire-in + cross-out,
                            # wire-out + cross-in (paper (6)-(7) as lower
                            # bounds of the product linearization (8)).
                            if arc.tail == vid and e_in is not None:
                                m.ge(p - e_in - e_cross, -1.0)
                            if arc.head == vid and e_out is not None:
                                m.ge(p - e_out - e_cross, -1.0)

        # Global p sums (10) and forbidden patterns (11)-(12).
        def global_p(store_name: str, vid: int) -> LinExpr:
            expr = LinExpr()
            for nv in self.nets:
                p = getattr(nv, store_name).get(vid)
                if p is not None:
                    expr += p
            return expr

        def offset_vid(x: int, y: int, along: int, cross_off: int) -> "int | None":
            x2, y2 = eol_grid_offset(horizontal, x, y, along, cross_off)
            if 0 <= x2 < clip.nx and 0 <= y2 < clip.ny:
                return g.vid(x2, y2, z)
            return None

        for y in range(clip.ny):
            for x in range(clip.nx):
                vid = g.vid(x, y, z)
                # p_pos at vid vs p_neg at mirrored offsets, and polarity
                # swap handled by iterating every vertex.
                pos_here = global_p("p_pos", vid)
                neg_here = global_p("p_neg", vid)
                for da, dc in self.rules.sadp.opposite_pairs():
                    if pos_here.coefs:
                        j = offset_vid(x, y, da, dc)
                        if j is not None:
                            neg_there = global_p("p_neg", j)
                            if neg_there.coefs:
                                m.le(pos_here + neg_there, 1.0)
                for da, dc in self.rules.sadp.same_pairs(1):
                    j_pos = offset_vid(x, y, da, dc)
                    if j_pos is not None and j_pos > vid and pos_here.coefs:
                        pos_there = global_p("p_pos", j_pos)
                        if pos_there.coefs:
                            m.le(pos_here + pos_there, 1.0)
                for da, dc in self.rules.sadp.same_pairs(-1):
                    j_neg = offset_vid(x, y, da, dc)
                    if j_neg is not None and j_neg > vid and neg_here.coefs:
                        neg_there = global_p("p_neg", j_neg)
                        if neg_there.coefs:
                            m.le(neg_here + neg_there, 1.0)

    # ---- objective ----------------------------------------------------------

    def _objective(self) -> None:
        objective = LinExpr()
        for nv in self.nets:
            for arc_index, e in nv.e.items():
                cost = self.graph.arcs[arc_index].cost
                if cost:
                    objective._iadd(e * cost, 1.0)
        self.coo.minimize(objective)
