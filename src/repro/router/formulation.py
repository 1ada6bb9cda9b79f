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
  linearized lower bounds (the right-hand side of (8)), with two
  flow-aware lower bounds per indicator that every integer point
  already meets; the upper bounds of (8)-(9) are omitted because the
  p variables appear only in ``<=``-type forbidden-pattern constraints
  (11)-(12), where a solver never benefits from spuriously raising
  p -- the projection is exact for the optimization.

Both rule deltas are written in their strong form, which keeps the
integer points and tightens the LP relaxation (docs/formulation.md).
The weak form (one row per conflicting pair of via sites, product
rows only) is the model HiGHS' branch-and-cut gets
(:meth:`RoutingIlp.milp_model`).

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

import functools
import hashlib
import threading
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, replace
from typing import Any, TypeVar

from repro.clips.clip import Clip, ClipNet
from repro.clips.serialization import clip_digest
from repro.ilp.csr import SENSE_EQ, SENSE_GE, SENSE_LE, CooBuilder, CsrModel
from repro.ilp.model import Var
from repro.router.graph import ArcKind, ShapeViaInstance, SwitchboxGraph, build_graph
from repro.router.rules import RuleConfig, ViaRestriction, eol_grid_offset

_Proof = TypeVar("_Proof")


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

    The model exists in one form, the columnar :attr:`csr`: cache
    hashing, both solver backends, restriction proofs, the model
    linter and the equivalence checker all read its arrays.
    """

    csr: CsrModel
    graph: SwitchboxGraph
    nets: list[NetVars]
    rules: RuleConfig
    base: "BaseFormulation"

    @property
    def n_core(self) -> int:
        """The number of core columns (the e/f columns of ``nets``),
        which lead every rule's model on one base: rule deltas only
        append."""
        return self.base.core.n_vars

    def milp_model(self) -> CsrModel:
        """This model with its rule deltas in their weak form: one row
        per conflicting pair of via sites, and each EOL indicator with
        its product rows only.

        It has the columns, objective, column bounds and integer
        points of :attr:`csr`, so a solution of one solves the other.
        The strong rows serve the LP relaxation, which settles most
        pairs at the root; branch-and-cut gets this model, on which
        HiGHS derives its own cliques, and closed an N28-12T pair in
        about a minute that it left open for 150 s on the strong one
        (docs/performance.md, "Strong rule rows").
        """
        return self.base.specialize(self.rules, strong=False).csr


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

    def specialize(
        self, rules: RuleConfig, *, strong: bool = True
    ) -> RoutingIlp:
        """Apply one rule configuration as a delta section appended to
        the frozen core arrays (no object-model clone); ``strong=False``
        writes the rule rows in their weak form
        (:meth:`RoutingIlp.milp_model`)."""
        if rules.allow_via_shapes != self.allow_via_shapes:
            raise ValueError(
                "rule wants allow_via_shapes="
                f"{rules.allow_via_shapes} but the base was built with "
                f"{self.allow_via_shapes} (different graphs)"
            )
        delta = CooBuilder(base=self.core)
        nets = [nv.for_rule() for nv in self.nets]
        builder = _Builder(
            self.clip, rules, self.graph, delta, nets=nets, strong=strong
        )
        builder.build_delta()
        csr = delta.freeze(f"optroute_{self.clip.name}_{rules.name}")
        return RoutingIlp(
            csr=csr, graph=self.graph, nets=nets, rules=rules, base=self
        )


class FormulationCache:
    """Per-process LRU of :class:`BaseFormulation` instances.

    Keyed on the clip's *value* (clips are frozen, hashable dataclasses)
    plus the core knobs, so equal copies of a clip share one base: the
    clips a ``repro serve`` experiment deserializes, and the jobs an
    attempt process unpickles.  The default bound holds a six-clip
    study.  Beside the bases, under the same bound but independent of
    them, sits a memo of the restriction proofs made over each clip
    (:meth:`restriction_proof`), keyed on the clip's content
    (:func:`~repro.clips.serialization.clip_digest`, no name) plus the
    same knobs: a proof stays while its base is evicted or was never
    built, clips that differ only in name share it, and every tenant
    of a ``repro serve`` process after the first reads them.
    :meth:`clear` drops both.  Thread-safe: the service's scheduler
    threads (``repro serve --concurrency``) run sweeps in one
    process; ``specialize`` itself only reads the base.
    """

    def __init__(self, max_entries: int = 8):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: dict[tuple, BaseFormulation] = {}
        self._proofs: dict[tuple, dict[str, Any]] = {}
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
        key = (clip, allow_via_shapes, wire_cost, via_cost)
        with self._lock:
            base = self._entries.pop(key, None)
            if base is not None:
                self._entries[key] = base  # re-insert: LRU order
                self.hits += 1
                return base
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
            self._entries[key] = base
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

    def restriction_proof(
        self,
        clip: Clip,
        looser: RuleConfig,
        follower: RuleConfig,
        *,
        wire_cost: float,
        via_cost: float,
        prove: "Callable[..., _Proof]",
        load: "Callable[[], Mapping[str, _Proof]] | None" = None,
    ) -> "tuple[_Proof, bool]":
        """The proof that ``follower`` restricts ``looser`` on ``clip``,
        from the clip's proof memo, and whether this call made it.

        The memo is keyed on the clip's content digest, and keys a
        clip's proofs by :func:`proof_edge`, the values of both rules
        without their names.  ``load`` supplies the proofs persisted
        for the clip, by the same keys, and runs once per clip content
        while its memo is resident; ``prove``
        (:func:`~repro.analysis.semantics.restriction.prove_restriction`)
        makes a missing proof from the same arguments.  A lookup counts
        no hit or miss, and a memoized proof carries the names of the
        call that made it -- possibly another clip's and other rules'.
        """
        key = (clip_digest(clip), looser.allow_via_shapes, wire_cost, via_cost)
        with self._lock:
            memo = self._proofs.pop(key, None)
            if memo is not None:
                self._proofs[key] = memo  # re-insert: LRU order
        if memo is None:
            loaded = dict(load()) if load is not None else {}
            with self._lock:
                memo = self._proofs.setdefault(key, loaded)
                while len(self._proofs) > self.max_entries:
                    self._proofs.pop(next(iter(self._proofs)))
        edge = proof_edge(looser, follower)
        if edge in memo:
            return memo[edge], False
        proof = prove(clip, looser, follower, wire_cost=wire_cost, via_cost=via_cost)
        with self._lock:
            memo[edge] = proof
        return proof, True

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._proofs.clear()


@functools.lru_cache(maxsize=1024)
def proof_edge(looser: RuleConfig, follower: RuleConfig) -> str:
    """The key of a restriction proof between two rules: SHA-256 over
    both rules' values without their names (a proof depends on what
    the rules are, not on what they are called)."""
    text = "\n".join(repr(replace(rule, name="")) for rule in (looser, follower))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: Module-level, not router-owned: the solve path, the restriction
#: prover and the equivalence matrix each build a clip's models, and
#: through this one cache they share one base per clip.
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
    return base_formulation(
        clip,
        allow_via_shapes=rules.allow_via_shapes,
        wire_cost=wire_cost,
        via_cost=via_cost,
        reuse=reuse,
    ).specialize(rules)


def base_formulation(
    clip: Clip,
    *,
    allow_via_shapes: bool = False,
    wire_cost: float = 1.0,
    via_cost: float = 4.0,
    reuse: bool = True,
) -> BaseFormulation:
    """The clip's base formulation: from the process-wide
    :class:`FormulationCache` with ``reuse``, else built cold."""
    if reuse:
        return _BASE_CACHE.base_for(
            clip,
            allow_via_shapes=allow_via_shapes,
            wire_cost=wire_cost,
            via_cost=via_cost,
        )
    return BaseFormulation.build(
        clip,
        allow_via_shapes=allow_via_shapes,
        wire_cost=wire_cost,
        via_cost=via_cost,
    )


class _Builder:
    def __init__(
        self,
        clip: Clip,
        rules: RuleConfig,
        graph: SwitchboxGraph,
        coo: CooBuilder,
        nets: "list[NetVars] | None" = None,
        strong: bool = True,
    ):
        self.clip = clip
        self.rules = rules
        self.graph = graph
        self.coo = coo
        self.strong = strong
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
    #
    # Every row is written as a column-index list straight into
    # ``CooBuilder.row``.  Row order, and column order within a row,
    # are part of the model: HiGHS breaks ties by them (see
    # docs/formulation.md, "How rows are written").

    def _arc_exclusivity(self) -> None:
        """Constraint (1): each undirected physical arc serves one net,
        one direction."""
        row = self.coo.row
        for arc in self.graph.arcs[: self.n_physical_arcs]:
            if arc.reverse < arc.index:
                continue  # handle each undirected pair once
            cols = []
            for nv in self.nets:
                fwd, rev = nv.e.get(arc.index), nv.e.get(arc.reverse)
                if fwd is not None:
                    cols.append(fwd.index)
                if rev is not None:
                    cols.append(rev.index)
            if cols:
                row(cols, [1.0] * len(cols), SENSE_LE, 1.0)

    def _e_f_coupling(self) -> None:
        """Constraints (2)-(3): e = 1 exactly when flow passes the arc.

        Skipped for 2-pin nets, whose f variables are aliased to e.
        """
        row = self.coo.row
        for nv in self.nets:
            if nv.n_sinks == 1:
                continue
            cap = float(nv.n_sinks)
            for arc_index, e in nv.e.items():
                cols = (e.index, nv.f[arc_index].index)
                row(cols, (cap, -1.0), SENSE_GE)  # (2)  e >= f / |T_k|
                row(cols, (1.0, -1.0), SENSE_LE)  # (3)  e <= f

    def _flow_conservation(self) -> None:
        """Constraint (4) at every vertex each net can touch."""
        g, row = self.graph, self.coo.row
        for nv in self.nets:
            # Collect incident arcs per vertex from this net's variables.
            outflow: dict[int, list[int]] = {}
            inflow: dict[int, list[int]] = {}
            for arc_index, f in nv.f.items():
                arc = g.arcs[arc_index]
                outflow.setdefault(arc.tail, []).append(f.index)
                inflow.setdefault(arc.head, []).append(f.index)
            vertices = set(outflow) | set(inflow)
            sink_set = set(nv.supersinks)
            for vertex in vertices:
                out_cols = outflow.get(vertex, [])
                in_cols = inflow.get(vertex, [])
                if vertex == nv.supersource:
                    rhs = float(nv.n_sinks)
                elif vertex in sink_set:
                    rhs = -1.0
                else:
                    rhs = 0.0
                row(
                    out_cols + in_cols,
                    [1.0] * len(out_cols) + [-1.0] * len(in_cols),
                    SENSE_EQ,
                    rhs,
                )

    def _vertex_capacity(self) -> None:
        """At most one net's flow enters any physical vertex."""
        g, row = self.graph, self.coo.row
        entering: dict[int, list[int]] = {}
        for nv in self.nets:
            for arc_index, e in nv.e.items():
                arc = g.arcs[arc_index]
                if arc.layer == -1:
                    continue  # virtual arcs (pin chains) are same-net metal
                if not self._is_physical_vertex(arc.head):
                    continue
                entering.setdefault(arc.head, []).append(e.index)
        for cols in entering.values():
            if len(cols) > 1:
                row(cols, [1.0] * len(cols), SENSE_LE, 1.0)

    def _is_physical_vertex(self, vid: int) -> bool:
        return self.graph.is_grid_vertex(vid) or vid in self._rep_vertices

    def _at_most_one(self, cols: list[int]) -> None:
        """Append ``sum(x[j] for j in cols) <= 1`` for sums that can
        share a column: a repeated column merges into its first
        position, its count the coefficient (as ``LinExpr`` addition
        merged it)."""
        terms: dict[int, float] = {}
        for j in cols:
            terms[j] = terms.get(j, 0.0) + 1.0
        self.coo.row(list(terms), list(terms.values()), SENSE_LE, 1.0)

    def _site_usage(self, x: int, y: int, z: int) -> list[int]:
        """The e columns of via usage at cut-layer site (x, y, z)
        across nets, including any via shapes whose footprint covers
        the site."""
        arcs = self.graph.via_site_arcs.get((x, y, z))
        if arcs is None:
            return []
        cols = []
        up, down = arcs
        for nv in self.nets:
            for arc_index in (up, down):
                e = nv.e.get(arc_index)
                if e is not None:
                    cols.append(e.index)
        if self.rules.allow_via_shapes:
            vid_low = self.graph.vid(x, y, z)
            for inst in self.graph.shape_instances:
                if inst.lower_slot == z and vid_low in inst.lower_members:
                    cols.extend(self._shape_usage(inst))
        return cols

    def _shape_usage(self, inst: ShapeViaInstance) -> list[int]:
        """The e columns of nets' flow entering the shape's rep vertex."""
        cols = []
        for nv in self.nets:
            for arc_index in self.graph.in_arcs[inst.rep]:
                e = nv.e.get(arc_index)
                if e is not None:
                    cols.append(e.index)
        return cols

    def _via_adjacency(self) -> None:
        """Via restriction: a via blocks its neighbor via sites.

        Under FULL, every 2x2 block of sites is a clique of the
        8-neighbour conflict graph and every conflicting pair lies in
        a block, so one at-most-one row per block with two or more
        usable sites has the pair rows' integer points and a tighter
        LP (no 1/2 on each of two diagonal vias).  A via shape covering
        several sites of a block merges into one column with that
        many as coefficient.  ORTHOGONAL's conflict graph is
        bipartite, and a grid one site wide has no blocks: both keep
        one row per conflicting pair, as does the weak form.
        """
        clip = self.clip
        offsets = self.rules.via_restriction.blocked_offsets()
        usage_cache: dict[tuple[int, int, int], list[int]] = {}

        def usage(x: int, y: int, z: int) -> list[int]:
            key = (x, y, z)
            if key not in usage_cache:
                usage_cache[key] = self._site_usage(x, y, z)
            return usage_cache[key]

        if (
            self.strong
            and self.rules.via_restriction is ViaRestriction.FULL
            and clip.nx > 1
            and clip.ny > 1
        ):
            for z in range(clip.nz - 1):
                for y in range(clip.ny - 1):
                    for x in range(clip.nx - 1):
                        used = [
                            u
                            for dx, dy in ((0, 0), (1, 0), (0, 1), (1, 1))
                            if (u := usage(x + dx, y + dy, z))
                        ]
                        if len(used) >= 2:
                            self._at_most_one([j for u in used for j in u])
            return

        for z in range(clip.nz - 1):
            for y in range(clip.ny):
                for x in range(clip.nx):
                    u_here = usage(x, y, z)
                    if not u_here:
                        continue
                    for dx, dy in offsets:
                        x2, y2 = x + dx, y + dy
                        if (x2, y2) < (x, y):
                            continue  # each unordered pair once
                        if not (0 <= x2 < clip.nx and 0 <= y2 < clip.ny):
                            continue
                        u_there = usage(x2, y2, z)
                        if not u_there:
                            continue
                        # A via shape covering both sites counts in both
                        # usages: its columns merge into coefficient 2.
                        self._at_most_one(u_here + u_there)

    def _shape_blocking(self) -> None:
        """Constraint (5): a used via shape reserves its whole footprint."""
        g = self.graph
        for inst in g.shape_instances:
            # entered[k][member]: net k's e columns entering the
            # member, the shape's own exit arcs excluded.
            entered: list[dict[int, list[int]]] = []
            for nv in self.nets:
                per_net: dict[int, list[int]] = {}
                for member in inst.members:
                    cols = []
                    for arc_index in g.in_arcs[member]:
                        if g.arcs[arc_index].tail == inst.rep:
                            continue  # the shape's own exit arc
                        e = nv.e.get(arc_index)
                        if e is not None:
                            cols.append(e.index)
                    per_net[member] = cols
                entered.append(per_net)

            for k, nv in enumerate(self.nets):
                w = [
                    e.index
                    for arc_index in g.in_arcs[inst.rep]
                    if (e := nv.e.get(arc_index)) is not None
                ]
                if not w:
                    continue
                for member in inst.members:
                    others = [
                        j
                        for n, per_net in enumerate(entered)
                        if n != k
                        for j in per_net[member]
                    ]
                    if others:
                        self._at_most_one(others + w)

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
        row = m.row
        horizontal = clip.horizontal[z]

        def along_neighbor(x: int, y: int, direction: int) -> "tuple[int, int] | None":
            if horizontal:
                x2, y2 = x + direction, y
            else:
                x2, y2 = x, y + direction
            if 0 <= x2 < clip.nx and 0 <= y2 < clip.ny:
                return x2, y2
            return None

        # Per-net p variables with the linearized EOL lower bounds, and
        # the global p sums (10) of this layer as per-vertex column
        # lists in net order.
        pos_sum: dict[int, list[int]] = {}
        neg_sum: dict[int, list[int]] = {}
        for k, nv in enumerate(self.nets):
            for y in range(clip.ny):
                for x in range(clip.nx):
                    vid = g.vid(x, y, z)
                    cross = [
                        a for a in g.cross_arcs_at(vid) if a in nv.e
                    ]
                    if not cross:
                        continue
                    for direction, store, sums in (
                        (-1, nv.p_neg, neg_sum),
                        (1, nv.p_pos, pos_sum),
                    ):
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
                        sums.setdefault(vid, []).append(p.index)
                        for arc_index in cross:
                            arc = g.arcs[arc_index]
                            e_cross = nv.e[arc_index].index
                            # Consistent-flow EOL pairs: wire-in + cross-out,
                            # wire-out + cross-in (paper (6)-(7) as lower
                            # bounds of the product linearization (8)):
                            # p - e_wire - e_cross >= -1.
                            for e_wire, end in ((e_in, arc.tail), (e_out, arc.head)):
                                if end == vid and e_wire is not None:
                                    row(
                                        (p.index, e_wire.index, e_cross),
                                        (1.0, -1.0, -1.0),
                                        SENSE_GE,
                                        -1.0,
                                    )
                        # Flow-aware EOL rows: a wire that enters (leaves)
                        # v on this side and does not continue along the
                        # track leaves (enters) through a cross arc, so
                        # p - e_in + e_cont_out >= 0 and
                        # p - e_out + e_cont_in >= 0 (docs/formulation.md).
                        if not self.strong:
                            continue
                        far = along_neighbor(x, y, -direction)
                        cont_arcs = (
                            self._wire_arc_pair(vid, g.vid(*far, z))
                            if far is not None
                            else (None, None)
                        )
                        for e_wire, arc_cont in zip((e_in, e_out), cont_arcs):
                            if e_wire is None:
                                continue
                            cols, vals = [p.index, e_wire.index], [1.0, -1.0]
                            e_cont = nv.e.get(arc_cont) if arc_cont is not None else None
                            if e_cont is not None:
                                cols.append(e_cont.index)
                                vals.append(1.0)
                            row(cols, vals, SENSE_GE)

        # Forbidden patterns (11)-(12): two p sums at most 1.
        def pair(here: list[int], there: "list[int] | None") -> None:
            if there:
                cols = here + there
                row(cols, [1.0] * len(cols), SENSE_LE, 1.0)

        def offset_vid(x: int, y: int, along: int, cross_off: int) -> "int | None":
            x2, y2 = eol_grid_offset(horizontal, x, y, along, cross_off)
            if 0 <= x2 < clip.nx and 0 <= y2 < clip.ny:
                return g.vid(x2, y2, z)
            return None

        opposite = self.rules.sadp.opposite_pairs()
        same_pos = self.rules.sadp.same_pairs(1)
        same_neg = self.rules.sadp.same_pairs(-1)
        for y in range(clip.ny):
            for x in range(clip.nx):
                vid = g.vid(x, y, z)
                # p_pos at vid vs p_neg at mirrored offsets, and polarity
                # swap handled by iterating every vertex.
                pos_here = pos_sum.get(vid)
                neg_here = neg_sum.get(vid)
                if pos_here:
                    for da, dc in opposite:
                        j = offset_vid(x, y, da, dc)
                        if j is not None:
                            pair(pos_here, neg_sum.get(j))
                    for da, dc in same_pos:
                        j = offset_vid(x, y, da, dc)
                        if j is not None and j > vid:
                            pair(pos_here, pos_sum.get(j))
                if neg_here:
                    for da, dc in same_neg:
                        j = offset_vid(x, y, da, dc)
                        if j is not None and j > vid:
                            pair(neg_here, neg_sum.get(j))

    # ---- objective ----------------------------------------------------------

    def _objective(self) -> None:
        cols: list[int] = []
        costs: list[float] = []
        for nv in self.nets:
            for arc_index, e in nv.e.items():
                cost = self.graph.arcs[arc_index].cost
                if cost:
                    cols.append(e.index)
                    costs.append(cost)
        self.coo.objective(cols, costs)
