"""Independent certification of routing results.

Every :class:`~repro.router.optrouter.OptRouteResult` that reaches a
report has travelled one of several trust-expanding paths (cold solve,
degraded fallback, warm-start reuse, solve-cache replay).  :func:`certify_result` audits the claim
itself, independent of how it was produced:

- **Feasibility** -- the objective is recomputed from the emitted
  geometry (``wire_cost * wirelength + via_cost * n_vias``), per-net
  flow connectivity is re-checked with a BFS written independently of
  the solver and formulation, and the full DRC oracle is run.
- **Optimality** -- an OPTIMAL claim must carry a proven dual bound
  equal to its objective (``OptRouteResult.bound``); a LIMIT claim
  records its incumbent/bound gap instead of asserting tightness.
- **Infeasibility** -- an INFEASIBLE claim is confirmed by the static
  certifier (:func:`repro.analysis.certify.certify_infeasible`) when
  possible; claims the certifier cannot reach are flagged for
  solver-level confirmation (see :class:`repro.verify.audit.ResultAuditor`).

A certificate never mutates the result; callers (the audited eval
sweep, the ``repro audit`` CLI) decide what to do with a failure --
typically quarantine the result and heal it with a fresh cold solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.certify import certify_infeasible
from repro.clips.clip import Clip, Vertex
from repro.ilp.status import COST_TOL
from repro.router.optrouter import OptRouteResult, RouteStatus
from repro.router.rules import RuleConfig
from repro.router.solution import ClipRouting, NetSolution


@dataclass(frozen=True)
class CertificateCheck:
    """One audited property of a result claim."""

    name: str
    ok: bool
    detail: str = ""

    def __str__(self) -> str:
        mark = "ok" if self.ok else "FAIL"
        return f"[{mark}] {self.name}" + (f": {self.detail}" if self.detail else "")


@dataclass
class ResultCertificate:
    """The audit trail of one result: which checks ran and how.

    ``ok`` is True iff every executed check passed.  ``unverified``
    names aspects the certificate could not check independently (e.g.
    an INFEASIBLE claim outside the static certifier's reach); the
    auditor escalates those to a solver-level cross-check.
    """

    clip_name: str
    rule_name: str
    claimed_status: RouteStatus
    provenance: str = ""
    checks: list[CertificateCheck] = field(default_factory=list)
    unverified: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def failures(self) -> list[CertificateCheck]:
        return [check for check in self.checks if not check.ok]

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(CertificateCheck(name, ok, detail))

    def to_dict(self) -> dict:
        return {
            "clip": self.clip_name,
            "rule": self.rule_name,
            "status": self.claimed_status.value,
            "provenance": self.provenance,
            "ok": self.ok,
            "checks": [
                {"name": c.name, "ok": c.ok, "detail": c.detail}
                for c in self.checks
            ],
            "unverified": list(self.unverified),
        }

    def __str__(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        body = "; ".join(str(c) for c in self.checks) or "no checks"
        return (
            f"certificate[{verdict}] {self.clip_name}/{self.rule_name} "
            f"({self.claimed_status.value}): {body}"
        )


def recompute_cost(
    routing: ClipRouting, wire_cost: float = 1.0, via_cost: float = 4.0
) -> float:
    """The objective the emitted geometry actually costs."""
    return (
        wire_cost * routing.total_wirelength + via_cost * routing.total_vias
    )


def _net_component(net: NetSolution, clip_net) -> "set[Vertex]":
    """Vertices reachable from the net's source over its own geometry.

    Written independently of the DRC checker: adjacency is rebuilt
    from the raw wire edges, single vias, and via-shape members, with
    each pin's access vertices fused (pin metal conducts).
    """
    adj: dict[Vertex, set[Vertex]] = {}

    def link(a: Vertex, b: Vertex) -> None:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)

    for a, b in net.wire_edges:
        link(a, b)
    for x, y, z in net.vias:
        link((x, y, z), (x, y, z + 1))
    for use in net.shape_vias:
        members = [*use.lower_members, *use.upper_members]
        for member in members[1:]:
            link(members[0], member)
    for pin in clip_net.pins:
        access = sorted(pin.access)
        for vertex in access[1:]:
            link(access[0], vertex)

    frontier = [v for v in clip_net.source.access if v in adj]
    reached: set[Vertex] = set(clip_net.source.access)
    while frontier:
        v = frontier.pop()
        for nxt in adj.get(v, ()):
            if nxt not in reached:
                reached.add(nxt)
                frontier.append(nxt)
    return reached


def check_connectivity(clip: Clip, routing: ClipRouting) -> list[str]:
    """Per-net open check; returns a description per open sink."""
    by_name = {net.name: net for net in clip.nets}
    opens: list[str] = []
    for net in routing.nets:
        clip_net = by_name.get(net.net_name)
        if clip_net is None:
            opens.append(f"{net.net_name}: not a net of this clip")
            continue
        reached = _net_component(net, clip_net)
        for index, sink in enumerate(clip_net.sinks):
            if not (set(sink.access) & reached):
                opens.append(
                    f"{net.net_name}: sink {index} not connected to source"
                )
    return opens


def _certify_geometry(
    certificate: ResultCertificate,
    clip: Clip,
    rules: RuleConfig,
    result: OptRouteResult,
    wire_cost: float,
    via_cost: float,
) -> None:
    """Feasibility checks on a result that carries a routing."""
    routing = result.routing
    assert routing is not None
    wirelength = routing.total_wirelength
    n_vias = routing.total_vias
    if result.wirelength != wirelength or result.n_vias != n_vias:
        certificate.add(
            "geometry-metrics", False,
            f"claimed wl={result.wirelength}/vias={result.n_vias}, "
            f"geometry has wl={wirelength}/vias={n_vias}",
        )
    else:
        certificate.add("geometry-metrics", True)
    recomputed = recompute_cost(routing, wire_cost, via_cost)
    if result.cost is None or abs(recomputed - result.cost) > COST_TOL:
        certificate.add(
            "geometry-objective", False,
            f"claimed cost={result.cost}, geometry costs {recomputed}",
        )
    else:
        certificate.add("geometry-objective", True)

    opens = check_connectivity(clip, routing)
    certificate.add(
        "connectivity", not opens, "; ".join(opens[:5])
    )

    # Imported late: repro.drc imports router.solution, keep the
    # verify layer import-light for the artifact modules below it.
    from repro.drc.checker import check_clip_routing

    violations = check_clip_routing(clip, rules, routing)
    certificate.add(
        "drc-clean",
        not violations,
        "; ".join(str(v) for v in violations[:5]),
    )


def certify_result(
    clip: Clip,
    rules: RuleConfig,
    result: OptRouteResult,
    *,
    wire_cost: float = 1.0,
    via_cost: float = 4.0,
) -> ResultCertificate:
    """Audit one result claim; solver-free (see module docstring)."""
    provenance = result.warm_used or (
        "cache-replay" if result.cache_hit
        else "degraded" if result.degraded
        else "certified-static" if result.certified
        else "cold"
    )
    certificate = ResultCertificate(
        clip_name=result.clip_name,
        rule_name=result.rule_name,
        claimed_status=result.status,
        provenance=provenance,
    )

    if result.status is RouteStatus.OPTIMAL:
        if result.routing is None or result.cost is None:
            certificate.add(
                "has-routing", False,
                "OPTIMAL claim without routing geometry or cost",
            )
            return certificate
        certificate.add("has-routing", True)
        _certify_geometry(certificate, clip, rules, result, wire_cost, via_cost)
        if result.bound is None:
            certificate.add(
                "bound-tight", False, "no dual bound exported for OPTIMAL claim"
            )
        elif abs(result.cost - result.bound) > COST_TOL:
            certificate.add(
                "bound-tight", False,
                f"objective {result.cost} != proven bound {result.bound}",
            )
        else:
            certificate.add("bound-tight", True)
        return certificate

    if result.status is RouteStatus.INFEASIBLE:
        if result.certificate is not None:
            certificate.add(
                "infeasible-static", True, str(result.certificate)
            )
            return certificate
        independent = certify_infeasible(clip, rules)
        if independent is not None:
            certificate.add("infeasible-static", True, str(independent))
        else:
            # Sound-but-incomplete certifier could not reach the claim;
            # only a solver can confirm or refute it.
            certificate.unverified.append("infeasible-claim")
        return certificate

    if result.status is RouteStatus.LIMIT:
        if result.routing is not None:
            # The incumbent must still be a real routing at its
            # claimed cost, even without an optimality proof.
            _certify_geometry(
                certificate, clip, rules, result, wire_cost, via_cost
            )
        elif result.cost is not None:
            # e.g. a degraded baseline result: metrics without geometry.
            certificate.unverified.append("limit-incumbent-geometry")
        if result.gap is None and result.cost is not None:
            certificate.unverified.append("limit-gap")
        return certificate

    # ERROR / TIMEOUT: no solve outcome exists; nothing to certify
    # (and Δcost accounting already excludes these statuses).
    return certificate
