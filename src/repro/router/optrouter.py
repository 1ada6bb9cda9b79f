"""OptRouter: optimal rule-aware switchbox routing (the paper's core).

Given a clip and a rule configuration, OptRouter builds the Section-3
ILP, solves it exactly, and decodes the minimum-cost routing.  The
paper's evaluation cost is ``wirelength + 4 x #vias``; both weights are
configurable.
"""

from __future__ import annotations

import enum
import time
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.analysis.certify import certify_infeasible
from repro.analysis.findings import InfeasibilityCertificate
from repro.clips.clip import Clip
from repro.ilp.bnb import BnBOptions, solve_with_bnb
from repro.ilp.csr import CsrModel
from repro.ilp.highs_backend import solve_with_highs
from repro.ilp.solve_cache import SolveCache
from repro.ilp.status import Solution, SolveStatus
from repro.router.formulation import RoutingIlp, build_routing_ilp
from repro.router.rules import RuleConfig
from repro.router.solution import ClipRouting, decode_solution


@dataclass(frozen=True)
class WarmStart:
    """Cross-rule seed for :meth:`OptRouter.route`.

    Produced by the incremental sweep (:func:`repro.eval.flow.warm_job`)
    from the clip's *settled* outcomes under other rules, over edges
    proven to be restrictions (see
    :func:`repro.router.rules.is_restriction` and
    :mod:`repro.analysis.semantics.restriction`):

    - ``infeasible``: a rule the follower restricts was *proven*
      infeasible; the follower inherits the proof, so it is INFEASIBLE
      without building or solving anything.
    - ``routing``/``cost``: a settled routing of another rule on the
      same routing graph.  If it passes the follower rule's DRC oracle
      and ``cost`` meets ``lower_bound``, it is returned as the
      follower's optimum -- again solver-free.  A routing that fails
      DRC is discarded (it can never be returned), and the solve
      proceeds cold.
    - ``lower_bound``: the optimum of a rule the follower restricts,
      valid for the follower because restrictions only shrink the
      feasible set over the same objective.  It only gates the
      routing shortcut; a cold solve never receives it.
    """

    routing: "ClipRouting | None" = None
    cost: float | None = None
    lower_bound: float | None = None
    infeasible: bool = False


class RouteStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"  # no rule-correct routing exists
    LIMIT = "limit"            # solver budget exhausted before a proof
    TIMEOUT = "timeout"        # reaped at the supervisor's hard deadline
    ERROR = "error"            # solver/worker failure (crash, bad result)


@dataclass
class OptRouteResult:
    """Outcome of routing one clip under one rule configuration.

    ``backend``/``attempts``/``degraded`` are provenance tags filled in
    by the supervised runner (:mod:`repro.exec.runner`): which backend
    produced the result, how many attempts it took across the fallback
    chain, and whether the producing backend was a non-primary fallback
    (so the result carries no optimality guarantee).  ``diagnostics``
    records the failure history for ERROR/TIMEOUT results.
    """

    clip_name: str
    rule_name: str
    status: RouteStatus
    cost: float | None = None
    wirelength: int = 0
    n_vias: int = 0
    routing: ClipRouting | None = None
    #: pure backend time; see also ``build_seconds`` -- the phases
    #: are disjoint, so their sum is the pair's compute cost.
    solve_seconds: float = 0.0
    build_seconds: float = 0.0
    #: canonical-serialization time: hashing the model into its
    #: content address for the solve cache (0 when no cache is
    #: configured; the other phase clocks never include it).
    serialize_seconds: float = 0.0
    #: ``""`` for a cold solve, else the solver-free shortcut taken:
    #: ``"inherited-infeasible"`` or ``"reused-optimal"``.
    warm_used: str = ""
    #: the solve came from the persistent solve cache, not a backend.
    cache_hit: bool = False
    #: best proven dual/lower bound on the optimum (true objective
    #: space), exported by the backend.  OPTIMAL claims must have
    #: ``bound == cost`` -- the :mod:`repro.verify` audit asserts it.
    bound: float | None = None
    #: ``cost - bound`` for LIMIT results carrying an incumbent, so a
    #: budget-exhausted row is interpretable (how far from proven
    #: optimal it might be).  0.0 for OPTIMAL; ``None`` when either
    #: side is unknown.
    gap: float | None = None
    n_nodes: int = 0
    model_stats: dict[str, int] = field(default_factory=dict)
    certificate: InfeasibilityCertificate | None = None
    backend: str = ""
    attempts: int = 1
    degraded: bool = False
    diagnostics: str | None = None
    #: per-attempt provenance filled in by the supervised runner: one
    #: ``{"attempt", "backend", "outcome", "detail", "seconds"}`` dict
    #: per attempt (including the successful one), so a journal record
    #: explains *how* its result was obtained, not just what it is.
    attempt_log: list[dict] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return self.status is RouteStatus.OPTIMAL

    @property
    def failed(self) -> bool:
        """True when no solve outcome exists (crash or reaped job)."""
        return self.status in (RouteStatus.ERROR, RouteStatus.TIMEOUT)

    @property
    def certified(self) -> bool:
        """True when infeasibility was proven statically, solver-free."""
        return self.certificate is not None


@dataclass
class OptRouter:
    """ILP-based optimal detailed router for clips.

    Attributes:
        wire_cost / via_cost: the paper's routing-cost weights
            (1 and 4).
        backend: ``"highs"`` (default) or ``"bnb"`` (the pure-Python
            cross-validation solver).
        time_limit: per-clip solver budget in seconds (None = none).
        certify: run the static infeasibility certifier before the
            solve and short-circuit certified (clip, rule) pairs to
            ``INFEASIBLE`` without building the ILP.  The certifier is
            sound, so this never changes a feasible outcome.
    """

    wire_cost: float = 1.0
    via_cost: float = 4.0
    backend: str = "highs"
    time_limit: float | None = None
    certify: bool = True
    #: reuse the per-clip BaseFormulation from the process-wide cache
    #: (off = cold rebuild per call; the benchmark's control arm).
    reuse_formulation: bool = True
    #: persistent content-addressed solve cache (None = disabled).
    solve_cache: SolveCache | None = None
    #: cooperative cancellation hook passed through to the backends
    #: (polled by B&B at its deadline checks; checked pre-solve by
    #: HiGHS).  In-process only -- not picklable, not part of the
    #: solve-cache key, and can only turn a solve into LIMIT earlier,
    #: never change a completed answer.
    cancel_check: "Callable[[], bool] | None" = None

    def build(self, clip: Clip, rules: RuleConfig) -> RoutingIlp:
        """Build (but do not solve) the ILP for inspection/analysis."""
        return build_routing_ilp(
            clip, rules, wire_cost=self.wire_cost, via_cost=self.via_cost,
            reuse=self.reuse_formulation,
        )

    def _solve_model(
        self, model: CsrModel, time_limit: float | None
    ) -> Solution:
        if self.backend == "highs":
            # HiGHS consumes the columnar form zero-copy.
            return solve_with_highs(
                model, time_limit=time_limit, should_stop=self.cancel_check
            )
        if self.backend == "bnb":
            options = BnBOptions(
                time_limit=time_limit, should_stop=self.cancel_check
            )
            return solve_with_bnb(model.to_model(), options)
        raise ValueError(f"unknown backend {self.backend!r}")

    def _cache_options(self) -> dict:
        """The solver knobs that make an otherwise-identical model
        solve differently; part of the solve-cache key."""
        return {
            "backend": self.backend,
            "time_limit": self.time_limit,
        }

    def _check_warm(
        self, clip: Clip, rules: RuleConfig, warm: WarmStart
    ) -> "OptRouteResult | None":
        """Try the solver-free warm shortcuts; None = solve cold."""
        if warm.infeasible:
            return OptRouteResult(
                clip_name=clip.name,
                rule_name=rules.name,
                status=RouteStatus.INFEASIBLE,
                backend=self.backend,
                warm_used="inherited-infeasible",
                diagnostics="a rule this one restricts was proven "
                "infeasible; the restriction inherits the proof",
            )
        if (
            warm.routing is None
            or warm.cost is None
            or warm.lower_bound is None
            or warm.cost > warm.lower_bound + 1e-6
        ):
            return None
        from repro.drc.checker import check_clip_routing  # avoid cycle

        if check_clip_routing(clip, rules, warm.routing):
            return None  # infeasible under the new rule: never reuse
        return OptRouteResult(
            clip_name=clip.name,
            rule_name=rules.name,
            status=RouteStatus.OPTIMAL,
            cost=warm.cost,
            wirelength=warm.routing.total_wirelength,
            n_vias=warm.routing.total_vias,
            routing=warm.routing,
            bound=warm.lower_bound,
            gap=0.0,
            backend=self.backend,
            warm_used="reused-optimal",
        )

    def route(
        self,
        clip: Clip,
        rules: RuleConfig | None = None,
        warm: WarmStart | None = None,
    ) -> OptRouteResult:
        """Optimally route a clip under a rule configuration.

        ``warm`` carries other rules' settled outcomes (see
        :class:`WarmStart`); it is only ever used through sound
        shortcuts -- an inherited infeasibility proof, or a routing
        re-verified by the DRC oracle whose cost meets the inherited
        lower bound -- so results are identical to a cold solve.
        """
        if rules is None:
            rules = RuleConfig()
        if self.certify:
            certificate = certify_infeasible(clip, rules)
            if certificate is not None:
                return OptRouteResult(
                    clip_name=clip.name,
                    rule_name=rules.name,
                    status=RouteStatus.INFEASIBLE,
                    certificate=certificate,
                    backend=self.backend,
                )
        if warm is not None:
            shortcut = self._check_warm(clip, rules, warm)
            if shortcut is not None:
                return shortcut
        t0 = time.perf_counter()
        ilp = self.build(clip, rules)
        build_seconds = time.perf_counter() - t0
        cache_hit = False
        cache_options = self._cache_options()
        solution: Solution | None = None
        serialize_seconds = 0.0
        cache_key: str | None = None
        if self.solve_cache is not None:
            t_ser = time.perf_counter()
            cache_key = self.solve_cache.key_for(ilp.csr, cache_options)
            serialize_seconds = time.perf_counter() - t_ser
            entry = self.solve_cache.get(ilp.csr, cache_options, key=cache_key)
            if entry is not None:
                solution = entry.to_solution(ilp.csr)
                cache_hit = True
        if solution is None:
            solution = self._solve_model(ilp.csr, self.time_limit)
            if self.solve_cache is not None:
                self.solve_cache.put(
                    ilp.csr, cache_options, solution, key=cache_key
                )
        result = OptRouteResult(
            clip_name=clip.name,
            rule_name=rules.name,
            status=_route_status(solution.status),
            solve_seconds=solution.solve_seconds,
            build_seconds=build_seconds,
            serialize_seconds=serialize_seconds,
            cache_hit=cache_hit,
            bound=solution.best_bound,
            n_nodes=solution.n_nodes,
            model_stats=ilp.csr.stats(),
            backend=self.backend,
        )
        if result.status is RouteStatus.OPTIMAL:
            result.gap = 0.0
        if solution.values and solution.status in (
            SolveStatus.OPTIMAL,
            SolveStatus.LIMIT,
        ):
            routing = decode_solution(ilp, solution)
            result.routing = routing
            result.cost = solution.objective
            result.wirelength = routing.total_wirelength
            result.n_vias = routing.total_vias
            if (
                result.status is RouteStatus.LIMIT
                and result.cost is not None
                and result.bound is not None
            ):
                result.gap = max(0.0, result.cost - result.bound)
        return result


def _route_status(status: SolveStatus) -> RouteStatus:
    if status is SolveStatus.OPTIMAL:
        return RouteStatus.OPTIMAL
    if status is SolveStatus.INFEASIBLE:
        return RouteStatus.INFEASIBLE
    if status in (SolveStatus.ERROR, SolveStatus.UNBOUNDED):
        # A routing ILP is bounded by construction; either outcome is
        # a solver failure, not a statement about the clip.
        return RouteStatus.ERROR
    return RouteStatus.LIMIT
