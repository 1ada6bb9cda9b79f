"""Result auditing: certificates plus solver-level cross-checks.

:class:`ResultAuditor` wraps :func:`repro.verify.certificate.certify_result`
with the two escalations that need a solver:

- **Cross-backend sampling** -- a deterministic sample of (clip, rule)
  pairs (keyed on a hash of the names, so cold, resumed and replayed
  sweeps sample identically) is re-solved raw on the *other* backend
  (``highs`` <-> ``bnb``) with certification disabled, and the
  status/objective compared.  Any disagreement fails the
  certificate -- the caller quarantines the result.
- **Infeasibility confirmation** -- an INFEASIBLE claim the static
  certifier cannot reach is confirmed on the alternate backend (a
  LIMIT answer is inconclusive and recorded as unverified rather than
  treated as refutation).

Healing is the caller's job: :func:`repro.eval.flow.evaluate_clips`
re-solves quarantined pairs cold and re-audits the replacement.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.clips.clip import Clip
from repro.router.optrouter import OptRouteResult, OptRouter, RouteStatus
from repro.router.rules import RuleConfig
from repro.verify.certificate import COST_TOL, ResultCertificate, certify_result


@dataclass(frozen=True)
class AuditConfig:
    """Knobs of the result audit.

    ``cross_check_fraction`` in [0, 1] selects the deterministic
    sample of pairs re-solved on the alternate backend (0 disables
    sampling).  Statically-unreached INFEASIBLE claims always go to
    the alternate backend.  ``time_limit`` bounds each audit solve
    (None = unbounded).
    """

    cross_check_fraction: float = 0.0
    time_limit: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.cross_check_fraction <= 1.0:
            raise ValueError("cross_check_fraction must be in [0, 1]")


def _alternate_backend(backend: str) -> str:
    return "bnb" if backend == "highs" else "highs"


def sample_key(clip_name: str, rule_name: str) -> float:
    """Deterministic position of a pair in [0, 1) for sampling.

    Hash-based, not RNG-based: the same pair lands on the same side of
    any fraction in every run, so resumed and cache-replayed sweeps
    audit the same sample and reports stay reproducible.
    """
    digest = hashlib.sha256(
        f"{clip_name}\x00{rule_name}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


class ResultAuditor:
    """Audits results against their (clip, rule) ground truth."""

    def __init__(
        self,
        wire_cost: float = 1.0,
        via_cost: float = 4.0,
        backend: str = "highs",
        config: AuditConfig | None = None,
    ):
        self.wire_cost = wire_cost
        self.via_cost = via_cost
        self.backend = backend
        self.config = config if config is not None else AuditConfig()

    # -- selection ----------------------------------------------------------

    def sampled(self, clip_name: str, rule_name: str) -> bool:
        fraction = self.config.cross_check_fraction
        if fraction <= 0.0:
            return False
        return sample_key(clip_name, rule_name) < fraction

    # -- auditing -----------------------------------------------------------

    def audit(
        self, clip: Clip, rules: RuleConfig, result: OptRouteResult
    ) -> ResultCertificate:
        """Certify the result; escalate to the alternate backend where
        the certificate alone cannot confirm the claim."""
        certificate = certify_result(
            clip, rules, result,
            wire_cost=self.wire_cost, via_cost=self.via_cost,
        )
        needs_infeasible_confirm = "infeasible-claim" in certificate.unverified
        needs_sample = result.status in (
            RouteStatus.OPTIMAL, RouteStatus.INFEASIBLE
        ) and self.sampled(result.clip_name, result.rule_name)
        if needs_infeasible_confirm or needs_sample:
            self._cross_check(certificate, clip, rules, result)
        return certificate

    def _cross_check(
        self,
        certificate: ResultCertificate,
        clip: Clip,
        rules: RuleConfig,
        result: OptRouteResult,
    ) -> None:
        """Raw re-solve on the alternate backend; compare the claims.

        Static certification, warm starts and caches are all disabled
        so the reference shares as little machinery with the audited
        path as possible.
        """
        other = _alternate_backend(result.backend or self.backend)
        reference = OptRouter(
            wire_cost=self.wire_cost,
            via_cost=self.via_cost,
            backend=other,
            time_limit=self.config.time_limit,
            certify=False,
        ).route(clip, rules)
        if "infeasible-claim" in certificate.unverified:
            certificate.unverified.remove("infeasible-claim")

        if reference.status is RouteStatus.LIMIT and reference.cost is None:
            # Budget ran out before any conclusion: inconclusive.
            certificate.unverified.append(f"cross-check[{other}]-inconclusive")
            return
        if reference.failed:
            certificate.unverified.append(f"cross-check[{other}]-failed")
            return

        if result.status is RouteStatus.INFEASIBLE:
            if reference.status is RouteStatus.INFEASIBLE:
                certificate.add(
                    "cross-backend", True, f"{other} confirms INFEASIBLE"
                )
            else:
                certificate.add(
                    "cross-backend", False,
                    f"claimed INFEASIBLE but {other} found "
                    f"{reference.status.value}"
                    + (
                        f" at cost {reference.cost}"
                        if reference.cost is not None
                        else ""
                    ),
                )
            return

        # OPTIMAL claim.
        if reference.status is RouteStatus.INFEASIBLE:
            certificate.add(
                "cross-backend", False,
                f"claimed OPTIMAL but {other} proves INFEASIBLE",
            )
            return
        if reference.status is RouteStatus.OPTIMAL:
            assert reference.cost is not None
            same = (
                result.cost is not None
                and abs(result.cost - reference.cost) <= COST_TOL
            )
            certificate.add(
                "cross-backend", same,
                "" if same else (
                    f"objective disagrees: claimed {result.cost}, "
                    f"{other} proves {reference.cost}"
                ),
            )
            return
        # Reference hit its limit with an incumbent: it can refute an
        # optimality claim only if it beat the claimed optimum.
        if (
            reference.cost is not None
            and result.cost is not None
            and reference.cost < result.cost - COST_TOL
        ):
            certificate.add(
                "cross-backend", False,
                f"{other} incumbent {reference.cost} beats claimed "
                f"optimum {result.cost}",
            )
        else:
            certificate.unverified.append(f"cross-check[{other}]-inconclusive")
