"""Experiment model for the sweep service: payloads, ids, lifecycle.

An *experiment* is one Δcost study -- a clip set evaluated under a
rule matrix -- submitted over HTTP.  Three design decisions carry the
service's robustness story:

- **Content-addressed ids.**  The experiment id is a SHA-256 over the
  canonical JSON of (tenant, resolved payload).  Submission is
  therefore idempotent: a client that times out and retries its POST
  gets the *same* experiment back instead of a duplicate sweep, with
  no coordination beyond the hash.  Two tenants submitting identical
  payloads get *distinct* experiments (the tenant is inside the hash)
  -- isolation at the experiment level -- while their solves still
  share the content-addressed solve-cache tier, which keys on
  canonical LP bytes and is audit-covered, so the sharing is sound.

- **Resolved-at-submission payloads.**  Synthetic clip requests are
  materialized into concrete clip dicts *before* hashing, so the id
  addresses the actual geometry evaluated, and a restart re-runs
  exactly the accepted experiment even if generator defaults change.

- **An explicit lifecycle state machine.**  QUEUED -> RUNNING ->
  (DEGRADED) -> DONE / FAILED / CANCELLED, with every transition
  validated against :data:`ALLOWED_TRANSITIONS` and journaled to the
  service WAL.  DEGRADED is RUNNING-with-an-asterisk: the experiment
  is still progressing but something reduced its guarantees (a full
  disk absorbed a journal write, overload forced the budget tier
  down); it terminates like RUNNING does.  Crash recovery maps any
  non-terminal state back to QUEUED -- re-running is always sound
  because per-pair results are deterministic and journaled.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, field

from repro.clips.clip import Clip
from repro.clips.serialization import clip_from_dict, clip_to_dict
from repro.eval.rule_configs import paper_rule, rules_for_technology
from repro.router.rules import RuleConfig

#: Schema version of submitted payloads and WAL event records.
PAYLOAD_VERSION = 1

#: Tenant used when a request names none.
DEFAULT_TENANT = "default"


class ExperimentState(enum.Enum):
    QUEUED = "QUEUED"
    RUNNING = "RUNNING"
    DEGRADED = "DEGRADED"
    DONE = "DONE"
    FAILED = "FAILED"
    CANCELLED = "CANCELLED"


#: States no scheduler will touch again (rerun/resume excepted).
TERMINAL_STATES = frozenset(
    {ExperimentState.DONE, ExperimentState.FAILED, ExperimentState.CANCELLED}
)

#: The lifecycle edges.  Everything else is a bug (or corruption) and
#: is rejected by the store.  Terminal -> QUEUED is the explicit
#: rerun/resume edge; RUNNING/DEGRADED -> QUEUED is crash recovery
#: and graceful drain (checkpointed, will resume).
ALLOWED_TRANSITIONS: dict[ExperimentState, frozenset[ExperimentState]] = {
    ExperimentState.QUEUED: frozenset(
        {ExperimentState.RUNNING, ExperimentState.CANCELLED}
    ),
    ExperimentState.RUNNING: frozenset(
        {
            ExperimentState.DEGRADED,
            ExperimentState.DONE,
            ExperimentState.FAILED,
            ExperimentState.CANCELLED,
            ExperimentState.QUEUED,
        }
    ),
    ExperimentState.DEGRADED: frozenset(
        {
            ExperimentState.DONE,
            ExperimentState.FAILED,
            ExperimentState.CANCELLED,
            ExperimentState.QUEUED,
        }
    ),
    ExperimentState.DONE: frozenset({ExperimentState.QUEUED}),
    ExperimentState.FAILED: frozenset({ExperimentState.QUEUED}),
    ExperimentState.CANCELLED: frozenset({ExperimentState.QUEUED}),
}


class PayloadError(ValueError):
    """A submitted payload is malformed; maps to HTTP 400."""


def canonical_json(obj: object) -> str:
    """Deterministic JSON text: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def experiment_id(tenant: str, canonical_payload: dict) -> str:
    """Content-addressed id over (tenant, resolved payload).

    16 hex chars (64 bits) -- short enough for URLs and log lines,
    collision-free at any realistic experiment count.
    """
    digest = hashlib.sha256(
        canonical_json({
            "tenant": tenant,
            "experiment": canonical_payload,
        }).encode("utf-8")
    ).hexdigest()
    return digest[:16]


@dataclass
class ResolvedExperiment:
    """A validated submission, in canonical (hashable) form."""

    tenant: str
    tech: str
    clips: list[Clip]
    rules: list[RuleConfig]
    time_limit: float
    time_budget: "float | None"
    canonical: dict = field(default_factory=dict)

    @property
    def n_pairs(self) -> int:
        return len(self.clips) * len(self.rules)

    @property
    def hardness(self) -> float:
        """Scheduler ordering key: predicted total solve difficulty."""
        from repro.exec.portfolio import hardness

        return sum(hardness(clip) for clip in self.clips) * len(self.rules)


def resolve_payload(
    payload: dict,
    *,
    tenant: "str | None" = None,
    default_time_limit: float = 20.0,
) -> ResolvedExperiment:
    """Validate and canonicalize one submission payload.

    Accepts either concrete ``clips`` (the serialization-module dict
    form) or a ``synthetic`` generator spec (count + dimensions +
    seed), plus an optional ``rules`` name list (default: the tech's
    Table 3 set) and solver knobs.  Raises :class:`PayloadError` with
    a client-actionable message on anything malformed.
    """
    if not isinstance(payload, dict):
        raise PayloadError("payload must be a JSON object")
    version = payload.get("version", PAYLOAD_VERSION)
    if version != PAYLOAD_VERSION:
        raise PayloadError(
            f"unsupported payload version {version!r} "
            f"(this server speaks version {PAYLOAD_VERSION})"
        )
    resolved_tenant = str(
        tenant if tenant is not None else payload.get("tenant", DEFAULT_TENANT)
    )
    if not resolved_tenant or "/" in resolved_tenant:
        raise PayloadError("tenant must be a non-empty name without '/'")

    tech = str(payload.get("tech", "N7-9T"))
    clips = _resolve_clips(payload)
    rules = _resolve_rules(payload, tech)

    time_limit = payload.get("time_limit", default_time_limit)
    try:
        time_limit = float(time_limit)
    except (TypeError, ValueError):
        raise PayloadError("time_limit must be a number") from None
    if time_limit <= 0:
        raise PayloadError("time_limit must be > 0")

    time_budget = payload.get("time_budget")
    if time_budget is not None:
        try:
            time_budget = float(time_budget)
        except (TypeError, ValueError):
            raise PayloadError("time_budget must be a number") from None
        if time_budget <= 0:
            raise PayloadError("time_budget must be > 0")

    canonical = {
        "version": PAYLOAD_VERSION,
        "tech": tech,
        "clips": [clip_to_dict(clip) for clip in clips],
        "rules": [rule.name for rule in rules],
        "time_limit": time_limit,
        "time_budget": time_budget,
    }
    return ResolvedExperiment(
        tenant=resolved_tenant,
        tech=tech,
        clips=clips,
        rules=rules,
        time_limit=time_limit,
        time_budget=time_budget,
        canonical=canonical,
    )


def resolve_canonical(tenant: str, canonical: dict) -> ResolvedExperiment:
    """Rebuild a :class:`ResolvedExperiment` from its canonical form
    (WAL replay: the stored payload is already resolved)."""
    resolved = resolve_payload(canonical, tenant=tenant)
    if resolved.canonical != canonical:
        # Canonicalization must be a fixpoint; anything else means the
        # stored payload predates a format change we cannot honor.
        raise PayloadError("stored payload does not re-canonicalize")
    return resolved


def _resolve_clips(payload: dict) -> list[Clip]:
    has_clips = "clips" in payload
    has_synthetic = "synthetic" in payload
    if has_clips == has_synthetic:
        raise PayloadError(
            "payload needs exactly one of 'clips' (serialized clip "
            "list) or 'synthetic' (generator spec)"
        )
    if has_clips:
        raw = payload["clips"]
        if not isinstance(raw, list) or not raw:
            raise PayloadError("'clips' must be a non-empty list")
        try:
            clips = [clip_from_dict(entry) for entry in raw]
        except (KeyError, TypeError, ValueError) as exc:
            raise PayloadError(f"bad clip entry: {exc}") from None
    else:
        spec = payload["synthetic"]
        if not isinstance(spec, dict):
            raise PayloadError("'synthetic' must be an object")
        from repro.clips import SyntheticClipSpec, make_synthetic_clip

        try:
            count = int(spec.get("count", 2))
            seed0 = int(spec.get("seed0", 0))
            clip_spec = SyntheticClipSpec(
                nx=int(spec.get("nx", 5)),
                ny=int(spec.get("ny", 6)),
                nz=int(spec.get("nz", 3)),
                n_nets=int(spec.get("nets", 2)),
                sinks_per_net=int(spec.get("sinks", 1)),
                access_points_per_pin=int(spec.get("access_points", 2)),
            )
        except (TypeError, ValueError) as exc:
            raise PayloadError(f"bad synthetic spec: {exc}") from None
        if not 1 <= count <= 64:
            raise PayloadError("synthetic count must be in [1, 64]")
        clips = [
            make_synthetic_clip(clip_spec, seed=seed0 + i)
            for i in range(count)
        ]
    names = [clip.name for clip in clips]
    if len(set(names)) != len(names):
        raise PayloadError("clip names must be unique within a payload")
    return clips


def _resolve_rules(payload: dict, tech: str) -> list[RuleConfig]:
    names = payload.get("rules")
    if names is None:
        rules = rules_for_technology(tech)
        if not rules:
            raise PayloadError(f"no rules applicable to tech {tech!r}")
        return rules
    if not isinstance(names, list) or not names:
        raise PayloadError("'rules' must be a non-empty list of rule names")
    try:
        rules = [paper_rule(str(name)) for name in names]
    except KeyError as exc:
        raise PayloadError(str(exc.args[0])) from None
    rule_names = [rule.name for rule in rules]
    if len(set(rule_names)) != len(rule_names):
        raise PayloadError("rule names must be unique within a payload")
    return rules


@dataclass
class Experiment:
    """One accepted experiment and its in-memory runtime state.

    Durable facts (id, tenant, payload, state transitions) live in
    the service WAL; everything else here is rebuilt on recovery.
    """

    id: str
    tenant: str
    resolved: ResolvedExperiment
    state: ExperimentState = ExperimentState.QUEUED
    seq: int = 0
    detail: str = ""
    #: True once any guarantee was reduced (absorbed disk failure,
    #: forced budget tier); survives into the terminal state.
    degraded: bool = False
    #: current degradation tier (0 = full service; see scheduler).
    degrade_tier: int = 0
    #: journaled (clip, rule) pairs, for progress reporting.
    completed_pairs: int = 0
    #: rendered Δcost report, cached after a run (rebuildable).
    report: "str | None" = None
    #: set by the cancel endpoint while RUNNING; the scheduler turns
    #: the resulting checkpoint-stop into CANCELLED instead of QUEUED.
    cancel_requested: bool = False

    @property
    def n_pairs(self) -> int:
        return self.resolved.n_pairs

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def summary(self) -> dict:
        return {
            "id": self.id,
            "tenant": self.tenant,
            "state": self.state.value,
            "detail": self.detail,
            "degraded": self.degraded,
            "degrade_tier": self.degrade_tier,
            "tech": self.resolved.tech,
            "clips": [clip.name for clip in self.resolved.clips],
            "rules": [rule.name for rule in self.resolved.rules],
            "n_pairs": self.n_pairs,
            "completed_pairs": self.completed_pairs,
        }
