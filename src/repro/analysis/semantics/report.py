"""Structured findings of the formulation-semantics analyses.

Everything here serializes to JSON deterministically: dictionaries are
emitted with sorted keys, finding lists are sorted by a total order,
and every top-level payload carries :data:`SCHEMA_VERSION` so CI can
byte-diff reports across runs and detect format drift explicitly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

#: Version of the JSON report schema emitted by ``repro analyze`` (and
#: by the sorted ``repro lint`` payload).  Bump on breaking changes.
SCHEMA_VERSION = 1

#: The rule families the equivalence checker reasons about, i.e. the
#: DRC violation kinds a local routing pattern can exhibit (``open`` is
#: excluded: enumerated patterns are connected by construction).
FAMILIES = (
    "blockages",
    "directions",
    "sadp_eol",
    "shorts",
    "via_adjacency",
)

#: DRC violation kind -> rule family.
VIOLATION_FAMILY = {
    "obstacle": "blockages",
    "direction": "directions",
    "sadp_eol": "sadp_eol",
    "short": "shorts",
    "pin_short": "shorts",
    "via_adjacency": "via_adjacency",
    "open": "connectivity",
}


@dataclass(frozen=True)
class SemanticsFinding:
    """One equivalence counterexample: a local routing pattern on which
    the built ILP and the geometric DRC oracle disagree.

    ``kind`` is ``"unsound"`` (the ILP accepts an assignment whose
    decoded routing violates DRC -- the encoding under-constrains) or
    ``"incomplete"`` (a DRC-clean pattern admits no feasible
    assignment -- the encoding over-constrains, e.g. a rule-delta bug
    silently cut legal routings).  ``pattern`` is the
    minimal witness: per net, its wire edges and via sites.
    """

    kind: str
    family: str
    clip_name: str
    rule_name: str
    message: str
    pattern: tuple[tuple[str, Any], ...] = ()
    violations: tuple[str, ...] = ()
    size: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "family": self.family,
            "clip": self.clip_name,
            "rule": self.rule_name,
            "message": self.message,
            "pattern": {name: detail for name, detail in self.pattern},
            "violations": list(self.violations),
            "size": self.size,
        }

    def sort_key(self) -> tuple:
        return (
            self.clip_name,
            self.rule_name,
            self.kind,
            self.family,
            self.size,
            self.message,
        )

    def __str__(self) -> str:
        return (
            f"[{self.kind}] {self.clip_name}/{self.rule_name} "
            f"({self.family}): {self.message}"
        )


@dataclass
class EquivalenceReport:
    """Result of one (micro-clip, rule) equivalence run.

    The checker enumerated ``n_patterns`` local routing patterns,
    found ``n_feasible`` of them ILP-feasible and ``n_clean`` of them
    DRC-clean, and emitted a finding for every (kind, family) class of
    disagreement, keeping the minimal witness per class.  ``sound`` /
    ``complete`` summarize the two proof directions; ``exhausted`` is
    False when the pattern cap truncated enumeration (the proof then
    covers the enumerated prefix only -- never silently).
    """

    clip_name: str
    rule_name: str
    families: tuple[str, ...]
    n_patterns: int = 0
    n_path_patterns: int = 0
    n_feasible: int = 0
    n_clean: int = 0
    exhausted: bool = True
    observed: tuple[str, ...] = ()
    findings: list[SemanticsFinding] = field(default_factory=list)

    @property
    def sound(self) -> bool:
        return not any(f.kind == "unsound" for f in self.findings)

    @property
    def complete(self) -> bool:
        return not any(f.kind == "incomplete" for f in self.findings)

    @property
    def ok(self) -> bool:
        return self.sound and self.complete

    def to_dict(self) -> dict[str, Any]:
        return {
            "clip": self.clip_name,
            "rule": self.rule_name,
            "families": list(self.families),
            "n_patterns": self.n_patterns,
            "n_path_patterns": self.n_path_patterns,
            "n_feasible": self.n_feasible,
            "n_clean": self.n_clean,
            "exhausted": self.exhausted,
            "observed": list(self.observed),
            "sound": self.sound,
            "complete": self.complete,
            "findings": [
                f.to_dict()
                for f in sorted(self.findings, key=SemanticsFinding.sort_key)
            ],
        }

    def summary(self) -> str:
        verdict = "ok" if self.ok else (
            ("UNSOUND " if not self.sound else "")
            + ("INCOMPLETE" if not self.complete else "")
        ).strip()
        return (
            f"{self.clip_name} {self.rule_name}: {verdict}, "
            f"{self.n_patterns} patterns "
            f"({self.n_feasible} feasible, {self.n_clean} clean)"
            + ("" if self.exhausted else ", TRUNCATED")
        )


def dump_json(payload: Any) -> str:
    """Byte-deterministic JSON used by the analyze/lint CLI paths."""
    return json.dumps(payload, indent=2, sort_keys=True)
