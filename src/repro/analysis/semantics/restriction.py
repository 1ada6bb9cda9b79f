"""Model-level restriction proofs between rule configurations.

:func:`repro.router.rules.is_restriction` answers "is ``other`` a pure
restriction of ``base``?" syntactically, from the rule parameters.
This module answers the same question *semantically, on the built
models*: ``other`` restricts ``base`` on a clip exactly when every
feasible point of ``other``'s ILP is feasible in ``base``'s.  Both
models come from the same :class:`BaseFormulation` core, so the shared
rows and columns are literally identical and only the per-rule *delta
rows* (via-adjacency blocking, SADP indicator blocks) need proof.
Those are the rows of the specialized :class:`CsrModel` past the
core's, read straight from its arrays.

Each base delta row is discharged by the cheapest sufficient method:

1. **match** -- the row is vacuous over x >= 0, or appears verbatim
   (canonically, by variable *name*: per-rule SADP indicators get
   fresh indices but deterministic names) among ``other``'s delta
   rows;
2. **dominated** -- an ``other`` delta row pointwise-dominates it over
   the nonnegative orthant (all model variables have lb >= 0);
3. **lp** -- an LP certificate: optimizing the row's left-hand side
   over ``other``'s LP relaxation cannot violate the row.  Sound for
   the integer hull (integer points are LP-feasible); incomplete, so a
   failed LP never *disproves* restriction -- the proof just doesn't
   hold and callers must fall back to a cold solve.

``other`` is specialized only when a base row is not vacuous, so a
base rule without delta rows (RULE1, the Table-3 baseline) proves
every restriction from its own model alone.

The resulting :class:`RestrictionProof` is what the incremental sweep
(:mod:`repro.eval.flow`) consumes to certify warm-start edges, cross-
checked against the syntactic predicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, NamedTuple

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.analysis.semantics.report import SCHEMA_VERSION
from repro.clips.clip import Clip
from repro.ilp.csr import SENSE_EQ, SENSE_GE, CsrModel
from repro.ilp.model import LinExpr
from repro.router.formulation import formulation_cache
from repro.router.rules import RuleConfig, is_restriction

_TOL = 1e-9

#: Sense strings by :class:`CsrModel` sense code.
_SENSES = ("<=", ">=", "==")
#: Orientation of an inequality: ``sign * (lhs) <= 0`` is its ``<=`` form.
_SIGN = {"<=": 1.0, ">=": -1.0}


class _Row(NamedTuple):
    """One delta row, ``sum(coef * x[name]) + const (sense) 0``."""

    sense: str
    const: float
    terms: dict[str, float]

    def canon(self) -> tuple:
        """Name-canonical form: equal for rows that match verbatim."""
        return (
            self.sense,
            round(self.const, 9),
            tuple(sorted(
                (name, round(coef, 9)) for name, coef in self.terms.items()
            )),
        )

    def vacuous(self) -> bool:
        """Satisfied by every x >= 0, regardless of the model."""
        sign = _SIGN.get(self.sense)
        return sign is not None and sign * self.const <= _TOL and all(
            sign * coef <= _TOL for coef in self.terms.values()
        )

    def dominated_by(self, other: "_Row") -> bool:
        """True when satisfying ``other`` forces this row over x >= 0
        (every model variable is nonnegative).  In ``<=`` form,
        sum(cb x) + kb <= sum(co x) + ko <= 0 needs cb <= co, kb <= ko."""
        sign = _SIGN.get(self.sense)
        if sign is None or other.sense != self.sense:
            return False
        return sign * self.const <= sign * other.const + _TOL and all(
            sign * self.terms.get(name, 0.0)
            <= sign * other.terms.get(name, 0.0) + _TOL
            for name in set(self.terms) | set(other.terms)
        )


@dataclass(frozen=True)
class RestrictionProof:
    """Certificate that ``other`` restricts ``base`` on one clip.

    ``holds`` is True only when *every* base delta row was discharged;
    ``n_matched``/``n_dominated``/``n_lp`` count the rows each method
    discharged.  ``predicate`` records
    the syntactic :func:`is_restriction` verdict for cross-checking --
    the prover must confirm every pair the predicate accepts (the
    predicate is the conservative one), and may additionally prove
    pairs the predicate rejects (e.g. rule deltas that fall outside
    the clip's grid).
    """

    clip_name: str
    base_rule: str
    other_rule: str
    holds: bool
    n_rows: int = 0
    n_matched: int = 0
    n_dominated: int = 0
    n_lp: int = 0
    failures: tuple[str, ...] = ()
    predicate: bool = False

    @property
    def agrees_with_predicate(self) -> bool:
        """False only in the buggy direction: the syntactic predicate
        accepted a pair the model-level prover could not certify."""
        return self.holds or not self.predicate

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "restriction_proof",
            "clip": self.clip_name,
            "base": self.base_rule,
            "other": self.other_rule,
            "holds": self.holds,
            "predicate": self.predicate,
            "n_rows": self.n_rows,
            "methods": {
                "match": self.n_matched,
                "dominated": self.n_dominated,
                "lp": self.n_lp,
            },
            "failures": list(self.failures),
        }


def _delta_rows(csr: CsrModel, start: int) -> list[_Row]:
    """Rows ``start..`` of ``csr``, keyed by variable name."""
    first = int(csr.indptr[start])
    ends = (csr.indptr[start:] - first).tolist()
    names = [csr.var_names[j] for j in csr.indices[first:].tolist()]
    coefs = csr.data[first:].tolist()
    return [
        _Row(_SENSES[sense], const, dict(zip(names[lo:hi], coefs[lo:hi])))
        for sense, const, lo, hi in zip(
            csr.senses[start:].tolist(),
            csr.row_const[start:].tolist(),
            ends,
            ends[1:],
        )
    ]


class _Follower:
    """``other``'s specialized model: its delta rows for the match and
    domination checks, and its LP relaxation, sliced from the CSR
    arrays on first use."""

    def __init__(self, csr: CsrModel, n_core: int):
        self.csr = csr
        self.rows = _delta_rows(csr, n_core)
        self.canon = {row.canon() for row in self.rows}

    @cached_property
    def _relaxation(self) -> dict[str, Any]:
        """``linprog`` inputs: the inequality rows in row order with
        ``>=`` rows negated into ``<=`` form, then the equality rows."""
        csr = self.csr
        sign = np.where(csr.senses == SENSE_GE, -1.0, 1.0)
        matrix = sparse.csr_matrix(
            (
                csr.data * np.repeat(sign, np.diff(csr.indptr)),
                csr.indices,
                csr.indptr,
            ),
            shape=(csr.n_rows, csr.n_vars),
        )
        rhs = sign * -csr.row_const
        ub = np.flatnonzero(csr.senses != SENSE_EQ)
        eq = np.flatnonzero(csr.senses == SENSE_EQ)
        return {
            "A_ub": matrix[ub],
            "b_ub": rhs[ub],
            "A_eq": matrix[eq],
            "b_eq": rhs[eq],
            "bounds": np.column_stack((csr.lb, csr.ub)),
        }

    def implies(self, row: _Row) -> bool:
        """Does every LP-feasible point of the follower satisfy ``row``?

        ``row`` lives in the *base* model; its variables are mapped by
        name.  A name absent from this model denotes a free column the
        model cannot control -- the certificate then fails, as it does
        for an equality row (one optimization bounds only one side).
        """
        sign = _SIGN.get(row.sense)
        if sign is None:
            return False
        coefs = np.zeros(self.csr.n_vars)
        for name, coef in row.terms.items():
            mapped = self.csr.name_to_index.get(name)
            if mapped is None:
                return False
            coefs[mapped] = coef
        # Maximize the row's left-hand side in its ``<=`` form; linprog
        # minimizes, so ``-result.fun`` is that maximum (sans constant).
        result = linprog(-sign * coefs, method="highs", **self._relaxation)
        if result.status == 2:
            return True  # the model is LP-infeasible: implication is vacuous
        if not result.success:
            return False
        return bool(-result.fun + sign * row.const <= _TOL)


def prove_restriction(
    clip: Clip,
    base: RuleConfig,
    other: RuleConfig,
    *,
    wire_cost: float = 1.0,
    via_cost: float = 4.0,
    max_failures: int = 5,
) -> RestrictionProof:
    """Prove that ``other``'s feasible routings are feasible in ``base``.

    Both models are specialized from the clip's base formulation in
    the process-wide :func:`formulation_cache` (shared with the solve
    path, so certifying a restriction and then routing the same clip
    builds the core once), and the proof obligation reduces to
    ``base``'s delta rows.  The returned proof ``holds`` only when
    every row was discharged.
    """
    predicate = is_restriction(base, other)
    if base.allow_via_shapes != other.allow_via_shapes:
        return RestrictionProof(
            clip_name=clip.name,
            base_rule=base.name,
            other_rule=other.name,
            holds=False,
            failures=(
                "different routing graphs: allow_via_shapes differs",
            ),
            predicate=predicate,
        )
    formulation = formulation_cache().base_for(
        clip,
        allow_via_shapes=base.allow_via_shapes,
        wire_cost=wire_cost,
        via_cost=via_cost,
    )
    n_core = formulation.core.n_rows
    base_csr = formulation.specialize(base).csr
    base_rows = _delta_rows(base_csr, n_core)
    follower: _Follower | None = None

    n_matched = n_dominated = n_lp = 0
    failures: list[str] = []
    for row_offset, row in enumerate(base_rows):
        if row.vacuous():
            n_matched += 1
            continue
        if follower is None:
            follower = _Follower(formulation.specialize(other).csr, n_core)
        if row.canon() in follower.canon:
            n_matched += 1
            continue
        if any(row.dominated_by(candidate) for candidate in follower.rows):
            n_dominated += 1
            continue
        if follower.implies(row):
            n_lp += 1
            continue
        if len(failures) < max_failures:
            lhs = LinExpr(
                {base_csr.name_to_index[n]: c for n, c in row.terms.items()},
                row.const,
            )
            failures.append(
                f"delta row {n_core + row_offset} not implied: "
                f"{lhs!r} {row.sense} 0"
            )
        else:
            failures.append("...")
            break

    return RestrictionProof(
        clip_name=clip.name,
        base_rule=base.name,
        other_rule=other.name,
        holds=not failures,
        n_rows=len(base_rows),
        n_matched=n_matched,
        n_dominated=n_dominated,
        n_lp=n_lp,
        failures=tuple(failures),
        predicate=predicate,
    )
