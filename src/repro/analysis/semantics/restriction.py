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
   rows.  Both checks run on the CSR arrays, every row at once: one
   exact key per row, compared with ``np.isin``;
2. **dominated** -- an ``other`` delta row pointwise-dominates it over
   the nonnegative orthant (all model variables have lb >= 0);
3. **lp** -- an LP certificate: optimizing the row's left-hand side
   over ``other``'s LP relaxation cannot violate the row.  Sound for
   the integer hull (integer points are LP-feasible); incomplete, so a
   failed LP never *disproves* restriction -- the proof just doesn't
   hold and callers must fall back to a cold solve.

``other`` is specialized only when a base row is not vacuous, so a
base rule without delta rows (RULE1, the Table-3 baseline) proves
every restriction from its own model alone.  Per-row objects are
built only for the rows left to the domination and LP steps.

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
from repro.ilp.csr import SENSE_EQ, SENSE_GE, SENSES, CsrModel
from repro.ilp.model import LinExpr
from repro.router.formulation import formulation_cache
from repro.router.rules import RuleConfig, is_restriction

_TOL = 1e-9

#: Orientation of an inequality: ``sign * (lhs) <= 0`` is its ``<=`` form.
_SIGN = {"<=": 1.0, ">=": -1.0}


class _Row(NamedTuple):
    """One delta row, ``sum(coef * x[name]) + const (sense) 0``."""

    sense: str
    const: float
    terms: dict[str, float]

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

    def persisted(self) -> dict[str, Any]:
        """The proof without its names, as a proof sheet in the solve
        cache stores it: a proof depends on the clip's and the rules'
        values only."""
        return {
            "holds": self.holds,
            "predicate": self.predicate,
            "n_rows": self.n_rows,
            "n_matched": self.n_matched,
            "n_dominated": self.n_dominated,
            "n_lp": self.n_lp,
            "failures": list(self.failures),
        }

    @classmethod
    def from_persisted(cls, fields: dict[str, Any]) -> "RestrictionProof":
        """A proof from its :meth:`persisted` form, with empty names; a
        malformed one raises KeyError or TypeError."""
        flags = [fields[name] for name in ("holds", "predicate")]
        counts = [
            fields[name] for name in ("n_rows", "n_matched", "n_dominated", "n_lp")
        ]
        failures = fields["failures"]
        if not (
            all(isinstance(flag, bool) for flag in flags)
            and all(
                isinstance(n, int) and not isinstance(n, bool) for n in counts
            )
            and isinstance(failures, list)
            and all(isinstance(failure, str) for failure in failures)
        ):
            raise TypeError(f"malformed restriction proof {fields!r}")
        holds, predicate = flags
        n_rows, n_matched, n_dominated, n_lp = counts
        return cls(
            clip_name="",
            base_rule="",
            other_rule="",
            holds=holds,
            n_rows=n_rows,
            n_matched=n_matched,
            n_dominated=n_dominated,
            n_lp=n_lp,
            failures=tuple(failures),
            predicate=predicate,
        )


def _delta_rows(csr: CsrModel, start: int) -> list[_Row]:
    """Rows ``start..`` of ``csr``, keyed by variable name."""
    first = int(csr.indptr[start])
    ends = (csr.indptr[start:] - first).tolist()
    names = [csr.var_names[j] for j in csr.indices[first:].tolist()]
    coefs = csr.data[first:].tolist()
    return [
        _Row(SENSES[sense], const, dict(zip(names[lo:hi], coefs[lo:hi])))
        for sense, const, lo, hi in zip(
            csr.senses[start:].tolist(),
            csr.row_const[start:].tolist(),
            ends,
            ends[1:],
        )
    ]


def _delta_row(csr: CsrModel, r: int) -> _Row:
    """Row ``r`` of ``csr``, keyed by variable name."""
    lo, hi = int(csr.indptr[r]), int(csr.indptr[r + 1])
    return _Row(
        SENSES[csr.senses[r]],
        float(csr.row_const[r]),
        dict(zip(
            (csr.var_names[j] for j in csr.indices[lo:hi].tolist()),
            csr.data[lo:hi].tolist(),
        )),
    )


def _rounded(values: np.ndarray) -> np.ndarray:
    """Python's correctly rounded ``round(v, 9)`` of each value,
    applied once per distinct value, with ``-0.0`` folded into
    ``0.0`` (they compare equal, so they must key equal)."""
    unique, inverse = np.unique(values, return_inverse=True)
    rounded = np.array([round(v, 9) for v in unique.tolist()], dtype=np.float64)
    return rounded[inverse] + 0.0


def _row_keys(csr: CsrModel, start: int, ids: np.ndarray, width: int) -> np.ndarray:
    """One exact key per row ``start..`` of ``csr``, in the row's
    name-canonical form: the sense, the constant rounded to 9 places,
    and the (variable id, coefficient rounded to 9 places) pairs
    sorted by id and padded to ``width`` pairs, viewed as one void
    scalar.  ``ids`` maps ``csr``'s columns to ids shared by name with
    the model the keys are compared with, so two keys are equal
    exactly when the rows match verbatim by variable name."""
    first = int(csr.indptr[start])
    lengths = np.diff(csr.indptr[start:])
    rows = np.repeat(np.arange(len(lengths)), lengths)
    cols = ids[csr.indices[first:]]
    order = np.lexsort((cols, rows))
    slot = np.arange(len(rows)) - (csr.indptr[start:-1] - first)[rows]
    keys = np.zeros((len(lengths), 2 + 2 * width))
    keys[:, 2 : 2 + width] = -1.0
    keys[:, 0] = csr.senses[start:]
    keys[:, 1] = _rounded(csr.row_const[start:])
    keys[rows, 2 + slot] = cols[order]
    keys[rows, 2 + width + slot] = _rounded(csr.data[first:])[order]
    return keys.view(np.dtype((np.void, keys.shape[1] * 8))).ravel()


def _vacuous(csr: CsrModel, start: int) -> np.ndarray:
    """Which rows ``start..`` of ``csr`` every x >= 0 satisfies,
    whatever the model: inequalities whose constant and coefficients
    all lie on the satisfied side."""
    first = int(csr.indptr[start])
    lengths = np.diff(csr.indptr[start:])
    senses = csr.senses[start:]
    sign = np.where(senses == SENSE_GE, -1.0, 1.0)
    rows = np.repeat(np.arange(len(lengths)), lengths)
    violated = sign[rows] * csr.data[first:] > _TOL
    return (
        (senses != SENSE_EQ)
        & (sign * csr.row_const[start:] <= _TOL)
        & (np.bincount(rows[violated], minlength=len(lengths)) == 0)
    )


def _verbatim(
    base: CsrModel, other: CsrModel, n_core: int, n_core_vars: int
) -> np.ndarray:
    """Which delta rows of ``base`` appear canonically among
    ``other``'s.  Both models share the core's columns; their delta
    columns (per-rule SADP indicators) are identified by name."""
    base_ids = np.arange(base.n_vars, dtype=np.float64)
    delta_names = {
        name: j for j, name in enumerate(base.var_names[n_core_vars:], n_core_vars)
    }
    other_ids = np.arange(other.n_vars, dtype=np.float64)
    fresh = base.n_vars  # ids for names the base model lacks
    other_ids[n_core_vars:] = [
        delta_names.get(name, fresh + k)
        for k, name in enumerate(other.var_names[n_core_vars:])
    ]
    width = max(
        int(np.diff(model.indptr[n_core:]).max(initial=0)) for model in (base, other)
    )
    return np.isin(
        _row_keys(base, n_core, base_ids, width),
        _row_keys(other, n_core, other_ids, width),
    )


class _Follower:
    """``other``'s specialized model: its delta rows for the
    domination check and its LP relaxation, built from the CSR arrays
    on first use."""

    def __init__(self, csr: CsrModel, n_core: int):
        self.csr = csr
        self.n_core = n_core

    @cached_property
    def rows(self) -> list[_Row]:
        return _delta_rows(self.csr, self.n_core)

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
    matched = _vacuous(base_csr, n_core)
    follower: _Follower | None = None
    if not matched.all():
        follower = _Follower(formulation.specialize(other).csr, n_core)
        matched |= _verbatim(base_csr, follower.csr, n_core, formulation.core.n_vars)

    n_dominated = n_lp = 0
    n_checked = len(matched)  # rows before the failure cut-off
    failures: list[str] = []
    for row_offset in np.flatnonzero(~matched).tolist():
        assert follower is not None
        row = _delta_row(base_csr, n_core + row_offset)
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
            n_checked = row_offset
            break
    n_matched = int(np.count_nonzero(matched[:n_checked]))

    return RestrictionProof(
        clip_name=clip.name,
        base_rule=base.name,
        other_rule=other.name,
        holds=not failures,
        n_rows=len(matched),
        n_matched=n_matched,
        n_dominated=n_dominated,
        n_lp=n_lp,
        failures=tuple(failures),
        predicate=predicate,
    )
