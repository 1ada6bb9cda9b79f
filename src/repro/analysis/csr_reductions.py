"""Vectorized (CSR) twins of the model-reduction passes.

:class:`CsrWork` mirrors :class:`repro.analysis.reductions.Work` on
contiguous numpy arrays; every pass in :data:`CSR_PASSES` is the
vectorized twin of one object pass, implementing the *same* reduction
semantics: same tolerances, same visit order, same notes.  The object
passes stay the property-tested oracle (``tests/test_ilp_csr.py``
sweeps reduction equivalence).

Design: each pass assumes a *compacted* state (no dead rows, no zeroed
entries, a fresh column index -- the driver compacts before every
pass, a no-op when nothing changed) and splits into

1. a **vectorized detector** that either proves the pass quiescent --
   the common case on a fixpoint's later iterations, costing a few
   array ops instead of a Python sweep -- or locates the first row or
   column where the object pass would act, and
2. an **exact scalar tail** that replays the object pass's logic from
   that point on, because reductions mutate bounds mid-sweep and the
   later decisions depend on the earlier rewrites.

Entry order within a row preserves the builder's emission order (the
object ``_Row`` dict order), so sequential float accumulations --
activity ranges via ``np.add.reduceat``, coefficient-tightening's
in-row updates -- see the same operand order as the oracle.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.analysis.reductions import (
    _NORM_DIGITS,
    _TOL,
    _unused_variable_value,
)
from repro.ilp.csr import (
    _CODE_TO_SENSE,
    SENSE_EQ,
    SENSE_GE,
    SENSE_LE,
    CsrModel,
)


def _row_sums(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-row sums of an entry-aligned vector, summed left-to-right
    within each row (``np.add.reduceat`` reduces sequentially, so the
    result is bit-identical to the object passes' Python loops)."""
    if len(indptr) == 1:
        return np.zeros(0, dtype=np.float64)
    padded = np.append(values, 0.0)
    sums = np.add.reduceat(padded, indptr[:-1])
    sums[np.diff(indptr) == 0] = 0.0
    return sums


def _row_counts(flags: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-row count of True entries."""
    return _row_sums(flags.astype(np.float64), indptr).astype(np.int64)


class _Extra:
    """A row appended mid-pass (merge passes); folded in at compact.

    ``rid`` is the row's stable diagnostic id -- the index the same row
    would occupy in the object ``Work.rows`` list, which only ever
    grows.  Compaction renumbers physical rows but preserves ``rid``,
    so infeasibility messages for unnamed rows quote the same index the
    object pipeline would.
    """

    __slots__ = ("cols", "vals", "sense", "rhs", "name", "live", "rid")

    def __init__(
        self,
        cols: list[int],
        vals: list[float],
        sense: int,
        rhs: float,
        name: str,
        rid: int,
    ):
        self.cols = cols
        self.vals = vals
        self.sense = sense
        self.rhs = rhs
        self.name = name
        self.live = True
        self.rid = rid


class CsrWork:
    """Mutable columnar working representation of a model.

    Row state is CSR with in-place deletion: ``data == 0.0`` marks a
    removed entry, ``row_live`` a removed row, and merge passes append
    :class:`_Extra` rows; :meth:`compact` folds all of that back into
    dense arrays (preserving row order: surviving rows first, then
    surviving extras -- exactly the object ``Work.rows`` list order)
    and rebuilds the column index.  Scalar mutators (:meth:`fix_var`,
    :meth:`tighten_lb`/:meth:`tighten_ub`) replicate the object
    :class:`~repro.analysis.reductions.Work` methods line for line.
    """

    __slots__ = (
        "name",
        "var_names",
        "lb",
        "ub",
        "integer",
        "obj",
        "obj_const",
        "fixed",
        "counts",
        "infeasible_reason",
        "indptr",
        "indices",
        "data",
        "senses",
        "rhs",
        "row_live",
        "row_nnz",
        "row_names",
        "row_ids",
        "_next_row_id",
        "extras",
        "generation",
        "col_entry",
        "col_ptr",
        "entry_row",
        "_dirty",
        "_singleton_heap",
        "_witness_handoff",
    )

    def __init__(self, csr: CsrModel):
        self.name = csr.name
        self.var_names = list(csr.var_names)
        self.lb = csr.lb.astype(np.float64, copy=True)
        self.ub = csr.ub.astype(np.float64, copy=True)
        self.integer = csr.integer.astype(bool, copy=True)
        self.obj = csr.obj.astype(np.float64, copy=True)
        self.obj_const = float(csr.obj_const)
        self.fixed: dict[int, float] = {}
        self.counts: dict[str, int] = {}
        self.infeasible_reason: str | None = None
        self.indptr = csr.indptr.astype(np.int64, copy=True)
        self.indices = csr.indices.astype(np.int64, copy=True)
        self.data = csr.data.astype(np.float64, copy=True)
        self.senses = csr.senses.astype(np.int8, copy=True)
        self.rhs = (-csr.row_const).astype(np.float64)
        self.row_live = np.ones(csr.n_rows, dtype=bool)
        self.row_names = list(csr.row_names) or [""] * csr.n_rows
        # Stable diagnostic row ids (object ``Work.rows`` indices):
        # compaction renumbers physical rows, these do not move.
        self.row_ids = np.arange(csr.n_rows, dtype=np.int64)
        self._next_row_id = csr.n_rows
        self.extras: list[_Extra] = []
        # Bumped on every semantic mutation (fix, tighten, row edit);
        # the driver skips passes that last ran clean at the current
        # generation -- rerunning a deterministic pass on unchanged
        # state is guaranteed to fire nothing.  compact() does not
        # count: it is a physical re-layout of identical state.
        self.generation = 0
        # Builders never emit zero coefficients, but tolerate them.
        self._dirty = bool(np.any(self.data == 0.0))
        self._singleton_heap: list[int] | None = None
        # Conflict-witness handoff from a quiescent clique merge to the
        # implication merge that follows it (see csr_clique_merge).
        self._witness_handoff: dict[int, set[int]] | None = None
        self.row_nnz = np.zeros(0, dtype=np.int64)
        self.col_entry = np.zeros(0, dtype=np.int64)
        self.col_ptr = np.zeros(0, dtype=np.int64)
        self.entry_row = np.zeros(0, dtype=np.int64)
        self._reindex()

    # -- bookkeeping --------------------------------------------------------

    @property
    def infeasible(self) -> bool:
        return self.infeasible_reason is not None

    @property
    def n_vars(self) -> int:
        return len(self.var_names)

    @property
    def n_rows(self) -> int:
        return len(self.senses)

    def note(self, pass_name: str, n: int = 1) -> None:
        self.counts[pass_name] = self.counts.get(pass_name, 0) + n

    def mark_infeasible(self, reason: str) -> None:
        if self.infeasible_reason is None:
            self.infeasible_reason = reason

    def _reindex(self) -> None:
        """Recompute the per-row nonzero counts and the column index
        (entry positions grouped by column) from the current arrays."""
        n_rows = len(self.senses)
        self.entry_row = np.repeat(
            np.arange(n_rows, dtype=np.int64), np.diff(self.indptr)
        )
        live_entry = self.data != 0.0
        self.row_nnz = _row_counts(live_entry, self.indptr)
        self.col_entry = np.argsort(self.indices, kind="stable").astype(
            np.int64
        )
        counts = np.bincount(self.indices, minlength=self.n_vars)
        self.col_ptr = np.zeros(self.n_vars + 1, dtype=np.int64)
        np.cumsum(counts, out=self.col_ptr[1:])

    def compact(self) -> None:
        """Drop dead rows/entries, fold extras in, rebuild the index.

        Row order is preserved (surviving old rows, then surviving
        extras in append order) and entry order within each row is
        preserved -- matching the object ``Work.rows`` list the same
        sequence of object passes would have produced.  No-op when
        nothing changed since the last compact.
        """
        if not self._dirty:
            return
        live_entry = (self.data != 0.0) & self.row_live[self.entry_row]
        keep_rows = np.flatnonzero(self.row_live)
        entry_counts = _row_counts(live_entry, self.indptr)[keep_rows]
        new_indices = self.indices[live_entry]
        new_data = self.data[live_entry]
        new_senses = self.senses[keep_rows]
        new_rhs = self.rhs[keep_rows]
        keep_list = keep_rows.tolist()
        new_names = [self.row_names[r] for r in keep_list]
        new_ids = self.row_ids[keep_rows]
        live_extras = [ex for ex in self.extras if ex.live]
        if live_extras:
            extra_cols = np.asarray(
                [j for ex in live_extras for j in ex.cols], dtype=np.int64
            )
            extra_vals = np.asarray(
                [c for ex in live_extras for c in ex.vals], dtype=np.float64
            )
            new_indices = np.concatenate((new_indices, extra_cols))
            new_data = np.concatenate((new_data, extra_vals))
            new_senses = np.concatenate(
                (
                    new_senses,
                    np.asarray([ex.sense for ex in live_extras], dtype=np.int8),
                )
            )
            new_rhs = np.concatenate(
                (
                    new_rhs,
                    np.asarray([ex.rhs for ex in live_extras], dtype=np.float64),
                )
            )
            new_names.extend(ex.name for ex in live_extras)
            new_ids = np.concatenate(
                (
                    new_ids,
                    np.asarray([ex.rid for ex in live_extras], dtype=np.int64),
                )
            )
            entry_counts = np.concatenate(
                (
                    entry_counts,
                    np.asarray(
                        [len(ex.cols) for ex in live_extras], dtype=np.int64
                    ),
                )
            )
        self.indices = new_indices
        self.data = new_data
        self.senses = new_senses
        self.rhs = new_rhs
        self.row_names = new_names
        self.row_ids = new_ids
        self.indptr = np.zeros(len(new_senses) + 1, dtype=np.int64)
        np.cumsum(entry_counts, out=self.indptr[1:])
        self.row_live = np.ones(len(new_senses), dtype=bool)
        self.extras = []
        self._dirty = False
        self._reindex()

    # -- row accessors (scalar tails) ---------------------------------------

    def is_live(self, r: int) -> bool:
        if r < len(self.senses):
            return bool(self.row_live[r])
        return self.extras[r - len(self.senses)].live

    def row_items(self, r: int) -> list[tuple[int, float]]:
        """Live ``(col, coef)`` pairs of row ``r`` in entry order."""
        if r < len(self.senses):
            s, e = self.indptr[r], self.indptr[r + 1]
            cols = self.indices[s:e].tolist()
            vals = self.data[s:e].tolist()
            return [(j, c) for j, c in zip(cols, vals) if c != 0.0]
        ex = self.extras[r - len(self.senses)]
        return [(j, c) for j, c in zip(ex.cols, ex.vals) if c != 0.0]

    def row_sense(self, r: int) -> int:
        if r < len(self.senses):
            return int(self.senses[r])
        return self.extras[r - len(self.senses)].sense

    def row_rhs(self, r: int) -> float:
        if r < len(self.senses):
            return float(self.rhs[r])
        return self.extras[r - len(self.senses)].rhs

    def row_name(self, r: int) -> str:
        if r < len(self.senses):
            return self.row_names[r]
        return self.extras[r - len(self.senses)].name

    def row_id(self, r: int) -> int:
        """Stable diagnostic id of physical row ``r`` (the index the
        row occupies in the object ``Work.rows`` list)."""
        if r < len(self.senses):
            return int(self.row_ids[r])
        return self.extras[r - len(self.senses)].rid

    def add_extra_row(
        self,
        cols: list[int],
        vals: list[float],
        sense: int,
        rhs: float,
        name: str,
    ) -> int:
        """Append a merged row; returns its id (``>= n_rows``)."""
        self.extras.append(
            _Extra(cols, vals, sense, rhs, name, self._next_row_id)
        )
        self._next_row_id += 1
        self._dirty = True
        self.generation += 1
        return len(self.senses) + len(self.extras) - 1

    def remove_row(self, r: int) -> None:
        if r < len(self.senses):
            if self.row_live[r]:
                self.row_live[r] = False
                self._dirty = True
                self.generation += 1
        else:
            ex = self.extras[r - len(self.senses)]
            if ex.live:
                ex.live = False
                self._dirty = True
                self.generation += 1

    # -- scalar mutators (object Work mirrors) ------------------------------

    def fix_var(self, j: int, value: float, reason: str) -> bool:
        """Exact mirror of :meth:`Work.fix_var` on the column index."""
        if j in self.fixed:
            if abs(self.fixed[j] - value) > 1e-6:
                self.mark_infeasible(
                    f"variable {self.var_names[j]} fixed to conflicting "
                    f"values {self.fixed[j]:g} and {value:g} ({reason})"
                )
                return False
            return True
        if self.integer[j]:
            snapped = round(value)
            if abs(snapped - value) > 1e-6:
                self.mark_infeasible(
                    f"integer variable {self.var_names[j]} forced to "
                    f"fractional value {value:g} ({reason})"
                )
                return False
            value = float(snapped)
        if value < self.lb[j] - 1e-6 or value > self.ub[j] + 1e-6:
            self.mark_infeasible(
                f"variable {self.var_names[j]} forced to {value:g} outside "
                f"bounds [{self.lb[j]:g}, {self.ub[j]:g}] ({reason})"
            )
            return False
        self.fixed[j] = value
        self.lb[j] = self.ub[j] = value
        self.obj_const += self.obj[j] * value
        self.obj[j] = 0.0
        self.generation += 1
        for p in self.col_entry[self.col_ptr[j] : self.col_ptr[j + 1]].tolist():
            coef = self.data[p]
            if coef == 0.0:
                continue
            r = int(self.entry_row[p])
            if not self.row_live[r]:
                continue
            self.rhs[r] -= coef * value
            self.data[p] = 0.0
            self._dirty = True
            self.row_nnz[r] -= 1
            if self.row_nnz[r] == 0:
                self._finish_empty_row(r)
            elif (
                self.row_nnz[r] == 1 and self._singleton_heap is not None
            ):
                heapq.heappush(self._singleton_heap, r)
        for k, ex in enumerate(self.extras):
            if not ex.live or j not in ex.cols:
                continue
            i = ex.cols.index(j)
            ex.rhs -= ex.vals[i] * value
            del ex.cols[i]
            del ex.vals[i]
            if not ex.cols:
                self._finish_empty_row(len(self.senses) + k)
        self.note("fix")
        return True

    def _finish_empty_row(self, r: int) -> None:
        sense = self.row_sense(r)
        rhs = self.row_rhs(r)
        violated = (
            (sense == SENSE_LE and rhs < -_TOL)
            or (sense == SENSE_GE and rhs > _TOL)
            or (sense == SENSE_EQ and abs(rhs) > _TOL)
        )
        if violated:
            self.mark_infeasible(
                f"row {self.row_name(r) or self.row_id(r)} reduced to 0 "
                f"{_CODE_TO_SENSE[sense]} {rhs:g}"
            )
        self.remove_row(r)

    def tighten_lb(self, j: int, lb: float) -> bool:
        if self.integer[j]:
            lb = math.ceil(lb - 1e-6)
        if lb <= self.lb[j] + _TOL:
            return False
        if lb > self.ub[j] + 1e-6:
            self.mark_infeasible(
                f"variable {self.var_names[j]}: implied lb {lb:g} exceeds "
                f"ub {self.ub[j]:g}"
            )
            return True
        self.lb[j] = lb
        self.generation += 1
        self.note("bound-propagation")
        if abs(self.ub[j] - self.lb[j]) <= _TOL:
            self.fix_var(j, float(self.lb[j]), "bounds closed")
        return True

    def tighten_ub(self, j: int, ub: float) -> bool:
        if self.integer[j]:
            ub = math.floor(ub + 1e-6)
        if ub >= self.ub[j] - _TOL:
            return False
        if ub < self.lb[j] - 1e-6:
            self.mark_infeasible(
                f"variable {self.var_names[j]}: implied ub {ub:g} below "
                f"lb {self.lb[j]:g}"
            )
            return True
        self.ub[j] = ub
        self.generation += 1
        self.note("bound-propagation")
        if abs(self.ub[j] - self.lb[j]) <= _TOL:
            self.fix_var(j, float(self.lb[j]), "bounds closed")
        return True

    def activity_range(self, r: int) -> tuple[float, float]:
        lo = hi = 0.0
        lb, ub = self.lb, self.ub
        for j, coef in self.row_items(r):
            a, b = coef * lb[j], coef * ub[j]
            lo += min(a, b)
            hi += max(a, b)
        return lo, hi


# -- passes -----------------------------------------------------------------
#
# All passes require a compacted state on entry (the driver guarantees
# it); each mirrors its object twin's semantics exactly, including the
# sweep order dependencies spelled out in reductions.py.


def csr_singleton_rows(work: CsrWork) -> int:
    """Vectorized twin of ``pass_singleton_rows``.

    The object pass is a forward sweep that also catches rows *newly*
    reduced to one variable at indices ahead of the sweep pointer; a
    min-heap fed by :meth:`CsrWork.fix_var` replays exactly that: a
    new singleton is processed iff its index is past the pointer.
    """
    candidates = np.flatnonzero(work.row_nnz == 1).tolist()
    if not candidates:
        work._singleton_heap = None
        return 0
    heap = candidates
    heapq.heapify(heap)
    work._singleton_heap = heap
    changed = 0
    pointer = -1
    try:
        while heap:
            if work.infeasible:
                break
            r = heapq.heappop(heap)
            if r <= pointer or not work.row_live[r]:
                continue
            pointer = r
            if work.row_nnz[r] != 1:
                continue
            ((j, coef),) = work.row_items(r)
            if abs(coef) < _TOL:
                work._finish_empty_row(r)
                continue
            bound = work.row_rhs(r) / coef
            if work.senses[r] == SENSE_EQ:
                work.remove_row(r)
                work.fix_var(
                    j,
                    bound,
                    f"singleton equality row "
                    f"{work.row_name(r) or work.row_id(r)}",
                )
                changed += 1
                work.note("singleton-row")
                continue
            upper = (work.senses[r] == SENSE_LE) == (coef > 0)
            work.remove_row(r)
            if upper:
                work.tighten_ub(j, bound)
            else:
                work.tighten_lb(j, bound)
            work.note("singleton-row")
            changed += 1
    finally:
        work._singleton_heap = None
    return changed


def csr_bound_propagation(work: CsrWork) -> int:
    """Vectorized twin of ``pass_bound_propagation``.

    Activity ranges, infeasibility/redundancy gates, and the would-a-
    tighten-fire predicate are computed for every row at once.  Rows
    before the first state-changing row saw exactly the pass-start
    bounds, so their redundancy removals apply vectorized; from the
    first tightening (or infeasible) row on, the object sweep replays
    scalar because each tighten shifts later rows' activity ranges.
    """
    if not len(work.senses):
        return 0
    lbj = work.lb[work.indices]
    ubj = work.ub[work.indices]
    a = work.data * lbj
    b = work.data * ubj
    term_lo = np.minimum(a, b)
    term_hi = np.maximum(a, b)
    lo = _row_sums(term_lo, work.indptr)
    hi = _row_sums(term_hi, work.indptr)
    rhs = work.rhs
    eligible = work.row_nnz >= 2
    le_rows = eligible & (work.senses == SENSE_LE)
    ge_rows = eligible & (work.senses == SENSE_GE)
    eq_rows = eligible & (work.senses == SENSE_EQ)
    with np.errstate(invalid="ignore"):
        infeas = (
            (le_rows & (lo > rhs + _TOL))
            | (ge_rows & (hi < rhs - _TOL))
            | (eq_rows & ((lo > rhs + _TOL) | (hi < rhs - _TOL)))
        )
        redundant = ~infeas & (
            (le_rows & (hi <= rhs + _TOL))
            | (ge_rows & (lo >= rhs - _TOL))
            | (eq_rows & (hi - lo <= _TOL))
        )
        # Would-tighten predicate per entry, mirroring tighten_lb/ub
        # (integer rounding first, then the improvement gate).
        row_of = work.entry_row
        active_entry = (
            (eligible & ~infeas & ~redundant)[row_of]
            & (np.abs(work.data) >= _TOL)
        )
        le_like = (work.senses != SENSE_GE)[row_of] & np.isfinite(lo)[row_of]
        ge_like = (work.senses != SENSE_LE)[row_of] & np.isfinite(hi)[row_of]
        pos = work.data > 0
        int_j = work.integer[work.indices]
        tighten_entry = np.zeros(len(work.data), dtype=bool)
        for like, use_term, toward_ub in (
            (le_like, term_lo, True),
            (ge_like, term_hi, False),
        ):
            mask = active_entry & like
            if not np.any(mask):
                continue
            limit = rhs[row_of] - (
                (lo if toward_ub else hi)[row_of] - use_term
            )
            bound = limit / work.data
            # coef > 0 tightens toward_ub's bound, coef < 0 the other.
            hits_ub = pos == toward_ub
            cand_ub = np.where(int_j, np.floor(bound + 1e-6), bound)
            cand_lb = np.where(int_j, np.ceil(bound - 1e-6), bound)
            fires = np.where(
                hits_ub,
                cand_ub < (work.ub[work.indices] - _TOL),
                cand_lb > (work.lb[work.indices] + _TOL),
            )
            tighten_entry |= mask & fires
    tighten_rows = np.zeros(len(work.senses), dtype=bool)
    if np.any(tighten_entry):
        tighten_rows[row_of[tighten_entry]] = True
    effectful = infeas | tighten_rows
    first = (
        int(np.flatnonzero(effectful)[0])
        if np.any(effectful)
        else len(work.senses)
    )
    changed = 0
    for r in np.flatnonzero(redundant[:first]).tolist():
        work.remove_row(r)
        work.note("redundant-row")
        changed += 1
    # Exact object sweep from the first effectful row on.
    for r in range(first, len(work.senses)):
        if work.infeasible:
            break
        if not work.row_live[r] or work.row_nnz[r] < 2:
            continue
        r_lo, r_hi = work.activity_range(r)
        r_rhs = float(work.rhs[r])
        sense = int(work.senses[r])
        if sense == SENSE_LE:
            if r_lo > r_rhs + _TOL:
                name = work.row_names[r] or work.row_id(r)
                work.mark_infeasible(
                    f"row {name}: min activity {r_lo:g} > rhs {r_rhs:g}"
                )
                return changed + 1
            if r_hi <= r_rhs + _TOL:
                work.remove_row(r)
                work.note("redundant-row")
                changed += 1
                continue
        elif sense == SENSE_GE:
            if r_hi < r_rhs - _TOL:
                name = work.row_names[r] or work.row_id(r)
                work.mark_infeasible(
                    f"row {name}: max activity {r_hi:g} < rhs {r_rhs:g}"
                )
                return changed + 1
            if r_lo >= r_rhs - _TOL:
                work.remove_row(r)
                work.note("redundant-row")
                changed += 1
                continue
        else:
            if r_lo > r_rhs + _TOL or r_hi < r_rhs - _TOL:
                name = work.row_names[r] or work.row_id(r)
                work.mark_infeasible(
                    f"row {name}: activity [{r_lo:g}, {r_hi:g}] "
                    f"excludes rhs {r_rhs:g}"
                )
                return changed + 1
            if r_hi - r_lo <= _TOL:
                work.remove_row(r)
                work.note("redundant-row")
                changed += 1
                continue
        changed += _csr_propagate_row_bounds(work, r, r_lo, r_hi)
    return changed


def _csr_propagate_row_bounds(
    work: CsrWork, r: int, lo: float, hi: float
) -> int:
    """Exact mirror of ``_propagate_row_bounds`` on CSR storage."""
    changed = 0
    sense = int(work.senses[r])
    le_like = sense in (SENSE_LE, SENSE_EQ)
    ge_like = sense in (SENSE_GE, SENSE_EQ)
    n_fixed_before = len(work.fixed)
    s, e = int(work.indptr[r]), int(work.indptr[r + 1])
    for p in range(s, e):
        coef = float(work.data[p])
        if abs(coef) < _TOL:
            continue
        if len(work.fixed) != n_fixed_before:
            # fix_var rewrote this row under us (see the object twin).
            break
        j = int(work.indices[p])
        term_lo = min(coef * work.lb[j], coef * work.ub[j])
        term_hi = max(coef * work.lb[j], coef * work.ub[j])
        rhs = float(work.rhs[r])
        if le_like and not math.isinf(lo):
            limit = rhs - (lo - term_lo)
            if coef > 0:
                if work.tighten_ub(j, limit / coef):
                    changed += 1
            else:
                if work.tighten_lb(j, limit / coef):
                    changed += 1
        if work.infeasible:
            return changed
        if ge_like and not math.isinf(hi):
            limit = float(work.rhs[r]) - (hi - term_hi)
            if coef > 0:
                if work.tighten_lb(j, limit / coef):
                    changed += 1
            else:
                if work.tighten_ub(j, limit / coef):
                    changed += 1
        if work.infeasible:
            return changed
    return changed


def csr_coefficient_tightening(work: CsrWork) -> int:
    """Vectorized twin of ``pass_coefficient_tightening``.

    Rows are independent here (only the row's own coefficients and rhs
    change, never bounds), so the detector flags rows where the first
    in-row update would fire under pass-start values and only those
    rows replay the object's sequential in-row loop.
    """
    if not len(work.senses):
        return 0
    sign_row = np.where(work.senses == SENSE_GE, -1.0, 1.0)
    row_of = work.entry_row
    c = sign_row[row_of] * work.data
    with np.errstate(invalid="ignore"):
        term_hi = np.maximum(c * work.lb[work.indices], c * work.ub[work.indices])
        hi_total = _row_sums(term_hi, work.indptr)
        rhs_s = sign_row * work.rhs
        active_row = (
            (work.senses != SENSE_EQ)
            & (work.row_nnz >= 2)
            & np.isfinite(hi_total)
            & (hi_total > rhs_s + _TOL)
        )
        binary_j = (
            work.integer[work.indices]
            & (work.lb[work.indices] == 0.0)
            & (work.ub[work.indices] == 1.0)
        )
        others_hi = hi_total[row_of] - np.maximum(c, 0.0)
        cand = (
            active_row[row_of]
            & binary_j
            & (c > _TOL)
            & (others_hi <= rhs_s[row_of] - _TOL)
            & (c > (rhs_s[row_of] - others_hi) + _TOL)
        )
    if not np.any(cand):
        return 0
    changed = 0
    for r in np.unique(row_of[cand]).tolist():
        if work.infeasible:
            break
        sign = float(sign_row[r])
        rhs = sign * float(work.rhs[r])
        hi_total_r = 0.0
        s, e = int(work.indptr[r]), int(work.indptr[r + 1])
        for p in range(s, e):
            if work.data[p] == 0.0:
                continue
            cc = sign * float(work.data[p])
            j = int(work.indices[p])
            hi_total_r += max(cc * work.lb[j], cc * work.ub[j])
        for p in range(s, e):
            if work.data[p] == 0.0:
                continue
            j = int(work.indices[p])
            if (
                not work.integer[j]
                or work.lb[j] != 0.0
                or work.ub[j] != 1.0
            ):
                continue
            cc = sign * float(work.data[p])
            t_hi = max(cc, 0.0)
            others = hi_total_r - t_hi
            if cc > _TOL and others <= rhs - _TOL:
                slack = rhs - others
                if cc > slack + _TOL:
                    new_c = cc - (rhs - others)
                    work.data[p] = sign * new_c
                    rhs = others
                    work.rhs[r] = sign * rhs
                    hi_total_r = others + max(new_c, 0.0)
                    work.generation += 1
                    work.note("coefficient-tightening")
                    changed += 1
    return changed


def csr_duplicate_rows(work: CsrWork) -> int:
    """Vectorized twin of ``pass_duplicate_rows``.

    Support signatures bucket vectorized (sorted column bytes); the
    scale-normalized coefficient signature -- whose ``round()`` must
    match the object pass bit for bit -- runs in Python only on rows
    whose support actually collides.
    """
    n_rows = len(work.senses)
    if not n_rows:
        return 0
    order = np.lexsort((work.indices, work.entry_row))
    sorted_cols = work.indices[order]
    sorted_vals = work.data[order]
    indptr = work.indptr.tolist()
    buckets: dict[bytes, list[int]] = {}
    for r in range(n_rows):
        s, e = indptr[r], indptr[r + 1]
        if s == e:
            continue
        buckets.setdefault(sorted_cols[s:e].tobytes(), []).append(r)
    colliding = sorted(
        r for members in buckets.values() if len(members) > 1 for r in members
    )
    if not colliding:
        return 0
    groups: dict[tuple, list[tuple[int, float]]] = {}
    senses = work.senses.tolist()
    rhs_list = work.rhs.tolist()
    for r in colliding:
        s, e = indptr[r], indptr[r + 1]
        support = sorted_cols[s:e].tobytes()
        vals = sorted_vals[s:e].tolist()
        pivot = vals[0]
        scale = 1.0 / pivot
        coefs = tuple(round(v * scale, _NORM_DIGITS) for v in vals)
        sense = senses[r]
        if pivot < 0 and sense != SENSE_EQ:
            sense = SENSE_LE if sense == SENSE_GE else SENSE_GE
        key = (support, coefs, sense)
        groups.setdefault(key, []).append(
            (r, round(rhs_list[r] * scale, _NORM_DIGITS))
        )
    changed = 0
    for (_, _, sense), members in groups.items():
        if len(members) < 2:
            continue
        if sense == SENSE_LE:
            keep = min(members, key=lambda item: (item[1], item[0]))
        elif sense == SENSE_GE:
            keep = max(members, key=lambda item: (item[1], -item[0]))
        else:
            keep = members[0]
        for r, row_rhs in members:
            if r == keep[0]:
                continue
            if sense == SENSE_EQ and abs(row_rhs - keep[1]) > _TOL:
                work.mark_infeasible(
                    f"equality rows {work.row_id(keep[0])} and "
                    f"{work.row_id(r)} share coefficients "
                    f"but need rhs {keep[1]:g} and {row_rhs:g}"
                )
                return changed + 1
            work.remove_row(r)
            work.note("duplicate-row")
            changed += 1
    return changed


def _unit_packing_mask(work: CsrWork) -> np.ndarray:
    """Rows that are ``<= 1`` with unit coefficients over nonnegative
    binaries (vectorized ``_is_unit_packing_row`` over all rows)."""
    bin_j = work.integer & (work.lb == 0.0) & (work.ub == 1.0)
    good = (np.abs(work.data - 1.0) <= _TOL) & bin_j[work.indices]
    return (
        (work.senses == SENSE_LE)
        & (np.abs(work.rhs - 1.0) <= _TOL)
        & (work.row_nnz >= 2)
        & (_row_counts(good, work.indptr) == work.row_nnz)
    )


def _is_unit_packing_row_csr(work: CsrWork, r: int) -> bool:
    """Scalar re-check against the *current* (possibly rewritten) row."""
    if work.row_sense(r) != SENSE_LE or abs(work.row_rhs(r) - 1.0) > _TOL:
        return False
    items = work.row_items(r)
    if len(items) < 2:
        return False
    return all(abs(c - 1.0) <= _TOL for _, c in items) and all(
        work.integer[j] and work.lb[j] == 0.0 and work.ub[j] == 1.0
        for j, _ in items
    )


def csr_forced_subset(work: CsrWork) -> int:
    """Vectorized twin of ``pass_forced_subset``.

    The detector flags rows that could force one unit into packed
    binaries under pass-start bounds; flagged rows replay the object
    logic scalar, and the first actual fix switches to a full scalar
    sweep of the remaining rows (fixes shift later rows' activity)."""
    n_rows = len(work.senses)
    if not n_rows:
        return 0
    packing_mask = _unit_packing_mask(work)
    if not np.any(packing_mask):
        return 0
    bin_j = work.integer & (work.lb == 0.0) & (work.ub == 1.0)
    row_of = work.entry_row
    in_packing = np.zeros(work.n_vars, dtype=bool)
    in_packing[work.indices[packing_mask[row_of]]] = True
    flagged = np.zeros(n_rows, dtype=bool)
    for sign in (1.0, -1.0):
        a = sign * work.data
        forced_e = (np.abs(a - 1.0) <= _TOL) & bin_j[work.indices]
        with np.errstate(invalid="ignore"):
            hi_e = np.where(
                a > 0,
                a * work.ub[work.indices],
                a * work.lb[work.indices],
            )
            others_max = _row_sums(np.where(forced_e, 0.0, hi_e), work.indptr)
            r_low = (sign * work.rhs) - others_max
            dir_ok = (work.senses == SENSE_EQ) | (
                work.senses == (SENSE_GE if sign > 0 else SENSE_LE)
            )
            flagged |= (
                dir_ok
                & (work.row_nnz > 0)
                & (_row_counts(forced_e, work.indptr) > 0)
                & (_row_counts(forced_e & ~in_packing[work.indices], work.indptr) == 0)
                & np.isfinite(others_max)
                & (r_low >= 1.0 - _TOL)
            )
    if not np.any(flagged):
        return 0
    packing: dict[int, set[int]] = {}
    for r in np.flatnonzero(packing_mask).tolist():
        for j, _ in work.row_items(r):
            packing.setdefault(j, set()).add(r)
    changed = 0
    full_scan = False
    n_fixed0 = len(work.fixed)
    for r in range(n_rows):
        if work.infeasible:
            break
        if not full_scan and not flagged[r]:
            continue
        if not work.row_live[r] or work.row_nnz[r] == 0:
            continue
        sense = int(work.senses[r])
        directions = []
        if sense in (SENSE_EQ, SENSE_GE):
            directions.append(1.0)
        if sense in (SENSE_EQ, SENSE_LE):
            directions.append(-1.0)
        for sign in directions:
            if not work.row_live[r]:
                break
            forced: list[int] = []
            others_max = 0.0
            bounded = True
            for j, coef in work.row_items(r):
                a = sign * coef
                if (
                    abs(a - 1.0) <= _TOL
                    and work.integer[j]
                    and work.lb[j] == 0.0
                    and work.ub[j] == 1.0
                ):
                    forced.append(j)
                else:
                    hi = work.ub[j] if a > 0 else work.lb[j]
                    if math.isinf(hi):
                        bounded = False
                        break
                    others_max += a * hi
            if not bounded or not forced:
                continue
            r_low = sign * float(work.rhs[r]) - others_max
            if r_low < 1.0 - _TOL:
                continue
            common: set[int] | None = None
            for j in forced:
                rows_j = packing.get(j)
                if not rows_j:
                    common = None
                    break
                common = set(rows_j) if common is None else common & rows_j
                if not common:
                    break
            if not common:
                continue
            if r_low > 1.0 + _TOL:
                work.mark_infeasible(
                    f"row {work.row_names[r] or work.row_id(r)} "
                    f"forces {r_low:g} units "
                    "into variables a packing row caps at one"
                )
                return changed + 1
            forced_set = set(forced)
            for w in sorted(common):
                if not work.is_live(w) or not _is_unit_packing_row_csr(work, w):
                    continue
                for j in [
                    k for k, _ in work.row_items(w) if k not in forced_set
                ]:
                    if j in work.fixed or work.infeasible:
                        continue
                    work.fix_var(j, 0.0, "forced-subset exclusion")
                    work.note("forced-subset")
                    changed += 1
        if len(work.fixed) != n_fixed0:
            full_scan = True
    return changed


def csr_dual_fixing(work: CsrWork) -> int:
    """Vectorized twin of ``pass_dual_fixing``: per-column safety flags
    via entry bincounts, exact scalar sweep from the first flagged
    column (a fix can empty rows and unlock later columns)."""
    n = work.n_vars
    if not len(work.senses):
        return 0
    sense_e = work.senses[work.entry_row]
    d = work.data
    bad_down = (
        (sense_e == SENSE_EQ)
        | ((sense_e == SENSE_LE) & (d < 0.0))
        | ((sense_e == SENSE_GE) & (d > 0.0))
    )
    bad_up = (
        (sense_e == SENSE_EQ)
        | ((sense_e == SENSE_LE) & (d > 0.0))
        | ((sense_e == SENSE_GE) & (d < 0.0))
    )
    cols = work.indices
    n_rows_j = np.bincount(cols, minlength=n)
    bad_down_j = np.bincount(cols[bad_down], minlength=n) > 0
    bad_up_j = np.bincount(cols[bad_up], minlength=n) > 0
    fixed_mask = np.zeros(n, dtype=bool)
    if work.fixed:
        fixed_mask[
            np.fromiter(work.fixed.keys(), dtype=np.int64, count=len(work.fixed))
        ] = True
    down = (work.obj >= 0.0) & np.isfinite(work.lb) & ~bad_down_j
    up = (work.obj <= 0.0) & np.isfinite(work.ub) & ~bad_up_j
    flag = (n_rows_j > 0) & ~fixed_mask & (down | up)
    if not np.any(flag):
        return 0
    changed = 0
    for j in range(int(np.flatnonzero(flag)[0]), n):
        if work.infeasible:
            break
        if j in work.fixed:
            continue
        positions = [
            p
            for p in work.col_entry[
                work.col_ptr[j] : work.col_ptr[j + 1]
            ].tolist()
            if work.data[p] != 0.0 and work.row_live[work.entry_row[p]]
        ]
        if not positions:
            continue
        cost = float(work.obj[j])
        down_safe = cost >= 0.0 and not math.isinf(work.lb[j])
        up_safe = cost <= 0.0 and not math.isinf(work.ub[j])
        for p in positions:
            sense = int(work.senses[work.entry_row[p]])
            coef = float(work.data[p])
            if sense == SENSE_EQ:
                down_safe = up_safe = False
                break
            if sense == SENSE_LE:
                down_safe = down_safe and coef >= 0.0
                up_safe = up_safe and coef <= 0.0
            else:
                down_safe = down_safe and coef <= 0.0
                up_safe = up_safe and coef >= 0.0
            if not down_safe and not up_safe:
                break
        if down_safe:
            work.fix_var(j, float(work.lb[j]), "dual fixing (down-safe)")
            work.note("dual-fixing")
            changed += 1
        elif up_safe:
            work.fix_var(j, float(work.ub[j]), "dual fixing (up-safe)")
            work.note("dual-fixing")
            changed += 1
    return changed


def _csr_conflict_adjacency(
    work: CsrWork, packing_mask: np.ndarray
) -> dict[int, set[int]]:
    """Conflict adjacency (var -> vars it conflicts with), derived
    from the same witness structure as the object twin
    ``_conflict_witnesses``: two binaries conflict iff they share a
    packing row or a negative-id clique from a balance equality.
    Collapsing the witness-row indirection into direct adjacency turns
    every downstream conflict test into one set membership/subset op
    without changing its truth value."""
    conflict: dict[int, set[int]] = {}
    packing_witness: dict[int, set[int]] = {}
    sel = packing_mask[work.entry_row] & (work.data != 0.0)
    row_members: dict[int, list[int]] = {}
    for r, j in zip(
        work.entry_row[sel].tolist(), work.indices[sel].tolist()
    ):
        row_members.setdefault(r, []).append(j)
        packing_witness.setdefault(j, set()).add(r)
    for members in row_members.values():
        mset = set(members)
        for j in members:
            conflict.setdefault(j, set()).update(mset)

    def covered_by_one_packing_row(members: list[int]) -> bool:
        # ``packing_witness`` holds exactly the nonnegative (packing
        # row) witness ids, so the scalar ``w >= 0`` filter of the
        # object twin becomes a dict lookup.
        if len(members) == 1:
            return True
        common: set[int] | None = None
        for j in members:
            rows_j = packing_witness.get(j)
            if not rows_j:
                return False
            common = rows_j if common is None else common & rows_j
            if not common:
                return False
        return bool(common)

    bin_j = work.integer & (work.lb == 0.0) & (work.ub == 1.0)
    is_one = (np.abs(work.data - 1.0) <= _TOL) & bin_j[work.indices]
    is_neg = (np.abs(work.data + 1.0) <= _TOL) & bin_j[work.indices]
    shaped = (
        (work.senses == SENSE_EQ)
        & (np.abs(work.rhs) <= _TOL)
        & (work.row_nnz > 0)
        & (_row_counts(is_one | is_neg, work.indptr) == work.row_nnz)
        & (_row_counts(is_one, work.indptr) > 0)
        & (_row_counts(is_neg, work.indptr) > 0)
    )
    indptr = work.indptr
    for r in np.flatnonzero(shaped).tolist():
        # Shaped rows partition their nonzero entries exactly into
        # ``is_one`` / ``is_neg`` (the count equality above), so the
        # per-entry masks reproduce the scalar coef classification.
        s, e = indptr[r], indptr[r + 1]
        cols = work.indices[s:e]
        pos = cols[is_one[s:e]].tolist()
        neg = cols[is_neg[s:e]].tolist()
        for clique, bound_side in ((pos, neg), (neg, pos)):
            if len(clique) < 2:
                continue
            if not covered_by_one_packing_row(bound_side):
                continue
            mset = set(clique)
            for j in clique:
                conflict.setdefault(j, set()).update(mset)
    return conflict


def csr_clique_merge(work: CsrWork) -> int:
    """Twin of ``pass_clique_merge``: vectorized packing/conflict
    detection, then the object pass's greedy maximal-extension loop
    verbatim (the greedy is inherently sequential)."""
    work._witness_handoff = None
    packing_mask = _unit_packing_mask(work)
    if not np.any(packing_mask):
        return 0
    conflict = _csr_conflict_adjacency(work, packing_mask)
    unit_support: dict[int, frozenset[int]] = {}
    var_rows: dict[int, set[int]] = {}
    sel = packing_mask[work.entry_row] & (work.data != 0.0)
    row_members: dict[int, list[int]] = {}
    for r, j in zip(
        work.entry_row[sel].tolist(), work.indices[sel].tolist()
    ):
        row_members.setdefault(r, []).append(j)
    for r, mem in row_members.items():
        members = frozenset(mem)
        unit_support[r] = members
        for j in members:
            var_rows.setdefault(j, set()).add(r)

    cg = conflict.get
    is_live = work.is_live
    changed = 0
    for r in sorted(unit_support):
        if not is_live(r) or r not in unit_support:
            continue
        support = set(unit_support[r])
        touching = set().union(*map(var_rows.__getitem__, support))
        candidates = set().union(*map(unit_support.__getitem__, touching))
        candidates -= support
        for x in sorted(candidates):
            if x not in var_rows:
                continue
            # ``x`` conflicts with every support member iff support is
            # a subset of x's conflict adjacency (one C-level subset
            # test instead of a per-member witness intersection).
            cx = cg(x)
            if cx and support <= cx:
                support.add(x)
                touching |= var_rows[x]
        covered = [
            rr
            for rr in sorted(touching)
            if is_live(rr) and unit_support[rr] <= support
        ]
        if len(covered) < 2:
            continue
        covered_nonzeros = sum(len(unit_support[rr]) for rr in covered)
        if len(support) >= covered_nonzeros:
            continue  # no nonzero win; keep the pairwise form
        for rr in covered:
            for j in unit_support[rr]:
                var_rows[j].discard(rr)
            work.remove_row(rr)
            unit_support.pop(rr)
        cols = list(support)
        new_index = work.add_extra_row(
            cols, [1.0] * len(cols), SENSE_LE, 1.0, f"clique_{min(support)}"
        )
        unit_support[new_index] = frozenset(support)
        # The merged row is itself a packing row, so its members now
        # pairwise conflict -- the adjacency twin of the object pass
        # adding the new row id to every member's witness set.
        for j in support:
            var_rows.setdefault(j, set()).add(new_index)
            conflict.setdefault(j, set()).update(support)
        work.note("clique-merge", len(covered))
        changed += len(covered)
    if changed == 0:
        # Nothing merged, so the working state -- and therefore the
        # conflict adjacency -- is exactly what the implication merge
        # that runs next would recompute; hand it over (the driver's
        # intervening compact() is a no-op on a clean state).
        work._witness_handoff = conflict
    return changed


def csr_implication_merge(work: CsrWork) -> int:
    """Twin of ``pass_implication_merge``: vectorized 3-nonzero shape
    prefilter; witnesses are only computed once a family of two or
    more candidate rows actually exists."""
    handoff = work._witness_handoff
    work._witness_handoff = None
    n_rows = len(work.senses)
    if not n_rows:
        return 0
    bin_j = work.integer & (work.lb == 0.0) & (work.ub == 1.0)
    flip_row = np.where(work.senses == SENSE_GE, -1.0, 1.0)
    v = flip_row[work.entry_row] * work.data
    pos_e = (np.abs(v - 1.0) <= _TOL) & bin_j[work.indices]
    neg_e = (np.abs(v + 1.0) <= _TOL) & bin_j[work.indices]
    cand = (
        (work.row_nnz == 3)
        & (work.senses != SENSE_EQ)
        & (np.abs(flip_row * work.rhs - 1.0) <= _TOL)
        & (_row_counts(pos_e, work.indptr) == 2)
        & (_row_counts(neg_e, work.indptr) == 1)
    )
    if not np.any(cand):
        return 0
    families: dict[tuple[int, int], list[tuple[int, int]]] = {}
    indptr = work.indptr
    for r in np.flatnonzero(cand).tolist():
        # Candidate rows have exactly 2 ``pos_e`` / 1 ``neg_e`` nonzero
        # entries (the count equalities above), so the per-entry masks
        # reproduce the scalar flip-normalized coef classification.
        s, e = indptr[r], indptr[r + 1]
        cols = work.indices[s:e]
        x, y = cols[pos_e[s:e]].tolist()
        (z,) = cols[neg_e[s:e]].tolist()
        families.setdefault((z, x), []).append((r, y))
        families.setdefault((z, y), []).append((r, x))
    if not any(len(members) >= 2 for members in families.values()):
        return 0
    # A quiescent clique merge left the state untouched, so its
    # conflict adjacency is exactly what recomputation would produce.
    conflict = (
        handoff
        if handoff is not None
        else _csr_conflict_adjacency(work, _unit_packing_mask(work))
    )
    cg = conflict.get

    def conflicting(u: int, w: int) -> bool:
        cu = cg(u)
        return cu is not None and w in cu

    changed = 0
    consumed: set[int] = set()
    for (z, x), members in sorted(
        families.items(), key=lambda item: (-len(item[1]), item[0])
    ):
        live = [(r, y) for r, y in members if r not in consumed]
        if len(live) < 2:
            continue
        ys = [y for _, y in live]
        if len(set(ys)) != len(ys):
            continue  # duplicate-row pass owns identical members
        if not all(
            conflicting(a, b) for i, a in enumerate(ys) for b in ys[i + 1 :]
        ):
            continue
        for r, _y in live:
            consumed.add(r)
            work.remove_row(r)
        work.add_extra_row(
            [x, z] + ys,
            [1.0, -1.0] + [1.0] * len(ys),
            SENSE_LE,
            1.0,
            f"impl_{z}_{x}",
        )
        work.note("implication-merge", len(live))
        changed += len(live)
    return changed


def csr_indicator_merge(work: CsrWork) -> int:
    """Twin of ``pass_indicator_merge`` (vectorized shape prefilter,
    scalar grouping in row order)."""
    n_rows = len(work.senses)
    if not n_rows:
        return 0
    bin_j = work.integer & (work.lb == 0.0) & (work.ub == 1.0)
    flip_row = np.where(work.senses == SENSE_GE, -1.0, 1.0)
    v = flip_row[work.entry_row] * work.data
    pos_e = (np.abs(v - 1.0) <= _TOL) & bin_j[work.indices]
    neg_e = (np.abs(v + 1.0) <= _TOL) & bin_j[work.indices]
    cand = (
        (work.senses != SENSE_EQ)
        & (work.row_nnz >= 2)
        & (_row_counts(pos_e | neg_e, work.indptr) == work.row_nnz)
        & (_row_counts(neg_e, work.indptr) == 1)
        & (_row_counts(pos_e, work.indptr) >= 1)
    )
    if not np.any(cand):
        return 0
    groups: dict[tuple, list[tuple[int, int]]] = {}
    for r in np.flatnonzero(cand).tolist():
        flip = float(flip_row[r])
        body: list[int] = []
        indicator = -1
        for j, coef in work.row_items(r):
            if abs(flip * coef - 1.0) <= _TOL:
                body.append(j)
            else:
                indicator = j
        key = (frozenset(body), round(flip * float(work.rhs[r]), _NORM_DIGITS))
        groups.setdefault(key, []).append((r, indicator))
    changed = 0
    for (body_set, rhs), members in groups.items():
        if len(members) < 2:
            continue
        if abs(rhs - round(rhs)) > _TOL:
            continue  # merge only sound for integral rhs (see oracle)
        indicators = [p for _, p in members]
        if len(set(indicators)) != len(indicators):
            continue  # duplicate-row pass owns identical members
        k = float(len(members))
        for r, _p in members:
            work.remove_row(r)
        work.add_extra_row(
            list(body_set) + indicators,
            [k] * len(body_set) + [-1.0] * len(indicators),
            SENSE_LE,
            k * rhs,
            f"ind_{min(body_set)}",
        )
        work.note("indicator-merge", len(members))
        changed += len(members)
    return changed


def make_csr_uturn_pass(pairs: "set[frozenset[int]]"):
    """CSR twin of ``make_uturn_row_pass`` (same re-verification of
    the surrounding rows before each removal)."""

    def safe(work: CsrWork, pair_row: int, j: int, other: int) -> bool:
        for p in work.col_entry[
            work.col_ptr[j] : work.col_ptr[j + 1]
        ].tolist():
            r = int(work.entry_row[p])
            if r == pair_row or not work.row_live[r]:
                continue
            coef = float(work.data[p])
            if coef == 0.0:
                continue
            sense = int(work.senses[r])
            if sense == SENSE_EQ:
                other_coef = 0.0
                for jj, cc in work.row_items(r):
                    if jj == other:
                        other_coef = cc
                        break
                if abs(coef + other_coef) > _TOL:
                    return False
            elif sense == SENSE_LE:
                if coef < -_TOL:
                    return False
            elif coef > _TOL:
                return False
        return True

    def csr_uturn_rows(work: CsrWork) -> int:
        if not pairs or not len(work.senses):
            return 0
        cand = (
            (work.senses == SENSE_LE)
            & (work.row_nnz == 2)
            & (np.abs(work.rhs - 1.0) <= _TOL)
        )
        if not np.any(cand):
            return 0
        changed = 0
        for r in np.flatnonzero(cand).tolist():
            if not work.row_live[r] or work.row_nnz[r] != 2:
                continue
            items = work.row_items(r)
            pair = frozenset(j for j, _ in items)
            if pair not in pairs:
                continue
            ja, jr = sorted(pair)
            if not all(abs(c - 1.0) <= _TOL for _, c in items):
                continue
            if work.obj[ja] <= _TOL or work.obj[jr] <= _TOL:
                continue
            if not (safe(work, r, ja, jr) and safe(work, r, jr, ja)):
                continue
            work.remove_row(r)
            work.note("uturn-row")
            changed += 1
        return changed

    return csr_uturn_rows


def csr_unconstrained_columns(work: CsrWork) -> int:
    """Vectorized twin of ``pass_unconstrained_columns``."""
    counts = (
        np.bincount(work.indices, minlength=work.n_vars)
        if len(work.indices)
        else np.zeros(work.n_vars, dtype=np.int64)
    )
    fixed_mask = np.zeros(work.n_vars, dtype=bool)
    if work.fixed:
        fixed_mask[
            np.fromiter(work.fixed.keys(), dtype=np.int64, count=len(work.fixed))
        ] = True
    cand = (counts == 0) & ~fixed_mask
    if not np.any(cand):
        return 0
    changed = 0
    for j in np.flatnonzero(cand).tolist():
        if work.infeasible:
            break
        if j in work.fixed:
            continue
        value = _unused_variable_value(
            float(work.lb[j]), float(work.ub[j]), float(work.obj[j])
        )
        if value is None:
            continue  # unbounded column; leave it for the solver
        work.fix_var(j, value, "appears in no constraint")
        work.note("unconstrained-column")
        changed += 1
    return changed


#: CSR pass sequence, same order as ``reductions.PASSES``.
CSR_PASSES = (
    csr_singleton_rows,
    csr_bound_propagation,
    csr_coefficient_tightening,
    csr_forced_subset,
    csr_dual_fixing,
    csr_duplicate_rows,
    csr_clique_merge,
    csr_implication_merge,
    csr_indicator_merge,
)


# -- extraction -------------------------------------------------------------


def extract_csr_model(work: CsrWork) -> tuple[CsrModel, dict[int, int]]:
    """Reduced columnar model plus old->new column map (twin of
    ``extract_model``; same variable order, same row order)."""
    work.compact()
    n = work.n_vars
    keep = np.ones(n, dtype=bool)
    if work.fixed:
        keep[
            np.fromiter(work.fixed.keys(), dtype=np.int64, count=len(work.fixed))
        ] = False
    old_idx = np.flatnonzero(keep)
    new_of_old = np.full(n, -1, dtype=np.int64)
    new_of_old[old_idx] = np.arange(len(old_idx), dtype=np.int64)
    col_map = dict(zip(old_idx.tolist(), range(len(old_idx))))
    reduced = CsrModel(
        name=f"{work.name}__presolved",
        var_names=[work.var_names[j] for j in old_idx.tolist()],
        lb=work.lb[old_idx].copy(),
        ub=work.ub[old_idx].copy(),
        integer=work.integer[old_idx].copy(),
        obj=work.obj[old_idx].copy(),
        obj_const=float(work.obj_const),
        indptr=work.indptr.copy(),
        indices=new_of_old[work.indices],
        data=work.data.copy(),
        senses=work.senses.copy(),
        row_const=-work.rhs,
        row_names=list(work.row_names),
    )
    return reduced, col_map


def live_counts_csr(work: CsrWork) -> tuple[int, int, int]:
    """(rows, cols, nonzeros) still present (twin of ``live_counts``)."""
    live_entry = (work.data != 0.0) & work.row_live[work.entry_row]
    rows = int(np.count_nonzero(work.row_live)) + sum(
        1 for ex in work.extras if ex.live
    )
    cols = work.n_vars - len(work.fixed)
    nonzeros = int(np.count_nonzero(live_entry)) + sum(
        len(ex.cols) for ex in work.extras if ex.live
    )
    return rows, cols, nonzeros
