"""Columnar (CSR) model representation: the one form of every MILP.

:class:`CsrModel` stores a MILP -- bounds, integrality, objective, and
the constraint matrix -- as contiguous numpy arrays plus a
name<->index table.  Every consumer reads these arrays: the cold path
(build -> serialize -> hash -> solve) vectorized, and the per-row
diagnostics (branch-and-bound's LP slices, the model linter, the
equivalence checker) through :meth:`CsrModel.rows`,
:meth:`CsrModel.point` and :meth:`CsrModel.violated_rows`.
:meth:`CsrModel.canonical_text` is the insertion-order-invariant
serialization behind the solve-cache content address, journal seals,
and restriction proofs; ``tests/ilp_oracle.py`` holds the plain
per-row reference it is proven against.

Rows are normalized as ``sum(data . x) + row_const (sense) 0``, i.e.
the usual right-hand side is ``-row_const``.

:class:`CooBuilder` is the emission side: the routing formulation
appends variables, and rows as column-index lists through
:meth:`CooBuilder.row`, optionally on top of a frozen base section
(the ``BaseFormulation`` clone-delta path), and one
:meth:`CooBuilder.freeze` call produces the final CSR arrays with zero
per-row object churn.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.ilp.model import LinExpr, Var

#: Sense codes stored in :attr:`CsrModel.senses`.
SENSE_LE = 0
SENSE_GE = 1
SENSE_EQ = 2

#: Sense strings, indexed by sense code.
SENSES = ("<=", ">=", "==")


def _unique_by_bits(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(..., return_inverse=True)`` grouping by *bit
    pattern*, so ``-0.0`` and ``0.0`` stay distinct (their ``repr``
    differs, and the canonical text renders every float with its exact
    ``repr``, ``-0.0`` row constants included)."""
    bits, inverse = np.unique(
        np.ascontiguousarray(arr, dtype=np.float64).view(np.int64),
        return_inverse=True,
    )
    return bits.view(np.float64), inverse


@dataclass(eq=False)
class CsrModel:
    """A MILP in contiguous-array form.

    Invariants: ``lb``/``ub``/``integer``/``obj`` have length
    ``n_vars``; ``indptr`` has length ``n_rows + 1``; ``senses`` and
    ``row_const`` have length ``n_rows``; ``indices``/``data`` hold the
    row-major nonzeros.  Entries with ``data == 0`` are permitted (the
    canonical serialization filters them) but builders never emit them.
    """

    name: str
    var_names: list[str]
    lb: np.ndarray
    ub: np.ndarray
    integer: np.ndarray
    obj: np.ndarray
    obj_const: float
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    senses: np.ndarray
    row_const: np.ndarray
    row_names: list[str] = field(default_factory=list)
    _name_to_index: "dict[str, int] | None" = field(
        default=None, repr=False, compare=False
    )

    # -- shape ----------------------------------------------------------------

    @property
    def n_vars(self) -> int:
        return len(self.var_names)

    @property
    def n_rows(self) -> int:
        return len(self.senses)

    @property
    def n_integer_vars(self) -> int:
        return int(np.count_nonzero(self.integer))

    @property
    def name_to_index(self) -> dict[str, int]:
        if self._name_to_index is None:
            self._name_to_index = {
                name: j for j, name in enumerate(self.var_names)
            }
        return self._name_to_index

    def stats(self) -> dict[str, int]:
        """Model-size summary used by the Section 4.2 analysis bench."""
        return {
            "n_vars": self.n_vars,
            "n_integer_vars": self.n_integer_vars,
            "n_constraints": self.n_rows,
            "n_nonzeros": int(np.count_nonzero(self.data)),
        }

    # -- canonical serialization ---------------------------------------------

    def canonical_text(self) -> str:
        """Insertion-order-invariant serialization over the buffers.

        Terms are name-sorted with exact float ``repr``, rows are
        content-sorted with their names dropped, variables are sorted,
        and the model name is left out, so two builds of the same model
        in any order serialize identically -- the content address of
        the solve cache, journal seals, and restriction proofs.  Proven
        byte-for-byte against the per-row reference in
        ``tests/ilp_oracle.py``.
        """
        lines = ["canonical-lp v1"]
        names = self.var_names
        # Objective: name-sorted nonzero terms, exact float repr.
        nz = np.flatnonzero(self.obj)
        obj_terms = sorted(
            (names[j], coef)
            for j, coef in zip(nz.tolist(), self.obj[nz].tolist())
        )
        body = " ".join(f"{coef!r} {name}" for name, coef in obj_terms)
        lines.append(f"min {body} | {self.obj_const!r}")

        # Rows: entries sorted by (row, variable name) in one lexsort,
        # then rendered row by row and content-sorted.
        # Coefficient values repeat heavily (mostly +-1), so ``repr``
        # -- the expensive shortest-float algorithm -- runs once per
        # unique value, not once per nonzero.
        if self.n_rows:
            live = np.flatnonzero(self.data)
            entry_rows = self.entry_rows()[live]
            # Sort by (row, name) with an integer key: rank[j] is the
            # lexicographic rank of variable j's name.
            name_order = sorted(range(len(names)), key=names.__getitem__)
            rank = np.empty(len(names), dtype=np.int64)
            rank[name_order] = np.arange(len(names), dtype=np.int64)
            entry_cols = self.indices[live]
            order = np.lexsort((rank[entry_cols], entry_rows))
            sorted_rows = entry_rows[order].tolist()
            sorted_names = [names[j] for j in entry_cols[order].tolist()]
            uniq, inverse = _unique_by_bits(self.data[live][order])
            coef_reprs = [f"{c!r} " for c in uniq.tolist()]
            terms = [
                coef_reprs[k] + name
                for k, name in zip(inverse.tolist(), sorted_names)
            ]
            # Group the globally-sorted entries back into rows.
            starts = np.searchsorted(
                sorted_rows, np.arange(self.n_rows + 1)
            ).tolist()
            uniq_c, inv_c = _unique_by_bits(self.row_const)
            const_reprs = [f" | {c!r}" for c in uniq_c.tolist()]
            senses = self.senses.tolist()
            rows = sorted(
                SENSES[senses[r]]
                + " "
                + " ".join(terms[starts[r]:starts[r + 1]])
                + const_reprs[k]
                for r, k in enumerate(inv_c.tolist())
            )
            lines.extend(rows)
        lines.append("vars")
        uniq_lb, inv_lb = _unique_by_bits(self.lb)
        uniq_ub, inv_ub = _unique_by_bits(self.ub)
        lb_reprs = [f" {c!r}" for c in uniq_lb.tolist()]
        ub_reprs = [f" {c!r}" for c in uniq_ub.tolist()]
        lines.extend(
            sorted(
                name + lb_reprs[i] + ub_reprs[j] + (" i" if is_int else " c")
                for name, i, j, is_int in zip(
                    names,
                    inv_lb.tolist(),
                    inv_ub.tolist(),
                    self.integer.tolist(),
                )
            )
        )
        return "\n".join(lines) + "\n"

    # -- evaluation -----------------------------------------------------------

    def row_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-row (lo, hi) activity bounds for ``A x in [lo, hi]``
        form (the :func:`scipy.optimize.milp` constraint encoding)."""
        rhs = -self.row_const
        lo = np.where(self.senses != SENSE_LE, rhs, -np.inf)
        hi = np.where(self.senses != SENSE_GE, rhs, np.inf)
        return lo, hi

    def rows(self) -> Iterator[tuple[dict[int, float], float, str]]:
        """Each row as (column -> coefficient, constant, sense string),
        in row order."""
        indptr = self.indptr.tolist()
        indices = self.indices.tolist()
        data = self.data.tolist()
        senses = self.senses.tolist()
        for r, const in enumerate(self.row_const.tolist()):
            start, end = indptr[r], indptr[r + 1]
            yield (
                dict(zip(indices[start:end], data[start:end])),
                const,
                SENSES[senses[r]],
            )

    def point(self, values: dict[int, float]) -> np.ndarray:
        """The dense point of ``values``, with every missing variable
        at its lower bound."""
        x = self.lb.copy()
        x[list(values)] = list(values.values())
        return x

    def solution_values(self, x: np.ndarray) -> dict[int, float]:
        """Every variable's value at the dense point ``x``, integers
        snapped with Python ``round`` (so values round-trip exactly)."""
        return {
            j: round(value) if is_integer else value
            for j, (value, is_integer) in enumerate(
                zip(x.tolist(), self.integer.tolist())
            )
        }

    def entry_rows(self) -> np.ndarray:
        """The row of each stored entry (parallel to ``indices``)."""
        return np.repeat(
            np.arange(self.n_rows, dtype=np.int64), np.diff(self.indptr)
        )

    def row_activity(self, x: np.ndarray) -> np.ndarray:
        """Each row's ``A x + const`` at the dense point ``x`` (a row
        holds when its activity is <= 0, >= 0 or == 0 by its sense)."""
        return self.row_const + np.bincount(
            self.entry_rows(),
            weights=self.data * x[self.indices],
            minlength=self.n_rows,
        )

    def violated_rows(self, x: np.ndarray, tol: float = 1e-6) -> np.ndarray:
        """Indices (ascending) of the rows the dense point ``x`` misses
        by more than ``tol``."""
        activity = self.row_activity(x)
        violated = np.where(
            self.senses == SENSE_LE,
            activity > tol,
            np.where(
                self.senses == SENSE_GE,
                activity < -tol,
                np.abs(activity) > tol,
            ),
        )
        return np.flatnonzero(violated)


def _nonzero_terms(expr: LinExpr) -> tuple[list[int], list[float]]:
    """``expr``'s columns and coefficients in insertion order, zero
    coefficients dropped."""
    cols = [j for j, coef in expr.coefs.items() if coef != 0.0]
    return cols, [expr.coefs[j] for j in cols]


class CooBuilder:
    """Append-only COO accumulator the formulation emits into.

    ``var``/``binary``/``integer_var`` return :class:`Var` handles and
    :meth:`row` appends one row from a column-index list and its
    coefficients; ``le``/``ge``/``eq`` are the :class:`LinExpr` front
    end to the same emitter.  :meth:`freeze` makes one CSR
    construction at the end.  With ``base`` set, new variables
    and rows extend the frozen base section without copying it -- the
    ``BaseFormulation`` clone-delta path.
    """

    __slots__ = (
        "base",
        "n_base_vars",
        "var_names",
        "lb",
        "ub",
        "integer",
        "cols",
        "vals",
        "rowptr",
        "senses",
        "row_const",
        "row_names",
        "obj_cols",
        "obj_vals",
        "obj_const",
    )

    def __init__(self, base: "CsrModel | None" = None):
        self.base = base
        self.n_base_vars = base.n_vars if base is not None else 0
        self.var_names: list[str] = []
        self.lb: list[float] = []
        self.ub: list[float] = []
        self.integer: list[bool] = []
        self.cols: list[int] = []
        self.vals: list[float] = []
        self.rowptr: list[int] = [0]
        self.senses: list[int] = []
        self.row_const: list[float] = []
        self.row_names: list[str] = []
        self.obj_cols: list[int] = []
        self.obj_vals: list[float] = []
        self.obj_const: float = 0.0

    # -- variables ------------------------------------------------------------

    def var(
        self,
        name: str,
        lb: float = 0.0,
        ub: float = float("inf"),
        integer: bool = False,
    ) -> Var:
        if lb > ub:
            raise ValueError(f"variable {name}: lb {lb} > ub {ub}")
        index = self.n_base_vars + len(self.var_names)
        self.var_names.append(name)
        self.lb.append(lb)
        self.ub.append(ub)
        self.integer.append(integer)
        return Var(index=index, name=name, lb=lb, ub=ub, is_integer=integer)

    def binary(self, name: str) -> Var:
        return self.var(name, 0.0, 1.0, integer=True)

    def integer_var(
        self, name: str, lb: float = 0.0, ub: float = float("inf")
    ) -> Var:
        return self.var(name, lb, ub, integer=True)

    # -- rows -----------------------------------------------------------------

    def row(
        self,
        cols: Sequence[int],
        vals: Sequence[float],
        sense: int,
        rhs: float = 0.0,
        name: str = "",
        *,
        const: float = 0.0,
    ) -> None:
        """Append ``sum(vals[i] * x[cols[i]]) + const (sense) rhs``.

        The one row emitter.  ``cols`` must be distinct and ``vals``
        nonzero, in the order the row's entries are to be stored.  The
        row is normalized to ``... (sense) 0`` with constant
        ``const - rhs``: at the default ``const`` a zero right-hand
        side stores ``+0.0`` (``-rhs`` would store ``-0.0``, a
        different canonical text and so a different cache key).
        """
        self.cols.extend(cols)
        self.vals.extend(vals)
        self.rowptr.append(len(self.cols))
        self.senses.append(sense)
        self.row_const.append(const - rhs)
        self.row_names.append(name)

    def _emit(
        self, expr: LinExpr, sense: int, rhs: float, name: str
    ) -> None:
        self.row(*_nonzero_terms(expr), sense, rhs, name, const=expr.const)

    def le(self, expr: "LinExpr | Var", rhs: float = 0.0, name: str = "") -> None:
        self._emit(LinExpr._as_expr(expr), SENSE_LE, rhs, name)

    def ge(self, expr: "LinExpr | Var", rhs: float = 0.0, name: str = "") -> None:
        self._emit(LinExpr._as_expr(expr), SENSE_GE, rhs, name)

    def eq(self, expr: "LinExpr | Var", rhs: float = 0.0, name: str = "") -> None:
        self._emit(LinExpr._as_expr(expr), SENSE_EQ, rhs, name)

    def objective(
        self, cols: Sequence[int], vals: Sequence[float], const: float = 0.0
    ) -> None:
        """Set the objective ``min sum(vals[i] * x[cols[i]]) + const``
        (``cols`` distinct, ``vals`` nonzero)."""
        self.obj_cols = list(cols)
        self.obj_vals = list(vals)
        self.obj_const = const

    def minimize(self, expr: "LinExpr | Var") -> None:
        as_expr = LinExpr._as_expr(expr)
        self.objective(*_nonzero_terms(as_expr), as_expr.const)

    # -- freeze ---------------------------------------------------------------

    def freeze(self, name: str) -> CsrModel:
        """One CSR construction over base + appended sections."""
        own_lb = np.asarray(self.lb, dtype=np.float64)
        own_ub = np.asarray(self.ub, dtype=np.float64)
        own_int = np.asarray(self.integer, dtype=bool)
        own_indices = np.asarray(self.cols, dtype=np.int64)
        own_data = np.asarray(self.vals, dtype=np.float64)
        own_indptr = np.asarray(self.rowptr, dtype=np.int64)
        own_senses = np.asarray(self.senses, dtype=np.int8)
        own_const = np.asarray(self.row_const, dtype=np.float64)

        if self.base is None:
            n_vars = len(self.var_names)
            obj = np.zeros(n_vars, dtype=np.float64)
            if self.obj_cols:
                obj[np.asarray(self.obj_cols, dtype=np.int64)] = np.asarray(
                    self.obj_vals, dtype=np.float64
                )
            return CsrModel(
                name=name,
                var_names=list(self.var_names),
                lb=own_lb,
                ub=own_ub,
                integer=own_int,
                obj=obj,
                obj_const=self.obj_const,
                indptr=own_indptr,
                indices=own_indices,
                data=own_data,
                senses=own_senses,
                row_const=own_const,
                row_names=list(self.row_names),
            )

        base = self.base
        n_vars = base.n_vars + len(self.var_names)
        obj = np.zeros(n_vars, dtype=np.float64)
        obj[: base.n_vars] = base.obj
        if self.obj_cols:
            obj[np.asarray(self.obj_cols, dtype=np.int64)] += np.asarray(
                self.obj_vals, dtype=np.float64
            )
        indptr = np.concatenate(
            (base.indptr, base.indptr[-1] + own_indptr[1:])
        )
        return CsrModel(
            name=name,
            var_names=base.var_names + self.var_names,
            lb=np.concatenate((base.lb, own_lb)),
            ub=np.concatenate((base.ub, own_ub)),
            integer=np.concatenate((base.integer, own_int)),
            obj=obj,
            obj_const=base.obj_const + self.obj_const,
            indptr=indptr,
            indices=np.concatenate((base.indices, own_indices)),
            data=np.concatenate((base.data, own_data)),
            senses=np.concatenate((base.senses, own_senses)),
            row_const=np.concatenate((base.row_const, own_const)),
            row_names=(base.row_names or [""] * base.n_rows)
            + self.row_names,
        )
