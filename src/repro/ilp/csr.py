"""Columnar (CSR) model representation for the cold-path pipeline.

:class:`CsrModel` stores the same MILP a :class:`repro.ilp.model.Model`
does -- bounds, integrality, objective, and the constraint matrix --
as contiguous numpy arrays plus a name<->index table, so the hot cold
path (build -> serialize -> hash -> solve) runs vectorized instead of
walking per-row ``Constraint`` objects.  The object
``Model`` remains the property-tested oracle: :meth:`CsrModel.to_model`
and :meth:`CsrModel.from_model` round-trip losslessly, and
:meth:`CsrModel.canonical_text` is byte-for-byte identical to
:func:`repro.ilp.lp_format.write_lp_canonical` on the equivalent
object model -- the solve-cache content address, journal seals, and
restriction proofs are therefore oblivious to which representation
produced them (tests/test_ilp_csr.py sweeps the equivalence).

Rows are normalized exactly like :class:`~repro.ilp.model.Constraint`:
``sum(data . x) + row_const (sense) 0``, i.e. the usual right-hand
side is ``-row_const``.

:class:`CooBuilder` is the emission side: the routing formulation
appends variables and rows (COO triplets) directly, optionally on top
of a frozen base section (the ``BaseFormulation`` clone-delta path),
and one :meth:`CooBuilder.freeze` call produces the final CSR arrays
with zero per-row object churn.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ilp.model import Constraint, LinExpr, Model, Var

#: Sense codes stored in :attr:`CsrModel.senses`.
SENSE_LE = 0
SENSE_GE = 1
SENSE_EQ = 2

_SENSE_TO_CODE = {"<=": SENSE_LE, ">=": SENSE_GE, "==": SENSE_EQ}
_CODE_TO_SENSE = {SENSE_LE: "<=", SENSE_GE: ">=", SENSE_EQ: "=="}


def _unique_by_bits(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(..., return_inverse=True)`` grouping by *bit
    pattern*, so ``-0.0`` and ``0.0`` stay distinct (their ``repr``
    differs, and the canonical text must match the object oracle's
    ``repr`` exactly, ``-0.0`` row constants included)."""
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
    def n_constraints(self) -> int:
        return self.n_rows

    @property
    def nnz(self) -> int:
        return len(self.data)

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
        """Identical keys/values to :meth:`Model.stats`."""
        return {
            "n_vars": self.n_vars,
            "n_integer_vars": self.n_integer_vars,
            "n_constraints": self.n_rows,
            "n_nonzeros": int(np.count_nonzero(self.data)),
        }

    # -- conversion -----------------------------------------------------------

    @classmethod
    def from_model(cls, model: Model) -> "CsrModel":
        """Columnar form of an object model (lossless; exact floats)."""
        n_rows = len(model.constraints)
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        cols: list[int] = []
        vals: list[float] = []
        senses = np.empty(n_rows, dtype=np.int8)
        row_const = np.empty(n_rows, dtype=np.float64)
        row_names: list[str] = []
        for r, con in enumerate(model.constraints):
            cols.extend(con.expr.coefs.keys())
            vals.extend(con.expr.coefs.values())
            indptr[r + 1] = len(cols)
            senses[r] = _SENSE_TO_CODE[con.sense]
            row_const[r] = con.expr.const
            row_names.append(con.name)
        obj = np.zeros(len(model.variables), dtype=np.float64)
        for j, coef in model.objective.coefs.items():
            obj[j] = coef
        return cls(
            name=model.name,
            var_names=[v.name for v in model.variables],
            lb=np.array([v.lb for v in model.variables], dtype=np.float64),
            ub=np.array([v.ub for v in model.variables], dtype=np.float64),
            integer=np.array(
                [v.is_integer for v in model.variables], dtype=bool
            ),
            obj=obj,
            obj_const=model.objective.const,
            indptr=indptr,
            indices=np.asarray(cols, dtype=np.int64),
            data=np.asarray(vals, dtype=np.float64),
            senses=senses,
            row_const=row_const,
            row_names=row_names,
        )

    def to_model(self) -> Model:
        """Object form (the oracle representation); lossless."""
        model = Model(name=self.name)
        lb = self.lb.tolist()
        ub = self.ub.tolist()
        integer = self.integer.tolist()
        for j, name in enumerate(self.var_names):
            model.variables.append(
                Var(
                    index=j,
                    name=name,
                    lb=lb[j],
                    ub=ub[j],
                    is_integer=integer[j],
                )
            )
        indices = self.indices.tolist()
        data = self.data.tolist()
        indptr = self.indptr.tolist()
        consts = self.row_const.tolist()
        senses = self.senses.tolist()
        names = self.row_names or [""] * self.n_rows
        for r in range(self.n_rows):
            start, end = indptr[r], indptr[r + 1]
            coefs = dict(zip(indices[start:end], data[start:end]))
            model.constraints.append(
                Constraint(
                    LinExpr(coefs, consts[r]),
                    _CODE_TO_SENSE[senses[r]],
                    names[r],
                )
            )
        nz = np.flatnonzero(self.obj)
        model.objective = LinExpr(
            dict(zip(nz.tolist(), self.obj[nz].tolist())), self.obj_const
        )
        return model

    # -- canonical serialization ---------------------------------------------

    def canonical_text(self) -> str:
        """Insertion-order-invariant serialization over the buffers.

        Byte-for-byte identical to
        ``write_lp_canonical(self.to_model())`` -- proven by the
        hypothesis sweep in ``tests/test_ilp_csr.py`` -- so cache keys,
        journal seals, and restriction proofs computed from either
        representation agree.
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
        # then rendered row by row and content-sorted like the oracle.
        # Coefficient values repeat heavily (mostly +-1), so ``repr``
        # -- the expensive shortest-float algorithm -- runs once per
        # unique value, not once per nonzero.
        if self.n_rows:
            live = np.flatnonzero(self.data)
            entry_rows = np.repeat(
                np.arange(self.n_rows, dtype=np.int64),
                np.diff(self.indptr),
            )[live]
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
                _CODE_TO_SENSE[senses[r]]
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

    def canonical_bytes(self) -> bytes:
        return self.canonical_text().encode("utf-8")

    # -- evaluation -----------------------------------------------------------

    def row_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-row (lo, hi) activity bounds for ``A x in [lo, hi]``
        form (the :func:`scipy.optimize.milp` constraint encoding)."""
        rhs = -self.row_const
        lo = np.where(self.senses != SENSE_LE, rhs, -np.inf)
        hi = np.where(self.senses != SENSE_GE, rhs, np.inf)
        return lo, hi

    def validate(self):
        """Run the pre-solve model linter on this model (API parity
        with :meth:`Model.validate`; the linter accepts the columnar
        form directly)."""
        from repro.analysis.model_lint import lint_model

        return lint_model(self)


class CooBuilder:
    """Append-only COO accumulator the formulation emits into.

    Mirrors the :class:`Model` construction API the builder needs
    (``var``/``binary``/``integer`` returning :class:`Var` handles) but
    stores rows as flat index/coefficient arrays; :meth:`freeze` makes
    one CSR construction at the end.  With ``base`` set, new variables
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

    def _emit(
        self, expr: LinExpr, sense: int, rhs: float, name: str
    ) -> None:
        for j, coef in expr.coefs.items():
            if coef != 0.0:
                self.cols.append(j)
                self.vals.append(coef)
        self.rowptr.append(len(self.cols))
        self.senses.append(sense)
        # Same normalization as ``Constraint(expr - rhs, sense)``.
        self.row_const.append(expr.const - rhs)
        self.row_names.append(name)

    def le(self, expr: "LinExpr | Var", rhs: float = 0.0, name: str = "") -> None:
        self._emit(LinExpr._as_expr(expr), SENSE_LE, rhs, name)

    def ge(self, expr: "LinExpr | Var", rhs: float = 0.0, name: str = "") -> None:
        self._emit(LinExpr._as_expr(expr), SENSE_GE, rhs, name)

    def eq(self, expr: "LinExpr | Var", rhs: float = 0.0, name: str = "") -> None:
        self._emit(LinExpr._as_expr(expr), SENSE_EQ, rhs, name)

    def minimize(self, expr: "LinExpr | Var") -> None:
        as_expr = LinExpr._as_expr(expr)
        self.obj_cols = [j for j, c in as_expr.coefs.items() if c != 0.0]
        self.obj_vals = [c for c in as_expr.coefs.values() if c != 0.0]
        self.obj_const = as_expr.const

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
