"""Linear expressions over decision variables.

:class:`Var` handles combine with scalars into :class:`LinExpr`
sums, and :class:`repro.ilp.csr.CooBuilder` (which hands out the
handles) appends them with ``le``/``ge``/``eq`` as rows of one
:class:`repro.ilp.csr.CsrModel`.  Hand-written rows use this algebra
(the equivalence checker's no-good cuts, tests); the routing
formulation skips it and writes column-index lists straight into
:meth:`repro.ilp.csr.CooBuilder.row`.

Example:
    >>> from repro.ilp.csr import CooBuilder
    >>> b = CooBuilder()
    >>> x = b.binary("x")
    >>> y = b.binary("y")
    >>> b.le(x + y, 1)
    >>> b.minimize(-2 * x - y)
"""

from __future__ import annotations

from dataclasses import dataclass


class LinExpr:
    """A linear expression ``sum(coef_i * var_i) + const``."""

    __slots__ = ("coefs", "const")

    def __init__(self, coefs: dict[int, float] | None = None, const: float = 0.0):
        self.coefs: dict[int, float] = coefs if coefs is not None else {}
        self.const = const

    @staticmethod
    def _as_expr(other) -> "LinExpr":
        if isinstance(other, LinExpr):
            return other
        if isinstance(other, Var):
            return LinExpr({other.index: 1.0})
        if isinstance(other, (int, float)):
            return LinExpr(const=float(other))
        raise TypeError(f"cannot use {type(other).__name__} in a linear expression")

    def copy(self) -> "LinExpr":
        return LinExpr(dict(self.coefs), self.const)

    def _iadd(self, other, sign: float) -> "LinExpr":
        expr = self._as_expr(other)
        for index, coef in expr.coefs.items():
            new = self.coefs.get(index, 0.0) + sign * coef
            if new == 0.0:
                self.coefs.pop(index, None)
            else:
                self.coefs[index] = new
        self.const += sign * expr.const
        return self

    def __add__(self, other) -> "LinExpr":
        return self.copy()._iadd(other, 1.0)

    __radd__ = __add__

    def __iadd__(self, other) -> "LinExpr":
        return self._iadd(other, 1.0)

    def __sub__(self, other) -> "LinExpr":
        return self.copy()._iadd(other, -1.0)

    def __rsub__(self, other) -> "LinExpr":
        return self._as_expr(other) - self

    def __isub__(self, other) -> "LinExpr":
        return self._iadd(other, -1.0)

    def __mul__(self, factor) -> "LinExpr":
        if not isinstance(factor, (int, float)):
            raise TypeError("only scalar multiplication is linear")
        return LinExpr(
            {i: c * factor for i, c in self.coefs.items()}, self.const * factor
        )

    __rmul__ = __mul__

    def __neg__(self) -> "LinExpr":
        return self * -1.0

    __hash__ = None  # expressions are mutable

    def __repr__(self) -> str:
        terms = " + ".join(f"{c:g}*v{i}" for i, c in sorted(self.coefs.items()))
        return f"LinExpr({terms or '0'} + {self.const:g})"


@dataclass(frozen=True)
class Var:
    """A decision variable handle (one column of a model)."""

    index: int
    name: str
    lb: float
    ub: float
    is_integer: bool

    def __add__(self, other) -> LinExpr:
        return LinExpr({self.index: 1.0}) + other

    __radd__ = __add__

    def __sub__(self, other) -> LinExpr:
        return LinExpr({self.index: 1.0}) - other

    def __rsub__(self, other) -> LinExpr:
        return LinExpr._as_expr(other) - LinExpr({self.index: 1.0})

    def __mul__(self, factor) -> LinExpr:
        return LinExpr({self.index: 1.0}) * factor

    __rmul__ = __mul__

    def __neg__(self) -> LinExpr:
        return LinExpr({self.index: -1.0})
