"""Small MILP modeling layer (variables, expressions, constraints).

Designed for building the routing ILPs of Section 3: creation of many
binary variables, sum expressions, and <= / >= / == constraints.  The
model is solver-independent; backends consume its arrays.

Example:
    >>> m = Model("demo")
    >>> x = m.binary("x")
    >>> y = m.binary("y")
    >>> m.add(x + y <= 1)
    >>> m.minimize(-2 * x - y)
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.analysis.findings import LintReport
    from repro.ilp.csr import CsrModel


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

    def __le__(self, other) -> "Constraint":
        return Constraint(self - other, "<=")

    def __ge__(self, other) -> "Constraint":
        return Constraint(self - other, ">=")

    def __eq__(self, other) -> "Constraint":  # type: ignore[override]
        return Constraint(self - other, "==")

    __hash__ = None  # expressions are mutable

    def __repr__(self) -> str:
        terms = " + ".join(f"{c:g}*v{i}" for i, c in sorted(self.coefs.items()))
        return f"LinExpr({terms or '0'} + {self.const:g})"


@dataclass(frozen=True)
class Var:
    """A decision variable handle (owned by a :class:`Model`)."""

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

    def __le__(self, other) -> "Constraint":
        return LinExpr({self.index: 1.0}) <= other

    def __ge__(self, other) -> "Constraint":
        return LinExpr({self.index: 1.0}) >= other

    # NB: Var keeps dataclass equality/hash (needed for dict keys); use
    # `LinExpr(...) == rhs` or `var + 0 == rhs` to build an equality
    # constraint from a bare variable.


@dataclass(frozen=True)
class Constraint:
    """``expr (<=|>=|==) 0`` in normalized form."""

    expr: LinExpr
    sense: str  # "<=", ">=", "=="
    name: str = ""

    def __post_init__(self) -> None:
        if self.sense not in ("<=", ">=", "=="):
            raise ValueError(f"bad sense {self.sense!r}")

    def named(self, name: str) -> "Constraint":
        """A renamed copy; the expression is copied too, so mutating
        either constraint's (mutable) ``LinExpr`` never leaks into the
        other."""
        return Constraint(self.expr.copy(), self.sense, name)


@dataclass
class Model:
    """A MILP: variables, constraints, and a minimization objective."""

    name: str = "model"
    variables: list[Var] = field(default_factory=list)
    constraints: list[Constraint] = field(default_factory=list)
    objective: LinExpr = field(default_factory=LinExpr)

    def var(
        self,
        name: str,
        lb: float = 0.0,
        ub: float = float("inf"),
        integer: bool = False,
    ) -> Var:
        if lb > ub:
            raise ValueError(f"variable {name}: lb {lb} > ub {ub}")
        v = Var(index=len(self.variables), name=name, lb=lb, ub=ub, is_integer=integer)
        self.variables.append(v)
        return v

    def binary(self, name: str) -> Var:
        return self.var(name, 0.0, 1.0, integer=True)

    def integer(self, name: str, lb: float = 0.0, ub: float = float("inf")) -> Var:
        return self.var(name, lb, ub, integer=True)

    def add(self, constraint: Constraint, name: str = "") -> Constraint:
        if name:
            constraint = constraint.named(name)
        self.constraints.append(constraint)
        return constraint

    def add_all(self, constraints: Iterable[Constraint]) -> None:
        for constraint in constraints:
            self.add(constraint)

    def minimize(self, expr: "LinExpr | Var") -> None:
        self.objective = LinExpr._as_expr(expr).copy()

    @property
    def n_vars(self) -> int:
        return len(self.variables)

    @property
    def n_constraints(self) -> int:
        return len(self.constraints)

    @property
    def n_integer_vars(self) -> int:
        return sum(1 for v in self.variables if v.is_integer)

    def stats(self) -> dict[str, int]:
        """Model-size summary used by the Section 4.2 analysis bench."""
        nonzeros = sum(len(c.expr.coefs) for c in self.constraints)
        return {
            "n_vars": self.n_vars,
            "n_integer_vars": self.n_integer_vars,
            "n_constraints": self.n_constraints,
            "n_nonzeros": nonzeros,
        }

    def objective_value(self, values: dict[int, float]) -> float:
        """Objective (including the constant) at a point; variables
        missing from ``values`` sit at their lower bound."""
        total = self.objective.const
        for index, coef in self.objective.coefs.items():
            total += coef * values.get(index, self.variables[index].lb)
        return total

    def is_feasible(self, values: dict[int, float], tol: float = 1e-6) -> bool:
        """True when the point satisfies bounds, integrality, and every
        constraint to within ``tol``.  Missing variables sit at their
        lower bound (which must then be finite).

        This is the warm-start gate: a seeded incumbent is only
        admitted after passing this check, so a stale or rule-invalid
        point can never become the reported solution.
        """

        def at(index: int) -> float:
            return values.get(index, self.variables[index].lb)

        for v in self.variables:
            x = at(v.index)
            if x != x or x in (float("inf"), float("-inf")):
                return False
            if x < v.lb - tol or x > v.ub + tol:
                return False
            if v.is_integer and abs(x - round(x)) > tol:
                return False
        for con in self.constraints:
            lhs = con.expr.const
            for index, coef in con.expr.coefs.items():
                lhs += coef * at(index)
            if con.sense == "<=" and lhs > tol:
                return False
            if con.sense == ">=" and lhs < -tol:
                return False
            if con.sense == "==" and abs(lhs) > tol:
                return False
        return True

    def to_csr(self) -> "CsrModel":
        """Columnar (:class:`repro.ilp.csr.CsrModel`) form; lossless."""
        from repro.ilp.csr import CsrModel

        return CsrModel.from_model(self)

    @staticmethod
    def from_csr(csr: "CsrModel") -> "Model":
        """Object form of a columnar model; lossless."""
        return csr.to_model()

    def validate(self) -> "LintReport":
        """Run the pre-solve model linter (:mod:`repro.analysis`) on
        this model and return its report."""
        from repro.analysis.model_lint import lint_model

        return lint_model(self)
