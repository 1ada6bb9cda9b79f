"""Self-contained mixed-integer linear programming layer.

The paper solves its routing ILPs with ILOG CPLEX; this package
provides the equivalent capability without external solvers:

- :mod:`repro.ilp.csr` -- the one model representation: a MILP as
  contiguous CSR arrays (:class:`CsrModel`), emitted row by row
  through one emitter, :meth:`CooBuilder.row`, which takes a row as
  a column-index list and its coefficients (the routing formulation
  writes every row this way);
- :mod:`repro.ilp.model` -- the variable handles (:class:`Var`) and
  the linear-expression algebra (:class:`LinExpr`) that
  ``CooBuilder.le/ge/eq`` accept and hand to the same emitter, for
  rows written by hand, such as the equivalence checker's no-good
  cuts;
- :mod:`repro.ilp.relaxation` -- the one LP form of a model, and the
  lower bound recomputed from its duals;
- :mod:`repro.ilp.highs_backend` -- exact MILP solving: the LP
  relaxation first, then ``scipy.optimize.milp`` (the HiGHS
  branch-and-cut solver) unless the LP settled the model;
- :mod:`repro.ilp.bnb` -- a pure-Python best-first branch-and-bound
  over HiGHS LP relaxations, used to cross-validate the primary
  backend on small instances.

Both backends are exact, so OptRouter's optimality claim carries over.
"""

from repro.ilp.bnb import BnBOptions, solve_with_bnb
from repro.ilp.csr import CooBuilder, CsrModel
from repro.ilp.highs_backend import solve_with_highs
from repro.ilp.lp_format import write_lp
from repro.ilp.model import LinExpr, Var
from repro.ilp.solve_cache import CacheEntry, SolveCache
from repro.ilp.status import Solution, SolveStatus

__all__ = [
    "CooBuilder",
    "CsrModel",
    "Var",
    "LinExpr",
    "Solution",
    "SolveStatus",
    "solve_with_highs",
    "solve_with_bnb",
    "BnBOptions",
    "write_lp",
    "CacheEntry",
    "SolveCache",
]
