"""Presolve engine: fixpoint model reduction with verified lifting.

Promotes the facts PR 1's linter only *reported* into model rewrites:

1. :func:`presolve_model` runs the sound reduction passes of
   :mod:`repro.analysis.reductions` to a fixpoint and returns a
   reduced model plus a :class:`PresolveTrace` that makes every
   transformation invertible;
2. :func:`presolve_routing_ilp` additionally seeds variable fixes
   from certify-style per-net reachability over the rule-pruned
   routing graph (arcs no supersource->supersink flow can ever use
   are fixed to 0) and counts empty commodities;
3. :func:`solve_reduced` splits the reduced model into independent
   connected components (:mod:`repro.analysis.decompose`), solves
   each with a caller-supplied backend under a shared deadline, and
   lifts the merged sub-solutions back into the original variable
   space.

Soundness contract: every transformation preserves the model's
*status* (OPTIMAL / INFEASIBLE / UNBOUNDED) and its *optimal
objective value*, but not necessarily the full feasible set -- e.g.
reachability fixing removes flow circulations disconnected from any
commodity path, and unconstrained columns are pinned to their best
bound.  Any feasible point of the reduced model lifts to a feasible
point of the original with the same objective, so LIMIT incumbents
stay valid too.  The contract is enforced by a hypothesis
equivalence sweep (raw vs presolved solve) and by running the DRC
checker as an independent oracle on every lifted routing; see
``docs/static_analysis.md``.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.analysis.csr_reductions import (
    CSR_PASSES,
    CsrWork,
    csr_unconstrained_columns,
    extract_csr_model,
    live_counts_csr,
    make_csr_uturn_pass,
)
from repro.analysis.decompose import (
    Component,
    CsrComponent,
    decompose_csr,
    decompose_model,
)
from repro.analysis.reductions import (
    PASSES,
    Work,
    extract_model,
    live_counts,
    make_uturn_row_pass,
    pass_unconstrained_columns,
)
from repro.ilp.csr import SENSE_LE, CsrModel
from repro.ilp.model import Model
from repro.ilp.status import Solution, SolveStatus
from repro.router.formulation import RoutingIlp

#: Fixpoint iteration cap; reaching it is unexpected (each iteration
#: must strictly shrink or tighten the model) but keeps presolve total.
MAX_ITERATIONS = 20

#: Backend signature consumed by :func:`solve_reduced`: a model (object
#: or columnar) plus a remaining-time budget in seconds (None =
#: unlimited).  On the columnar presolve path the callable receives
#: :class:`CsrModel` components; backends that only understand object
#: models convert with :meth:`CsrModel.to_model`.
SolverFn = Callable[["Model | CsrModel", "float | None"], Solution]


@dataclass
class PresolveTrace:
    """Auditable record of one presolve run.

    ``col_map`` maps original variable indices to reduced indices and
    ``fixed`` holds the variables presolve eliminated with their
    values, so :meth:`lift` can reconstruct a full-space solution;
    ``pass_counts`` records how often each reduction fired.
    """

    col_map: dict[int, int]
    fixed: dict[int, float]
    pass_counts: dict[str, int]
    iterations: int
    n_vars_before: int
    n_rows_before: int
    n_nonzeros_before: int
    n_vars_after: int
    n_rows_after: int
    n_nonzeros_after: int
    seed_fix_count: int = 0
    empty_commodities: int = 0
    n_components: int = 0
    presolve_seconds: float = 0.0
    infeasible_reason: str | None = None

    def lift(self, reduced_solution: Solution) -> Solution:
        """Map a reduced-space solution back to the original variables.

        The reduced objective already carries the fixed variables'
        contributions in its constant term, so the lifted objective is
        the reduced objective unchanged.
        """
        lifted = Solution(
            status=reduced_solution.status,
            objective=reduced_solution.objective,
            best_bound=reduced_solution.best_bound,
            n_nodes=reduced_solution.n_nodes,
            solve_seconds=reduced_solution.solve_seconds,
        )
        if reduced_solution.values:
            values = dict(self.fixed)
            for old, new in self.col_map.items():
                values[old] = reduced_solution.values.get(new, 0.0)
            lifted.values = values
        elif (
            self.fixed
            and not self.col_map
            and reduced_solution.status
            in (SolveStatus.OPTIMAL, SolveStatus.LIMIT)
        ):
            # A fully-presolved model (no live variables left) solves
            # with an empty value map; the fixed assignments ARE the
            # solution.  With live variables remaining, an empty value
            # map means no incumbent (e.g. LIMIT before any feasible
            # point), and the lifted solution must stay incumbent-free
            # rather than fabricate an all-zeros routing.
            lifted.values = dict(self.fixed)
        return lifted

    def stats(self) -> dict[str, float]:
        """Flat summary for reports/JSON (sizes, removals, timings)."""
        return {
            "rows_before": self.n_rows_before,
            "rows_after": self.n_rows_after,
            "cols_before": self.n_vars_before,
            "cols_after": self.n_vars_after,
            "nonzeros_before": self.n_nonzeros_before,
            "nonzeros_after": self.n_nonzeros_after,
            "rows_removed": self.n_rows_before - self.n_rows_after,
            "cols_removed": self.n_vars_before - self.n_vars_after,
            "nonzeros_removed": self.n_nonzeros_before - self.n_nonzeros_after,
            "iterations": self.iterations,
            "seed_fixes": self.seed_fix_count,
            "empty_commodities": self.empty_commodities,
            "components": self.n_components,
            "presolve_seconds": round(self.presolve_seconds, 6),
        }


class PresolveResult:
    """Reduced model + trace (+ a status when presolve decided one).

    Both the original and the reduced model are available in object
    form (``original``/``reduced``) and, when presolve ran on the
    columnar path, in CSR form (``original_csr``/``reduced_csr``).
    Whichever form presolve produced is authoritative; the other is
    materialized lazily on first access, so the cold path never pays
    for an object model nobody reads.
    """

    def __init__(
        self,
        original: Model | None = None,
        reduced: Model | None = None,
        trace: PresolveTrace | None = None,
        status: SolveStatus | None = None,
        reason: str | None = None,
        original_csr: CsrModel | None = None,
        reduced_csr: CsrModel | None = None,
    ):
        self._original = original
        self._reduced = reduced
        self.trace = trace
        #: ``SolveStatus.INFEASIBLE`` when a reduction proved the model
        #: infeasible; ``None`` when the solver still has to rule.
        self.status = status
        self.reason = reason
        self.original_csr = original_csr
        self.reduced_csr = reduced_csr

    @property
    def original(self) -> Model:
        if self._original is None and self.original_csr is not None:
            self._original = self.original_csr.to_model()
        return self._original

    @original.setter
    def original(self, model: Model) -> None:
        self._original = model

    @property
    def reduced(self) -> Model:
        if self._reduced is None and self.reduced_csr is not None:
            self._reduced = self.reduced_csr.to_model()
        return self._reduced

    @reduced.setter
    def reduced(self, model: Model) -> None:
        self._reduced = model


def presolve_model(
    model: Model,
    seed_fixes: dict[int, float] | None = None,
    seed_reason: str = "seeded fix",
    max_iterations: int = MAX_ITERATIONS,
    extra_passes: "tuple[Callable[[Work], int], ...]" = (),
) -> PresolveResult:
    """Reduce ``model`` to a fixpoint of the pass catalog.

    ``seed_fixes`` (variable index -> value) are applied before the
    first iteration; routing callers seed reachability-proven zeros.
    ``extra_passes`` run after the generic catalog in each iteration
    (routing callers add the structural U-turn row pass).  The input
    model is never mutated.
    """
    t0 = time.perf_counter()
    n_vars_before = model.n_vars
    n_rows_before = model.n_constraints
    n_nonzeros_before = sum(len(c.expr.coefs) for c in model.constraints)

    work = Work.from_model(model)
    if seed_fixes:
        for index, value in seed_fixes.items():
            if work.infeasible:
                break
            work.fix_var(index, value, seed_reason)

    iterations = 0
    while not work.infeasible and iterations < max_iterations:
        iterations += 1
        changed = 0
        for reduction in PASSES + extra_passes:
            if work.infeasible:
                break
            changed += reduction(work)
        if not work.infeasible:
            changed += pass_unconstrained_columns(work)
        if changed == 0:
            break

    reduced, col_map = extract_model(work)
    rows_after, cols_after, nonzeros_after = live_counts(work)
    trace = PresolveTrace(
        col_map=col_map,
        fixed=dict(work.fixed),
        pass_counts=dict(work.counts),
        iterations=iterations,
        n_vars_before=n_vars_before,
        n_rows_before=n_rows_before,
        n_nonzeros_before=n_nonzeros_before,
        n_vars_after=cols_after,
        n_rows_after=rows_after,
        n_nonzeros_after=nonzeros_after,
        seed_fix_count=len(seed_fixes) if seed_fixes else 0,
        presolve_seconds=time.perf_counter() - t0,
        infeasible_reason=work.infeasible_reason,
    )
    status = SolveStatus.INFEASIBLE if work.infeasible else None
    return PresolveResult(
        original=model,
        reduced=reduced,
        trace=trace,
        status=status,
        reason=work.infeasible_reason,
    )


def presolve_csr(
    csr: CsrModel,
    seed_fixes: dict[int, float] | None = None,
    seed_reason: str = "seeded fix",
    max_iterations: int = MAX_ITERATIONS,
    extra_csr_passes: "tuple[Callable[[CsrWork], int], ...]" = (),
) -> PresolveResult:
    """Columnar twin of :func:`presolve_model`: same pass catalog, same
    fixpoint driver, same trace contract, vectorized working state.

    ``extra_csr_passes`` run after the catalog each iteration.  The
    input model is never mutated.
    """
    t0 = time.perf_counter()
    n_vars_before = csr.n_vars
    n_rows_before = csr.n_rows
    n_nonzeros_before = int(np.count_nonzero(csr.data))

    work = CsrWork(csr)
    if seed_fixes:
        for index, value in seed_fixes.items():
            if work.infeasible:
                break
            work.fix_var(index, value, seed_reason)

    iterations = 0
    # A pass that last ran clean (returned 0, mutated nothing) at the
    # current generation is guaranteed to run clean again: passes are
    # deterministic functions of the semantic state, and every mutation
    # bumps ``work.generation``.  Skipping them makes the final
    # fixpoint-confirming iteration nearly free without changing a
    # single firing (the object driver's counts/trace stay identical).
    quiet: dict[object, int] = {}

    def run(key: object, fn, *args) -> int:
        if quiet.get(key) == work.generation:
            return 0
        before = work.generation
        delta = fn(*args)
        if delta == 0 and work.generation == before and not work.infeasible:
            quiet[key] = before
        return delta

    while not work.infeasible and iterations < max_iterations:
        iterations += 1
        changed = 0
        for idx, reduction in enumerate(CSR_PASSES + extra_csr_passes):
            if work.infeasible:
                break
            if quiet.get(idx) == work.generation:
                continue
            work.compact()
            changed += run(idx, reduction, work)
        if not work.infeasible:
            if quiet.get("tail") != work.generation:
                work.compact()
                changed += run("tail", csr_unconstrained_columns, work)
        if changed == 0:
            break

    reduced_csr, col_map = extract_csr_model(work)
    rows_after, cols_after, nonzeros_after = live_counts_csr(work)
    trace = PresolveTrace(
        col_map=col_map,
        fixed=dict(work.fixed),
        pass_counts=dict(work.counts),
        iterations=iterations,
        n_vars_before=n_vars_before,
        n_rows_before=n_rows_before,
        n_nonzeros_before=n_nonzeros_before,
        n_vars_after=cols_after,
        n_rows_after=rows_after,
        n_nonzeros_after=nonzeros_after,
        seed_fix_count=len(seed_fixes) if seed_fixes else 0,
        presolve_seconds=time.perf_counter() - t0,
        infeasible_reason=work.infeasible_reason,
    )
    status = SolveStatus.INFEASIBLE if work.infeasible else None
    return PresolveResult(
        trace=trace,
        status=status,
        reason=work.infeasible_reason,
        original_csr=csr,
        reduced_csr=reduced_csr,
    )


def reachability_fixes(ilp: RoutingIlp) -> tuple[dict[int, float], int]:
    """Arc variables provably unusable by their net, as zero fixes.

    For each net, a forward BFS from the supersource and a backward
    BFS from the supersinks over exactly the arcs the formulation
    offers the net; an arc whose tail the source cannot reach, or
    whose head cannot reach any sink, can never carry this net's
    flow on a source->sink path.  (It could still carry a closed
    circulation in the raw model; dropping those preserves status and
    optimal objective since arc costs are nonnegative and every
    remaining constraint only benefits.)

    Returns ``(fixes, n_empty_commodities)`` where an empty commodity
    is a net left with no usable arc at all.
    """
    fixes: dict[int, float] = {}
    empty = 0
    graph = ilp.graph
    for nv in ilp.nets:
        out_arcs: dict[int, list[int]] = {}
        in_arcs: dict[int, list[int]] = {}
        for arc_index in nv.e:
            arc = graph.arcs[arc_index]
            out_arcs.setdefault(arc.tail, []).append(arc.head)
            in_arcs.setdefault(arc.head, []).append(arc.tail)
        forward = _bfs(out_arcs, (nv.supersource,))
        backward = _bfs(in_arcs, nv.supersinks)
        live = 0
        for arc_index, e in nv.e.items():
            arc = graph.arcs[arc_index]
            if arc.tail in forward and arc.head in backward:
                live += 1
                continue
            fixes[e.index] = 0.0
            f = nv.f.get(arc_index)
            if f is not None and f.index != e.index:
                fixes[f.index] = 0.0
        if live == 0:
            empty += 1
    return fixes, empty


def _bfs(adjacency: dict[int, list[int]], sources: "tuple[int, ...] | list[int]") -> set[int]:
    seen = set(sources)
    frontier = list(sources)
    while frontier:
        vertex = frontier.pop()
        for neighbor in adjacency.get(vertex, ()):
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return seen


def _site_usage_coefs(ilp: RoutingIlp, x: int, y: int, z: int) -> dict[int, float]:
    """Variable coefficients of the builder's via-site usage sum at
    cut-layer site ``(x, y, z)`` (mirrors ``_Builder._site_usage``)."""
    coefs: dict[int, float] = {}
    arcs = ilp.graph.via_site_arcs.get((x, y, z))
    if arcs is None:
        return coefs
    for nv in ilp.nets:
        for arc_index in arcs:
            e = nv.e.get(arc_index)
            if e is not None:
                coefs[e.index] = coefs.get(e.index, 0.0) + 1.0
    if ilp.rules.allow_via_shapes:
        vid_low = ilp.graph.vid(x, y, z)
        for inst in ilp.graph.shape_instances:
            if inst.lower_slot != z or vid_low not in inst.lower_members:
                continue
            for nv in ilp.nets:
                for arc_index in ilp.graph.in_arcs[inst.rep]:
                    e = nv.e.get(arc_index)
                    if e is not None:
                        coefs[e.index] = coefs.get(e.index, 0.0) + 1.0
    return coefs


def aggregate_via_adjacency(ilp: RoutingIlp) -> tuple[CsrModel, int, int]:
    """Factor repeated via-site usage sums behind auxiliary binaries.

    Every via-adjacency row is ``u_a + u_b <= 1`` where ``u_s`` is the
    full usage sum of site ``s`` (all nets' up/down via arcs plus any
    covering via shapes); a site's sum is duplicated verbatim into one
    row per restricted neighbor.  For each site where it pays, this
    rewrite introduces a binary ``U_s`` with the defining row
    ``u_s - U_s <= 0`` and shrinks every adjacency row to use ``U_s``
    in place of the sum (and drops the site's arc-exclusivity row
    ``u_s <= 1``, which ``u_s <= U_s <= 1`` subsumes).

    Soundness both ways: ``U_a + U_b <= 1`` with ``u <= U`` implies the
    original ``u_a + u_b <= 1``; conversely any original-feasible point
    extends by ``U_s = min(1, ceil(u_s))``, so status and optimal
    objective are exactly preserved (``U`` carries no objective cost).

    Returns ``(csr, n_rows_rewritten, n_aux_vars)``; the input columnar
    model is returned unchanged when nothing fires, a rewritten copy
    otherwise (same row order the object-model rewrite produced:
    originals with pair rows rewritten in place and exclusivity rows
    dropped, then the defining rows).
    """
    offsets = ilp.rules.via_restriction.blocked_offsets()
    csr = ilp.csr
    if not offsets:
        return csr, 0, 0

    site_coefs: dict[tuple[int, int, int], dict[int, float]] = {}
    for site in ilp.graph.via_site_arcs:
        coefs = _site_usage_coefs(ilp, *site)
        if coefs:
            site_coefs[site] = coefs

    # Index candidate rows (normalized `expr - 1 <= 0`) by signature.
    sig_to_rows: dict[frozenset[tuple[int, float]], list[int]] = {}
    indptr = csr.indptr
    for index in np.flatnonzero(
        (csr.senses == SENSE_LE) & (csr.row_const == -1.0)
    ).tolist():
        s, e = int(indptr[index]), int(indptr[index + 1])
        sig = frozenset(
            zip(csr.indices[s:e].tolist(), csr.data[s:e].tolist())
        )
        sig_to_rows.setdefault(sig, []).append(index)

    # Match adjacency rows to unordered site pairs, builder-style.
    pair_rows: dict[int, tuple[tuple[int, int, int], tuple[int, int, int]]] = {}
    degree: dict[tuple[int, int, int], int] = {}
    for (x, y, z), here in site_coefs.items():
        for dx, dy in offsets:
            if (x + dx, y + dy) < (x, y):
                continue  # each unordered pair once, like the builder
            other_site = (x + dx, y + dy, z)
            there = site_coefs.get(other_site)
            if there is None:
                continue
            merged = dict(here)
            for j, c in there.items():
                merged[j] = merged.get(j, 0.0) + c
            for index in sig_to_rows.get(frozenset(merged.items()), ()):
                if index not in pair_rows:
                    pair_rows[index] = ((x, y, z), other_site)
                    degree[(x, y, z)] = degree.get((x, y, z), 0) + 1
                    degree[other_site] = degree.get(other_site, 0) + 1
                    break

    # The site's own exclusivity row `u_s <= 1` (present when no shape
    # usage widens the sum past one arc pair) is subsumed once U_s
    # exists, so it counts toward the aggregation benefit.
    excl_rows: dict[tuple[int, int, int], int] = {}
    for site, coefs in site_coefs.items():
        if site not in degree:
            continue
        for index in sig_to_rows.get(frozenset(coefs.items()), ()):
            if index not in pair_rows and index not in excl_rows.values():
                excl_rows[site] = index
                break

    # Aggregate a site only when it shrinks nonzeros: the defining row
    # costs |u|+1 and one nonzero per adjacency row, against |u| saved
    # in each of the d adjacency rows (plus the exclusivity row).
    aggregated: dict[tuple[int, int, int], int] = {}
    for site, d in degree.items():
        u = len(site_coefs[site])
        excl = 1 if site in excl_rows else 0
        if u * (d + excl - 1) > d + 1:
            aggregated[site] = 0
    if not aggregated:
        return csr, 0, 0

    n0 = csr.n_vars
    var_names = list(csr.var_names)
    for k, site in enumerate(aggregated):
        x, y, z = site
        var_names.append(f"Uvia_{x}_{y}_{z}")
        aggregated[site] = n0 + k
    n_aux = len(aggregated)

    new_rows: dict[int, tuple[list[int], list[float]]] = {}
    rewritten = 0
    for index, (site_a, site_b) in pair_rows.items():
        if site_a not in aggregated and site_b not in aggregated:
            continue
        coefs: dict[int, float] = {}
        for site in (site_a, site_b):
            aux = aggregated.get(site)
            if aux is not None:
                coefs[aux] = coefs.get(aux, 0.0) + 1.0
            else:
                for j, c in site_coefs[site].items():
                    coefs[j] = coefs.get(j, 0.0) + c
        new_rows[index] = (list(coefs.keys()), list(coefs.values()))
        rewritten += 1

    drop = {excl_rows[site] for site in aggregated if site in excl_rows}

    cols_parts: list[np.ndarray] = []
    vals_parts: list[np.ndarray] = []
    counts: list[int] = []
    senses_out: list[int] = []
    row_const_out: list[float] = []
    names_out: list[str] = []
    senses = csr.senses.tolist()
    row_consts = csr.row_const.tolist()
    for r in range(csr.n_rows):
        if r in drop:
            continue
        replacement = new_rows.get(r)
        if replacement is None:
            s, e = int(indptr[r]), int(indptr[r + 1])
            cols_parts.append(csr.indices[s:e])
            vals_parts.append(csr.data[s:e])
            counts.append(e - s)
        else:
            cols, vals = replacement
            cols_parts.append(np.asarray(cols, dtype=np.int64))
            vals_parts.append(np.asarray(vals, dtype=np.float64))
            counts.append(len(cols))
        senses_out.append(senses[r])
        row_const_out.append(row_consts[r])
        names_out.append(csr.row_names[r])
    for site, aux in aggregated.items():
        coefs = site_coefs[site]
        cols_parts.append(
            np.asarray(list(coefs.keys()) + [aux], dtype=np.int64)
        )
        vals_parts.append(
            np.asarray(list(coefs.values()) + [-1.0], dtype=np.float64)
        )
        counts.append(len(coefs) + 1)
        senses_out.append(SENSE_LE)
        row_const_out.append(0.0)
        names_out.append("")

    new_indptr = np.zeros(len(senses_out) + 1, dtype=np.int64)
    np.cumsum(np.asarray(counts, dtype=np.int64), out=new_indptr[1:])
    new = CsrModel(
        name=csr.name,
        var_names=var_names,
        lb=np.concatenate((csr.lb, np.zeros(n_aux))),
        ub=np.concatenate((csr.ub, np.ones(n_aux))),
        integer=np.concatenate((csr.integer, np.ones(n_aux, dtype=bool))),
        obj=np.concatenate((csr.obj, np.zeros(n_aux))),
        obj_const=csr.obj_const,
        indptr=new_indptr,
        indices=np.concatenate(cols_parts),
        data=np.concatenate(vals_parts),
        senses=np.asarray(senses_out, dtype=np.int8),
        row_const=np.asarray(row_const_out, dtype=np.float64),
        row_names=names_out,
    )
    return new, rewritten, n_aux


def uturn_pairs(ilp: RoutingIlp) -> set[frozenset[int]]:
    """Forward/reverse arc variable pairs eligible for U-turn removal.

    Only physical arc pairs whose ``e`` variables both carry strictly
    positive objective cost qualify: a 2-cycle over them is never
    optimal, so the exclusivity leftover ``e_a + e_rev <= 1`` can be
    dropped once every other net's variable in the row is fixed (the
    pass re-verifies the surrounding row structure itself).
    """
    pairs: set[frozenset[int]] = set()
    obj = ilp.csr.obj
    for nv in ilp.nets:
        for arc_index, e in nv.e.items():
            arc = ilp.graph.arcs[arc_index]
            if arc.layer == -1 or arc.reverse <= arc.index:
                continue
            rev = nv.e.get(arc.reverse)
            if rev is None:
                continue
            if obj[e.index] > 0.0 and obj[rev.index] > 0.0:
                pairs.add(frozenset((e.index, rev.index)))
    return pairs


def presolve_routing_ilp(
    ilp: RoutingIlp, max_iterations: int = MAX_ITERATIONS
) -> PresolveResult:
    """Presolve a routing ILP, seeded with reachability-proven fixes
    and the via-adjacency usage aggregation."""
    t0 = time.perf_counter()
    fixes, empty = reachability_fixes(ilp)
    csr, n_rewritten, n_aux = aggregate_via_adjacency(ilp)
    pre = presolve_csr(
        csr,
        seed_fixes=fixes,
        seed_reason="arc unreachable on any source->sink path",
        max_iterations=max_iterations,
        extra_csr_passes=(make_csr_uturn_pass(uturn_pairs(ilp)),),
    )
    if n_aux:
        # Report sizes against the *pre-aggregation* model and keep the
        # lifted solution in the original variable space: the auxiliary
        # U variables exist only inside the reduced model.
        n_original_vars = ilp.csr.n_vars
        pre.original_csr = ilp.csr
        pre.original = None
        # Surviving auxiliaries (indices >= n_original_vars in the
        # untrimmed col_map), their defining rows ``usage - U <= 0``
        # (the only rows where an auxiliary carries a negative
        # coefficient), and their nonzeros in the rewritten adjacency
        # rows are aggregation artifacts, not presolve leftovers;
        # exclude them from the *_after counts so the before/after
        # deltas compare like with like in original-model terms and
        # never go negative just because aggregation added auxiliaries.
        aux_live = {
            new for old, new in pre.trace.col_map.items()
            if old >= n_original_vars
        }
        aux_rows = 0
        aux_nonzeros = 0
        red = pre.reduced_csr
        for r in range(red.n_rows):
            s, e = int(red.indptr[r]), int(red.indptr[r + 1])
            row_cols = red.indices[s:e].tolist()
            hits = [k for k, j in enumerate(row_cols) if j in aux_live]
            if not hits:
                continue
            row_vals = red.data[s:e]
            if any(row_vals[k] < 0.0 for k in hits):
                aux_rows += 1
                aux_nonzeros += len(row_cols)
            else:
                aux_nonzeros += len(hits)
        pre.trace.n_vars_after -= len(aux_live)
        pre.trace.n_rows_after -= aux_rows
        pre.trace.n_nonzeros_after -= aux_nonzeros
        pre.trace.col_map = {
            old: new for old, new in pre.trace.col_map.items()
            if old < n_original_vars
        }
        pre.trace.fixed = {
            index: value for index, value in pre.trace.fixed.items()
            if index < n_original_vars
        }
        pre.trace.pass_counts["via-usage-aggregation"] = n_rewritten
        pre.trace.n_vars_before = n_original_vars
        pre.trace.n_rows_before = ilp.csr.n_rows
        pre.trace.n_nonzeros_before = int(np.count_nonzero(ilp.csr.data))
    pre.trace.empty_commodities = empty
    pre.trace.presolve_seconds = time.perf_counter() - t0
    return pre


def solve_reduced(
    pre: PresolveResult,
    solver_fn: SolverFn,
    time_limit: float | None = None,
    decompose: bool = True,
) -> Solution:
    """Solve a presolved model and lift the solution to full space.

    With ``decompose`` the reduced model is split into independent
    connected components solved separately under one shared deadline;
    component objectives add (the reduced objective constant counts
    exactly once).  Status merge: any INFEASIBLE wins, then UNBOUNDED,
    then ERROR, then LIMIT; values/objective are merged only when
    every component produced an incumbent.
    """
    if pre.status is SolveStatus.INFEASIBLE:
        return Solution(status=SolveStatus.INFEASIBLE)
    if pre.reduced_csr is not None:
        # Columnar path: the reduced CSR model is decomposed and handed
        # to the backend directly -- no object model is materialized.
        reduced_csr = pre.reduced_csr
        if not decompose:
            pre.trace.n_components = 1 if reduced_csr.n_vars else 0
            return pre.trace.lift(solver_fn(reduced_csr, time_limit))
        csr_components = decompose_csr(reduced_csr)
        pre.trace.n_components = len(csr_components)
        if not csr_components:
            # Presolve fixed every variable: the model is solved.
            return pre.trace.lift(
                Solution(
                    status=SolveStatus.OPTIMAL,
                    objective=reduced_csr.obj_const,
                    best_bound=reduced_csr.obj_const,
                )
            )
        solutions = _solve_components(
            [c.model for c in csr_components], solver_fn, time_limit
        )
        merged = _merge_component_solutions(
            float(reduced_csr.obj_const), csr_components, solutions
        )
        return pre.trace.lift(merged)

    reduced = pre.reduced
    if not decompose:
        pre.trace.n_components = 1 if reduced.n_vars else 0
        return pre.trace.lift(solver_fn(reduced, time_limit))

    components = decompose_model(reduced)
    pre.trace.n_components = len(components)
    if not components:
        # Presolve fixed every variable: the model is solved.
        return pre.trace.lift(
            Solution(
                status=SolveStatus.OPTIMAL,
                objective=reduced.objective.const,
                best_bound=reduced.objective.const,
            )
        )

    solutions = _solve_components(
        [c.model for c in components], solver_fn, time_limit
    )
    merged = _merge_component_solutions(
        reduced.objective.const, components, solutions
    )
    return pre.trace.lift(merged)


def _solve_components(
    models: "list[Model] | list[CsrModel]",
    solver_fn: SolverFn,
    time_limit: float | None,
) -> list[Solution]:
    """Solve component models sequentially under one shared deadline."""
    deadline = None if time_limit is None else time.perf_counter() + time_limit
    solutions: list[Solution] = []
    for model in models:
        remaining: float | None = None
        if deadline is not None:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                solutions.append(Solution(status=SolveStatus.LIMIT))
                continue
        solutions.append(solver_fn(model, remaining))
    return solutions


_STATUS_PRIORITY = (
    SolveStatus.INFEASIBLE,
    SolveStatus.UNBOUNDED,
    SolveStatus.ERROR,
    SolveStatus.LIMIT,
)


def _merge_component_solutions(
    obj_const: float,
    components: "list[Component] | list[CsrComponent]",
    solutions: list[Solution],
) -> Solution:
    status = SolveStatus.OPTIMAL
    for candidate in _STATUS_PRIORITY:
        if any(s.status is candidate for s in solutions):
            status = candidate
            break
    merged = Solution(
        status=status,
        n_nodes=sum(s.n_nodes for s in solutions),
        solve_seconds=sum(s.solve_seconds for s in solutions),
    )
    if status in (SolveStatus.OPTIMAL, SolveStatus.LIMIT) and all(
        s.objective is not None for s in solutions
    ):
        # Each component model carries a zero objective constant; the
        # parent constant (fixed-variable contributions included) is
        # added exactly once here.
        merged.objective = (
            sum(s.objective for s in solutions if s.objective is not None)
            + obj_const
        )
        # Component objectives are independent, so proven per-component
        # dual bounds add; one missing bound leaves the merge unbounded
        # (None).  Component models carry a zero objective constant.
        bounds = [s.best_bound for s in solutions]
        if all(b is not None for b in bounds):
            merged.best_bound = (
                sum(b for b in bounds if b is not None)
                + obj_const
            )
        values: dict[int, float] = {}
        for component, sub in zip(components, solutions):
            for parent_index, local_index in component.var_map.items():
                values[parent_index] = sub.values.get(local_index, 0.0)
        merged.values = values
    return merged
