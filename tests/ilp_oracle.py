"""Reference canonical serialization of a ``CsrModel``.

``CsrModel.canonical_text`` renders the solve-cache content address
with vectorized sorts and per-unique-value ``repr`` caching; this
module renders the same text the plain way, one row at a time straight
from ``indptr``/``indices``/``data``, so the two can be proven equal.
The rules: name-sorted terms with exact ``repr`` floats (zero
coefficients dropped), content-sorted rows with their names dropped,
name-sorted variables, and no model name.
"""

from __future__ import annotations

from repro.ilp.csr import CsrModel

_SENSES = ("<=", ">=", "==")


def _expr(names: list[str], cols, coefs, const: float) -> str:
    terms = sorted(
        (names[j], coef) for j, coef in zip(cols, coefs) if coef != 0.0
    )
    body = " ".join(f"{coef!r} {name}" for name, coef in terms)
    return f"{body} | {const!r}"


def write_lp_canonical(model: CsrModel) -> str:
    """Insertion-order-invariant text of ``model``: any coefficient,
    bound, sense, rhs, or integrality change alters it; the order
    variables and rows were added in does not."""
    names = model.var_names
    obj = model.obj.tolist()
    lines = [
        "canonical-lp v1",
        "min " + _expr(names, range(len(obj)), obj, model.obj_const),
    ]
    indptr = model.indptr.tolist()
    indices = model.indices.tolist()
    data = model.data.tolist()
    senses = model.senses.tolist()
    consts = model.row_const.tolist()
    rows = []
    for r in range(model.n_rows):
        start, end = indptr[r], indptr[r + 1]
        body = _expr(names, indices[start:end], data[start:end], consts[r])
        rows.append(f"{_SENSES[senses[r]]} {body}")
    lines.extend(sorted(rows))
    lines.append("vars")
    lines.extend(
        sorted(
            f"{name} {lb!r} {ub!r} {'i' if is_int else 'c'}"
            for name, lb, ub, is_int in zip(
                names,
                model.lb.tolist(),
                model.ub.tolist(),
                model.integer.tolist(),
            )
        )
    )
    return "\n".join(lines) + "\n"
