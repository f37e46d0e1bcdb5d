"""Exact linear algebra over Scalar.

A row is a sparse map {column: value}, a zero entry being an absent column;
solution vectors are sparse maps of the same kind.  The reduced row
echelon form is unique for the fixed column order, so no result depends on
the order of the rows.
"""

from __future__ import annotations

from .scalars import S_ONE
from .sparse import nonzero_terms, sub_scaled


def rref(rows, ncols):
    """Reduced row echelon form of columns 0..ncols-1.

    Returns (reduced rows in pivot order, pivot column list)."""
    rows = [nonzero_terms(r) for r in rows]
    red, pivots = [], []
    for c in range(ncols):
        k = next((k for k, row in enumerate(rows) if c in row), None)
        if k is None:
            continue
        row = rows.pop(k)
        pv = row[c]
        row = {j: v / pv for j, v in row.items()}
        for other in red + rows:
            f = other.get(c)
            if f is not None:
                sub_scaled(other, f, row)
        red.append(row)
        pivots.append(c)
    return red, pivots


def nullspace(rows, ncols):
    """Basis of the solution space of rows * x = 0 (columns = unknowns)."""
    red, pivots = rref(rows, ncols)
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        vec = {fc: S_ONE}
        for row, pc in zip(red, pivots):
            if fc in row:
                vec[pc] = -row[fc]
        basis.append(vec)
    return basis


def solve_affine(rows, rhs, ncols):
    """Solve rows * x = rhs exactly.

    Returns (particular, nullspace_basis) or None when inconsistent.
    """
    red, pivots = rref([{**r, ncols: b} for r, b in zip(rows, rhs)], ncols + 1)
    if ncols in pivots:
        return None
    part = {pc: row[ncols] for row, pc in zip(red, pivots) if ncols in row}
    basis = nullspace([{j: v for j, v in row.items() if j != ncols}
                       for row in red], ncols)
    return part, basis


def rank(rows, ncols):
    _, pivots = rref(rows, ncols)
    return len(pivots)
