"""Exact linear algebra over Scalar.

A row is a sparse map {column: value}, a zero entry being an absent column;
solution vectors are sparse maps of the same kind.  `Echelon` is the one
elimination of the engine: it keeps a reduced row echelon form under a
fixed order of the columns and takes rows one at a time.  `rref` reads it
back over the columns 0..ncols-1, the only columns every caller's rows
hold; `subspace.SubspaceBasis` is the same echelon over an ambient's keys.
The reduced echelon form is unique for the column order, so no result
depends on the order in which the rows are inserted.

Reduction follows the nonzeros: a map from pivot to stored row lets
`Echelon.reduce` visit only the pivot columns the incoming row holds, so its
cost is the row's size, not the rank.
"""

from __future__ import annotations

from bisect import insort
from operator import itemgetter

from .scalars import S_ONE
from .sparse import nonzero_terms, sub_scaled


class Echelon:
    """Reduced rows (pivot, row), kept in pivot order under `order`, a key
    on columns (the column itself by default), and the same rows by pivot.
    Each row is 1 at its own pivot and has no entry at any other."""

    def __init__(self, order=None):
        self.order = order
        self.rows = []
        self._by_pivot = {}
        self._pivot_order = itemgetter(0) if order is None \
            else (lambda pivot_row: order(pivot_row[0]))

    def reduce(self, coords):
        """Residual of coords after elimination against the rows.

        One pass over the pivots coords holds: subtracting a stored row
        changes coords only off the stored pivots, so each pivot's entry is
        the one coords came with, and the residual is the one a scan over
        every row gives."""
        coords = nonzero_terms(coords)
        by_pivot = self._by_pivot
        for pivot in [k for k in coords if k in by_pivot]:
            sub_scaled(coords, coords[pivot], by_pivot[pivot])
        return coords

    def add(self, coords):
        """Insert a row; returns True when it enlarges the span."""
        res = self.reduce(coords)
        if not res:
            return False
        pivot = min(res, key=self.order)
        pc = res[pivot]
        # re-inserted reduced rows and flat expansions already have pivot 1
        if not pc.is_one():
            res = {k: c / pc for k, c in res.items()}
        for _, row in self.rows:
            c = row.get(pivot)
            if c is not None:
                sub_scaled(row, c, res)
        insort(self.rows, (pivot, res), key=self._pivot_order)
        self._by_pivot[pivot] = res
        return True


def rref(rows, ncols):
    """Reduced row echelon form of rows over the columns 0..ncols-1.

    Returns (reduced rows in pivot order, pivot column list)."""
    ech = Echelon()
    for row in rows:
        ech.add(row)
    return [row for _, row in ech.rows], [pivot for pivot, _ in ech.rows]


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
