"""Exact linear algebra over Scalar, cross-checked against sympy on rationals.

Rows and solution vectors are sparse {column: value} maps; the random
matrices are drawn dense and converted with `_sparse`.
"""

import random
from fractions import Fraction

import sympy

from gvh.linalg import Echelon, nullspace, rref, solve_affine
from gvh.scalars import HBAR, S_I, S_ONE, S_ZERO, Scalar

RNG = random.Random(2)


def _rand_matrix(rng, nrows, ncols, density=0.7):
    rows = []
    for _ in range(nrows):
        rows.append([Scalar.from_fraction(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                     if rng.random() < density else S_ZERO
                     for _ in range(ncols)])
    return rows


def _sparse(rows):
    return [{c: x for c, x in enumerate(r) if not x.is_zero()} for r in rows]


def _dense(vec, ncols):
    return [vec.get(c, S_ZERO) for c in range(ncols)]


def _mat_vec(rows, vec):
    out = []
    for r in rows:
        acc = S_ZERO
        for a, b in zip(r, vec):
            acc = acc + a * b
        out.append(acc)
    return out


def _to_sympy(rows, nc):
    vals = [sympy.Rational(str(x)) for r in rows for x in r]
    return sympy.Matrix(len(rows), nc, vals)


def test_rank_matches_sympy():
    for _ in range(30):
        nr, nc = RNG.randint(1, 5), RNG.randint(1, 5)
        rows = _rand_matrix(RNG, nr, nc)
        assert len(rref(_sparse(rows), nc)[1]) == _to_sympy(rows, nc).rank()


def test_nullspace_dimension_and_membership():
    for _ in range(30):
        nr, nc = RNG.randint(1, 5), RNG.randint(1, 6)
        rows = _rand_matrix(RNG, nr, nc)
        basis = nullspace(_sparse(rows), nc)
        assert len(basis) == nc - len(rref(_sparse(rows), nc)[1])
        for vec in basis:
            assert all(v.is_zero() for v in _mat_vec(rows, _dense(vec, nc)))
        assert len(basis) == len(_to_sympy(rows, nc).nullspace())


def test_solve_affine_consistent_systems():
    for _ in range(30):
        nr, nc = RNG.randint(1, 5), RNG.randint(1, 5)
        rows = _rand_matrix(RNG, nr, nc)
        x0 = [Scalar.from_int(RNG.randint(-3, 3)) for _ in range(nc)]
        rhs = _mat_vec(rows, x0)
        got = solve_affine(_sparse(rows), list(rhs), nc)
        assert got is not None
        part, basis = got
        assert _mat_vec(rows, _dense(part, nc)) == rhs
        for vec in basis:
            assert all(v.is_zero() for v in _mat_vec(rows, _dense(vec, nc)))


def test_solve_affine_detects_inconsistency():
    # x = 0 and x = 1 simultaneously
    assert solve_affine([{0: S_ONE}, {0: S_ONE}], [S_ZERO, S_ONE], 1) is None
    # the verdict must match sympy's rank test on random systems
    hits = 0
    for _ in range(60):
        nr, nc = RNG.randint(2, 5), RNG.randint(1, 4)
        rows = _rand_matrix(RNG, nr, nc)
        rhs = [Scalar.from_int(RNG.randint(-3, 3)) for _ in range(nr)]
        got = solve_affine(_sparse(rows), list(rhs), nc)
        a = _to_sympy(rows, nc)
        aug = a.row_join(sympy.Matrix([sympy.Rational(str(x)) for x in rhs]))
        consistent = a.rank() == aug.rank()
        assert (got is not None) == consistent
        if not consistent:
            hits += 1
    assert hits > 5  # the sample must actually exercise the inconsistent path


def test_rref_idempotent():
    for _ in range(20):
        nr, nc = RNG.randint(1, 4), RNG.randint(1, 4)
        rows = _rand_matrix(RNG, nr, nc)
        red, piv = rref(_sparse(rows), nc)
        red2, piv2 = rref([dict(r) for r in red], nc)
        assert piv == piv2
        assert red == red2


def test_rref_matches_sympy_entry_for_entry():
    # rref is an Echelon read back over the columns: its reduced rows, zero
    # rows appended, must be sympy's reduced row echelon form
    rng = random.Random(11)
    for _ in range(40):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        rows = _rand_matrix(rng, nr, nc, density=rng.choice((0.3, 0.7)))
        red, piv = rref(_sparse(rows), nc)
        want, want_piv = _to_sympy(rows, nc).rref()
        assert piv == list(want_piv)
        dense = [_dense(r, nc) for r in red] + [[S_ZERO] * nc] * (nr - len(red))
        assert _to_sympy(dense, nc) == want


def test_row_order_does_not_change_results():
    # the reduced row echelon form is unique for a fixed column order, so
    # callers may hand rows over in any order
    rng = random.Random(7)
    for _ in range(30):
        nr, nc = rng.randint(2, 6), rng.randint(1, 5)
        rows = _rand_matrix(rng, nr, nc, density=0.5)
        x0 = [Scalar.from_int(rng.randint(-3, 3)) for _ in range(nc)]
        rhs = _mat_vec(rows, x0)
        if rng.random() < 0.3:
            rhs[0] = rhs[0] + S_ONE  # sometimes inconsistent
        order = list(range(nr))
        rng.shuffle(order)
        shuffled = [rows[i] for i in order]
        assert rref(_sparse(rows), nc) == rref(_sparse(shuffled), nc)
        assert solve_affine(_sparse(rows), rhs, nc) == \
            solve_affine(_sparse(shuffled), [rhs[i] for i in order], nc)


def test_reduce_looks_up_only_the_rows_at_its_pivots():
    # one pass over the incoming row's pivot columns, not a scan of the rank:
    # every stored row the echelon hands out of its lists and maps is counted
    ech = Echelon()
    for i in range(200):
        ech.add({i: S_ONE, 200: Scalar.from_int(i)})
    reads = []

    class Rows(list):
        def __iter__(self):
            for item in list.__iter__(self):
                reads.append(item)
                yield item

    class Map(dict):
        def __getitem__(self, key):
            reads.append(key)
            return dict.__getitem__(self, key)

        def get(self, key, default=None):
            reads.append(key)
            return dict.get(self, key, default)

    for name, value in list(vars(ech).items()):
        if type(value) in (list, dict):
            setattr(ech, name, (Rows if type(value) is list else Map)(value))
    assert ech.reduce({7: S_ONE}) == {200: Scalar.from_int(-7)}
    assert len(reads) <= 2


def test_explicit_zero_entries_are_ignored():
    two, three = Scalar.from_int(2), Scalar.from_int(3)
    clean = [{0: two, 2: S_ONE}, {1: three}]
    padded = [{0: two, 1: S_ZERO, 2: S_ONE}, {0: S_ZERO, 1: three, 2: S_ZERO}]
    assert rref(padded, 3) == rref(clean, 3)
    red, _ = rref(padded, 3)
    assert all(not v.is_zero() for row in red for v in row.values())
    assert nullspace(padded, 3) == nullspace(clean, 3)
    rhs = [S_ONE, S_ZERO]
    assert solve_affine(padded, rhs, 3) == solve_affine(clean, rhs, 3)


def test_over_rational_functions():
    rows = [{0: HBAR, 1: S_ONE}, {1: HBAR}]
    got = solve_affine(rows, [S_ONE, HBAR * HBAR], 2)
    assert got is not None
    part, basis = got
    assert basis == []
    # hbar*x + y = 1, hbar*y = hbar^2  =>  y = hbar, x = (1 - hbar)/hbar
    assert part[1] == HBAR
    assert part[0] == (S_ONE - HBAR) / HBAR
    # and over the Gaussian part: i is invertible
    red, piv = rref([{0: S_I}], 1)
    assert red[0][0].is_one() and piv == [0]


def test_zero_columns():
    # no unknowns: solvable iff rhs is zero
    assert solve_affine([{}, {}], [S_ZERO, S_ZERO], 0) == ({}, [])
    assert solve_affine([{}, {}], [S_ZERO, S_ONE], 0) is None
