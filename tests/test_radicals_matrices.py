"""Radical-extension scalars, and exact matrices over Scalar including the
spin triples."""

import math
import random
from fractions import Fraction

import pytest
import sympy

from gvh.matrices import MAX_SPIN_DIM, ExactMatrix, spin_matrices
from gvh.radicals import Radical
from gvh.scalars import HBAR, S_I, S_ZERO, Scalar

RNG = random.Random(7)
SPINS = [Fraction(1, 2), 1, Fraction(3, 2), 2, Fraction(5, 2), 3]


def _rand_radical(rng, nonzero=False):
    out = Radical.zero()
    for _ in range(rng.randint(1, 3)):
        c = Scalar.from_fraction(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        k = rng.choice([1, 2, 3, 5, 6])
        out = out + Radical.sqrt_int(k) * Radical.from_scalar(c)
    if nonzero and out.is_zero():
        return Radical.one()
    return out


def test_sqrt_normalization():
    # sqrt(12) = 2 sqrt(3), sqrt(8) = 2 sqrt(2), sqrt(9) = 3
    assert Radical.sqrt_int(12) == Radical.sqrt_int(3) * Radical.from_scalar(Scalar.from_int(2))
    assert Radical.sqrt_int(8) == Radical.sqrt_int(2) * Radical.from_scalar(Scalar.from_int(2))
    assert Radical.sqrt_int(9) == Radical.from_scalar(Scalar.from_int(3))
    assert Radical.sqrt_int(0).is_zero()


def test_sqrt_products_reduce():
    r2, r3, r6 = Radical.sqrt_int(2), Radical.sqrt_int(3), Radical.sqrt_int(6)
    assert r2 * r3 == r6
    assert r2 * r2 == Radical.from_scalar(Scalar.from_int(2))
    assert r6 * r2 == r3 * Radical.from_scalar(Scalar.from_int(2))


def test_field_operations_random():
    for _ in range(100):
        a = _rand_radical(RNG)
        b = _rand_radical(RNG)
        c = _rand_radical(RNG)
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        nz = _rand_radical(RNG, nonzero=True)
        assert nz * nz.inv() == Radical.one()


def test_evalf_matches_math_sqrt():
    for _ in range(50):
        a = _rand_radical(RNG)
        b = _rand_radical(RNG)
        va, vb = a.evalf(), b.evalf()
        assert abs((a * b).evalf() - va * vb) < 1e-10
        assert abs((a + b).evalf() - (va + vb)) < 1e-12
    assert abs(Radical.sqrt_int(2).evalf() - math.sqrt(2)) < 1e-15


def test_conjugation():
    z = Radical.sqrt_int(2) * Radical.from_scalar(S_I) + Radical.one()
    assert z.conj() == Radical.one() - Radical.sqrt_int(2) * Radical.from_scalar(S_I)
    assert (z * z.conj()).is_rational_part_only()


def test_scalar_part_guard():
    z = Radical.sqrt_int(2) + Radical.from_scalar(HBAR)
    assert not z.is_rational_part_only()
    assert Radical.from_scalar(HBAR).scalar_part() == HBAR


def test_spin_commutation_relations():
    """[Q_a, Q_b] = i hbar eps_abc Q_c and Casimir = hbar^2 j(j+1) I, exactly."""
    for j in SPINS:
        q1, q2, q3 = spin_matrices(j)
        dim = q1.dim
        assert dim == int(2 * Fraction(j)) + 1
        for a, b, c in ((q1, q2, q3), (q2, q3, q1), (q3, q1, q2)):
            assert a.commutator(b) == c.scale(S_I * HBAR)
        casimir = q1 * q1 + q2 * q2 + q3 * q3
        jj = Scalar.from_fraction(Fraction(j) * (Fraction(j) + 1))
        assert casimir == ExactMatrix.identity(dim).scale(HBAR * HBAR * jj)


def _spin_weights(j):
    """w_0 = 1, w_r = w_{r-1} r(2j - r + 1): the weight making the triple
    self-adjoint."""
    twoj = int(2 * Fraction(j))
    w = [1]
    for r in range(1, twoj + 1):
        w.append(w[-1] * r * (twoj - r + 1))
    return w


def test_spin_matrices_selfadjoint_traceless():
    # exact unitarizability: W Q_i = Q_i^dagger W for W = diag(w_r), w_r > 0
    for j in SPINS:
        w = _spin_weights(j)
        assert all(x > 0 for x in w)
        for q in spin_matrices(j):
            assert all(w[r] * q.entry(r, c) == w[c] * q.entry(c, r).conj()
                       for r in range(q.dim) for c in range(q.dim))
            trace = S_ZERO
            for r in range(q.dim):
                trace = trace + q.entry(r, r)
            assert trace.is_zero()


def test_spin_zero_is_trivial():
    q1, q2, q3 = spin_matrices(0)
    assert q1.dim == 1 and q1.is_zero() and q2.is_zero() and q3.is_zero()


def test_spin_entries_match_sympy():
    """Entry-by-entry oracle from sympy's angular momentum matrices."""
    from sympy.physics.quantum.spin import JxKet  # noqa: F401  (import check)
    from sympy.physics.matrices import msigma
    # j = 1/2: Q_i = (hbar/2) sigma_i
    q1, q2, q3 = spin_matrices(Fraction(1, 2))
    for q, k in ((q1, 1), (q2, 2), (q3, 3)):
        sig = msigma(k)
        for r in range(2):
            for cidx in range(2):
                got = q.entry(r, cidx).evalf({"hbar": 1.0})
                want = complex(sig[r, cidx]) / 2
                assert abs(got - want) < 1e-14


def test_spin_half_integer_validation():
    try:
        spin_matrices(Fraction(1, 3))
    except ValueError:
        pass
    else:
        raise AssertionError("non half-integer spin must be rejected")


@pytest.mark.parametrize("j, error, match", [
    (-1, ValueError, "must be nonnegative, got -1"),
    (Fraction(-1, 2), ValueError, "must be nonnegative, got -1/2"),
    (0.5, TypeError, "must be an int or a Fraction, got 0.5"),
    ("1", TypeError, "must be an int or a Fraction, got '1'"),
])
def test_spin_label_errors(j, error, match):
    # the CLI passes a Fraction; a float label is a type error, not rounded
    with pytest.raises(error, match=match):
        spin_matrices(j)


def test_spin_dimension_bound():
    assert spin_matrices(1000)[2].dim == MAX_SPIN_DIM == 2001
    with pytest.raises(ValueError, match="spin dimension 2j\\+1 = 2002 exceeds 2001"):
        spin_matrices(Fraction(2001, 2))


def test_exact_matrix_algebra():
    two = Scalar.from_int(2)
    a = ExactMatrix(2, {(0, 1): HBAR})
    b = ExactMatrix.identity(2).scale(two)
    prod = a * b
    assert prod.entry(0, 1) == two * HBAR
    assert (a + a).entry(0, 1) == two * HBAR
    assert a.commutator(a).is_zero()


def test_sparse_matrix_drops_zero_entries():
    two = Scalar.from_int(2)
    padded = ExactMatrix(2, {(0, 0): S_ZERO, (0, 1): two, (1, 1): S_ZERO})
    clean = ExactMatrix(2, {(0, 1): two})
    assert padded.terms == {(0, 1): two}
    assert padded == clean and hash(padded) == hash(clean)
    assert (padded - clean).terms == {} and padded - clean == ExactMatrix(2)


def test_sparse_matrix_product_matches_dense():
    rng = random.Random(11)
    for _ in range(20):
        da, db = ([[rng.choice([0, 0, rng.randint(-3, 3)]) for _ in range(4)]
                   for _ in range(4)] for _ in range(2))
        want = [[sum(da[i][k] * db[k][j] for k in range(4)) for j in range(4)]
                for i in range(4)]
        a, b = (ExactMatrix(4, {(i, j): Scalar.from_int(d[i][j])
                                for i in range(4) for j in range(4)})
                for d in (da, db))
        prod = a * b
        assert all(prod.entry(i, j) == Scalar.from_int(want[i][j])
                   for i in range(4) for j in range(4))


def test_sparse_matrix_str_is_dense():
    m = ExactMatrix(3, {(1, 2): Scalar.from_int(5)})
    assert str(m) == "[0, 0, 0; 0, 0, 5; 0, 0, 0]"
    assert str(ExactMatrix(2)) == "[0, 0; 0, 0]"
