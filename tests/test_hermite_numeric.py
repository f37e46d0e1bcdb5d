"""Hermite-function matrix elements: quadrature, band matrices, commutants.

All numeric; tolerances are pinned where the downstream verification layer
depends on them.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from gvh.diffop import DiffOp
from gvh.hermite import (MAX_QUAD_ORDER, QuadratureError, _gram_selftest,
                         commutant_kernel_dim, derivative_band, gauss_hermite_rule,
                         hermite_matrix, hermite_values, position_tridiagonal,
                         quadrature_order)
from gvh.qmaps import DEFAULT_TORUS_HBAR
from gvh.scalars import HBAR, S_ONE, Scalar


def _line_op(shift=0, dorder=0, m=0, j=0, c=S_ONE):
    """c·x^j·e^{2πimx}·S_shift·D^dorder, a DiffOp in x alone."""
    return DiffOp({(shift, dorder, 0, m, 0, j): c})


def _matrix(op, trunc):
    return hermite_matrix(op, trunc, DEFAULT_TORUS_HBAR)


def test_hermite_values_orthonormal():
    # quadrature-sampled Gram matrix of the first 32 Hermite functions
    xs, ws = gauss_hermite_rule(160)
    h = hermite_values(xs, 32)
    gram = (h * ws) @ h.T
    assert np.max(np.abs(gram - np.eye(32))) < 1e-10


def test_identity_matrix():
    m = _matrix(_line_op(), 64)
    assert m.shape == (64, 64)
    assert np.max(np.abs(m - np.eye(64))) < 1e-10


def test_position_matrix_matches_tridiagonal():
    # multiplication by x has exact entries sqrt((n+1)/2) off the diagonal
    m = _matrix(_line_op(j=1), 48)
    ref = position_tridiagonal(48)
    assert np.max(np.abs(m - ref)) < 1e-10
    assert abs(ref[0, 1] - math.sqrt(0.5)) < 1e-15
    assert abs(ref[4, 5] - math.sqrt(5 / 2)) < 1e-15
    assert abs(ref[5, 4] - math.sqrt(5 / 2)) < 1e-15


def test_derivative_matrix_matches_band():
    m = _matrix(_line_op(dorder=1), 48)
    ref = derivative_band(48)
    assert np.max(np.abs(m - ref)) < 1e-10
    # d/dx is antisymmetric on Hermite functions
    assert np.max(np.abs(ref + ref.T)) < 1e-14


def test_annihilation_relation():
    # (x + d/dx) h_n = sqrt(2n) h_{n-1}
    N = 24
    a = position_tridiagonal(N) + derivative_band(N)
    for n in range(1, N):
        assert abs(a[n - 1, n] - math.sqrt(2 * n)) < 1e-12
    assert np.max(np.abs(np.tril(a))) < 1e-12


def test_doubling_stability():
    op = _line_op(m=1)  # e^{2 pi i x} multiplication
    m32 = _matrix(op, 32)
    m64 = _matrix(op, 64)
    assert np.max(np.abs(m64[:32, :32] - m32)) < 1e-10


def test_shift_operator():
    # S_a: psi(x) -> psi(x + a) for an integer a; reference from direct
    # quadrature
    xs, ws = gauss_hermite_rule(200)
    h_here = hermite_values(xs, 24)
    for a in (-1, 1, 2):
        m = _matrix(_line_op(shift=a), 24)
        ref = (h_here * ws) @ hermite_values(xs + a, 24).T
        assert np.max(np.abs(m - ref)) < 1e-9


def test_shift_with_two_derivative_orders_matches_direct_quadrature():
    # B₊-shaped: ψ ↦ 1.5·x·e^{2πix}·ψ(x + 1) + ħ·ψ′(x + 1), two groups at
    # shift 1 (d = 0 and d = 1) that slice one node table at two row counts;
    # ψ′ from the exact band h_n' = Σ_k D[k, n] h_k
    N, hbar = 24, DEFAULT_TORUS_HBAR
    op = _line_op(shift=1, m=1, j=1, c=Scalar.from_fraction(Fraction(3, 2))) \
        + _line_op(shift=1, dorder=1, c=HBAR)
    assert sorted(op.groups()) == [(1, 0, 0), (1, 1, 0)]
    xs, ws = gauss_hermite_rule(200)
    h = hermite_values(xs, N)
    there = hermite_values(xs + 1, N + 1)
    fv = 1.5 * xs * np.exp(2j * np.pi * xs)
    ref = (h * ws * fv) @ there[:N].T \
        + hbar * (h * ws) @ (derivative_band(N + 1)[:, :N].T @ there).T
    assert np.max(np.abs(_matrix(op, N) - ref)) < 1e-9


def test_line_symbol_evalf_shift_and_deriv():
    # multiplication by f(t) = 1.5 (t - 2)^2 e^{2 pi i t}, built as
    # S_{-2} M_{1.5 x^2} S_2 M_{e(1)} (S_a M_g = M_{g(x+a)} S_a), and by f',
    # the commutator [d/dx, M_f], against direct quadrature of f and f'
    f = _line_op(shift=-2) * _line_op(j=2, c=Scalar.from_fraction(Fraction(3, 2))) \
        * _line_op(shift=2) * _line_op(m=1)
    assert f.order() == 0 and {key[0] for key in f.terms} == {0}
    d = _line_op(dorder=1).commutator(f)
    assert d.order() == 0
    xs, ws = gauss_hermite_rule(160)
    h = hermite_values(xs, 24)
    phase = np.exp(2j * np.pi * xs)
    for op, fv in ((f, 1.5 * (xs - 2) ** 2 * phase),
                   (d, (3 * (xs - 2) + 3j * np.pi * (xs - 2) ** 2) * phase)):
        ref = (h * ws * fv) @ h.T
        assert np.max(np.abs(_matrix(op, 24) - ref)) < 1e-9


def test_line_op_compose_matches_banded_product():
    """d/dx is exactly banded, so padding by one basis vector makes the
    truncated matrix product equal to the matrix of the composed symbol."""
    mult = _line_op(m=1)
    op = mult * _line_op(dorder=1)
    m = _matrix(op, 32)
    big_mult = _matrix(mult, 34)
    big_d = _matrix(_line_op(dorder=1), 34)
    ref = (big_mult @ big_d)[:32, :32]
    assert np.max(np.abs(m - ref)) < 1e-9


def test_hermite_matrix_evaluates_hbar():
    # hbar·x at hbar = 0.25 is a quarter of the position matrix
    m = hermite_matrix(_line_op(j=1, c=HBAR), 32, 0.25)
    assert np.max(np.abs(m - 0.25 * position_tridiagonal(32))) < 1e-10


def test_hermite_matrix_rejects_an_operator_in_y():
    for op in (DiffOp({(0, 0, 1, 0, 0, 0): S_ONE}),
               DiffOp({(0, 0, 0, 0, 1, 0): S_ONE})):
        with pytest.raises(ValueError, match="acts in y"):
            _matrix(op, 8)
    with pytest.raises(TypeError):
        _matrix(np.eye(8), 8)


@pytest.mark.parametrize("order", [8, 64, 256, 512, 740])
def test_rule_matches_hermgauss(order):
    # numpy's companion-matrix rule as an oracle: the same nodes, and the
    # stabilized weights 1/(Q·h_{Q−1}²) at its nodes
    xs, wmod = gauss_hermite_rule(order)
    with np.errstate(all="ignore"):
        ref, _ = np.polynomial.hermite.hermgauss(order)
    assert np.max(np.abs(xs - ref)) < 1e-12
    want = 1.0 / (order * hermite_values(ref, order)[order - 1] ** 2)
    assert np.max(np.abs(wmod / want - 1.0)) < 1e-10


def test_quadrature_failure_raises():
    with pytest.raises(QuadratureError):
        gauss_hermite_rule(768)


def test_largest_allowed_quadrature_order_is_finite():
    # quadrature_order admits orders up to MAX_QUAD_ORDER; a rule whose
    # nodes or weights stop being finite sooner fails here
    xs, wmod = gauss_hermite_rule(MAX_QUAD_ORDER)
    assert np.all(np.isfinite(xs)) and np.all(np.isfinite(wmod))


def test_failed_selftest_raises_on_every_call():
    # the self-test is cached per rule and size, but a failure is not
    for _ in range(2):
        with pytest.raises(QuadratureError, match="self-test failed"):
            _gram_selftest(64, 16, tol=1e-300)


def test_commutant_of_position_and_derivative():
    # only multiples of the identity commute with both x and d/dx
    N = 48
    mats = [position_tridiagonal(N), derivative_band(N)]
    kdim, tail = commutant_kernel_dim(mats, tol=1e-6, interior=N // 2)
    assert kdim == 1
    assert tail[-1] < 1e-6
    assert tail[-2] > 1e-6  # clear spectral gap below the next singular value


def test_commutant_of_position_alone_is_larger():
    N = 32
    kdim, _ = commutant_kernel_dim([position_tridiagonal(N)], tol=1e-6, interior=N // 2)
    assert kdim > 1


def _conjugation_closed_set(rng, M, sizes=None):
    """[G, R, Ḡ] with G complex and R real; with sizes, both are block
    diagonal with random blocks of those sizes, so the commutant holds one
    scalar per block."""
    labels = np.repeat(np.arange(len(sizes or [M])), sizes or [M])
    mask = labels[:, None] == labels[None, :]
    g = mask * (rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M)))
    r = mask * rng.standard_normal((M, M))
    return [g, r, g.conj()]


def _complex_reference(mats, tol, M):
    """Kernel dimension and normalized singular values of the complex stack
    kron(G₁₁ᵀ, I) − kron(I, G₁₁) that the real stack stands in for."""
    eye = np.eye(M)
    stacked = np.vstack([np.kron(g[:M, :M].T, eye) - np.kron(eye, g[:M, :M])
                         for g in mats])
    sv = np.linalg.svd(stacked, compute_uv=False)
    return int(np.sum(sv < tol * sv[0])), sv / sv[0]


def _assert_matches_reference(mats, M, want):
    """Kernel dimension and tail equal to the complex reference's; the
    reference's SVD is the last one called."""
    kdim, tail = commutant_kernel_dim(mats, tol=1e-6, interior=M)
    ref_kdim, ref_sv = _complex_reference(mats, 1e-6, M)
    assert kdim == ref_kdim == want
    ref_tail = ref_sv[-6:]
    above = ref_tail > 1e-12
    assert np.allclose(np.array(tail)[above], ref_tail[above], rtol=1e-10, atol=0)


@pytest.mark.parametrize("M, sizes, want", [
    (3, None, 1), (5, None, 1), (8, None, 1), (8, [3, 5], 2),
], ids=["M3", "M5", "M8", "M8-blocks"])
def test_real_commutant_stack_matches_complex_reference(M, sizes, want,
                                                        svd_shapes):
    # random blocks are not P-closed: the trivial grading factors the full
    # real stack in one call
    mats = _conjugation_closed_set(np.random.default_rng(M), M, sizes)
    _assert_matches_reference(mats, M, want)
    assert svd_shapes[:-1] == [(3 * M * M, M * M)]


def _parity_closed_set(rng, M):
    """[E, O, H, PHP]: a random even block, a random odd one and a random
    real block with its partner under the parity P = diag((−1)ⁿ)."""
    sign = (-1.0) ** np.add.outer(np.arange(M), np.arange(M))  # PhP = sign·h
    e, o, h = rng.standard_normal((3, M, M))
    return [e * (sign > 0), o * (sign < 0), h, sign * h]


@pytest.mark.parametrize("M", [4, 5, 8])
def test_parity_closed_set_splits_into_two_sectors(M, svd_shapes):
    mats = _parity_closed_set(np.random.default_rng(M), M)
    _assert_matches_reference(mats, M, 1)
    # grades 0, 1, 0, 1: each sector keeps ⌈M²/2⌉ + ⌊M²/2⌋ rows per pair
    even, odd = (M * M + 1) // 2, M * M // 2
    assert svd_shapes[:-1] == [(2 * (even + odd), even), (2 * (even + odd), odd)]


def test_off_parity_perturbation_takes_trivial_grading(svd_shapes):
    M = 6
    mats = _parity_closed_set(np.random.default_rng(6), M)
    bound = 64 * np.finfo(float).eps * max(np.abs(g).max() for g in mats)
    mats[0] = mats[0].copy()
    mats[0][0, 1] = 4 * bound  # an odd entry in the even block
    _assert_matches_reference(mats, M, 1)
    assert svd_shapes[:-1] == [(4 * M * M, M * M)]


def _transpose_closed_set(rng, M):
    """A P- and τ-closed set: an even symmetric block, an odd antisymmetric
    one, a random symmetric block with its partner under P, and a random
    even block with its transpose."""
    sign = (-1.0) ** np.add.outer(np.arange(M), np.arange(M))
    s, a, g, h = rng.standard_normal((4, M, M))
    g = g + g.T
    h = h * (sign > 0)
    return [(s + s.T) * (sign > 0), (a - a.T) * (sign < 0), g, sign * g, h, h.T]


def _sector_columns(M):
    """Columns of the (p, s) sectors in call order: the even symmetric
    sector holds the M diagonal entries and one column per even pair."""
    even_pairs = ((M * M + 1) // 2 - M) // 2
    return [M + even_pairs, even_pairs, M * M // 4, M * M // 4]


@pytest.mark.parametrize("M", [4, 5, 8])
def test_transpose_closed_set_splits_into_four_sectors(M, svd_shapes):
    mats = _transpose_closed_set(np.random.default_rng(M), M)
    _assert_matches_reference(mats, M, 1)
    assert [c for _, c in svd_shapes[:-1]] == _sector_columns(M)
    # each block sends the four sectors onto the four (parity, sign) classes
    assert sum(r for r, _ in svd_shapes[:-1]) == len(mats) * M * M
    if M == 4:
        assert svd_shapes[:-1] == [(20, 6), (28, 2), (24, 4), (24, 4)]


def test_off_symmetry_perturbation_keeps_parity_sectors(svd_shapes):
    M = 6
    mats = _transpose_closed_set(np.random.default_rng(6), M)
    bound = 64 * np.finfo(float).eps * max(np.abs(g).max() for g in mats)
    mats[0] = mats[0].copy()
    mats[0][0, 2] += 4 * bound  # even, so the block keeps its parity
    _assert_matches_reference(mats, M, 1)
    assert [c for _, c in svd_shapes[:-1]] == [M * M // 2, M * M // 2]
    assert sum(r for r, _ in svd_shapes[:-1]) == len(mats) * M * M


def test_transpose_pair_folds_without_parity(svd_shapes):
    # h and hᵀ are not P-graded: the trivial parity grading leaves one
    # symmetric and one antisymmetric sector
    M = 6
    h = np.random.default_rng(7).standard_normal((M, M))
    _assert_matches_reference([h, h.T], M, 1)
    assert svd_shapes[:-1] == [(M * M, M * (M + 1) // 2), (M * M, M * (M - 1) // 2)]


def test_single_odd_block_at_odd_size_keeps_structural_zeros(svd_shapes):
    # x is odd and symmetric: at M = 5 the even symmetric sector has 9
    # columns (5 diagonal, 4 pairs) but only 6 odd antisymmetric rows, and
    # the odd symmetric sector 6 columns over 4 even antisymmetric rows, so
    # zero rows pad both and their null columns still count
    M = 5
    mats = [position_tridiagonal(2 * M)]
    kdim, _ = commutant_kernel_dim(mats, tol=1e-6, interior=M)
    assert svd_shapes == [(9, 9), (6, 4), (6, 6), (9, 6)]
    assert kdim == _complex_reference(mats, 1e-6, M)[0] == M


def test_commutant_rejects_unpaired_complex_generator():
    g, r, _ = _conjugation_closed_set(np.random.default_rng(1), 4)
    with pytest.raises(ValueError, match="generator 1 is complex"):
        commutant_kernel_dim([r, g], tol=1e-6, interior=4)


def test_hermite_matrix_rejects_non_finite_entries():
    # x^300 overflows at the outer nodes of the order-256 rule
    with np.errstate(all="ignore"), \
            pytest.raises(ValueError, match="non-finite matrix entries"):
        hermite_matrix(_line_op(j=300), 64, 0.25)


def test_quadrature_order_defaults_to_four_times_the_truncation():
    assert quadrature_order(64) == 256
    assert quadrature_order(64, 300) == 300
