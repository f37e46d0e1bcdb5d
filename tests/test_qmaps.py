"""Quantization rules and the bracket-compatibility test (Q1)."""

import random
from fractions import Fraction

import numpy as np
import pytest

from algebra_props import weyl_action
from gvh.diffop import DiffOp
from gvh.flat import FlatElement, bracket_flat
from gvh.hermite import commutant_kernel_dim
from gvh.matrices import spin_matrices
from gvh.poly import monomials_upto
from gvh.qmaps import (METAPLECTIC, POSITION, SCHRODINGER, TORUS_PREQUANT,
                       VANHOVE, DomainError, QuantizationMap, check_q1,
                       sphere_map, torus_prequant_map,
                       torus_transformed_ops, transformed_harmonic_op,
                       vanhove_map, weyl_map)
from gvh.scalars import HBAR, S_I, S_ONE, S_SPIN, S_ZERO, Scalar
from gvh.sphere import SphereElement, svar
from gvh.torus import TorusElement, basic_set
from gvh.weyl import WeylElement

RNG = random.Random(9)
MIH = -(S_I * HBAR)


def _w(x, p, c=1, n=1):
    """c X^x P^p in the Weyl algebra on n generators (x, p exponent tuples)."""
    return WeylElement.word(tuple(x) + tuple(p), c, n)


def _m(qe, pe, c=1, n=1):
    cc = c if isinstance(c, Scalar) else Scalar.from_int(c)
    return FlatElement.monomial(n, qe, pe, cc)


def test_schrodinger_rule():
    # q -> X (multiplication), p -> P (-i hbar d/dq), 1 -> identity
    assert SCHRODINGER(_m((1,), (0,))) == WeylElement.x()
    assert SCHRODINGER(_m((0,), (1,))) == WeylElement.p()
    assert SCHRODINGER(FlatElement.const(1, S_ONE)) == WeylElement.identity()
    with pytest.raises(DomainError):
        SCHRODINGER(_m((0,), (2,)))


def test_metaplectic_quadratic_rules():
    # p^2 -> P^2 (= -hbar^2 d^2/dq^2)
    assert METAPLECTIC(_m((0,), (2,))) == _w((0,), (2,))
    # qp -> XP - i hbar/2 (= -i hbar (q d/dq + 1/2))
    want = _w((1,), (1,)) + WeylElement.const(MIH * Scalar.from_rational(1, 2))
    assert METAPLECTIC(_m((1,), (1,))) == want
    # two degrees of freedom: q1 p2 has nothing to reorder
    assert METAPLECTIC(_m((1, 0), (0, 1), n=2)) == _w((1, 0), (0, 1), n=2)
    with pytest.raises(DomainError):
        METAPLECTIC(_m((3,), (0,)))


def test_metaplectic_q1_exact_on_quadratics():
    cands = monomials_upto(2, 2)
    elems = [_m(e[:1], e[1:]) for e in cands]
    for f in elems:
        for g in elems:
            resid = check_q1(METAPLECTIC, f, g)
            assert resid.is_zero(), "residual %s for %s, %s" % (resid, f, g)


def test_position_map_general_section():
    # f(q)p + g(q) -> -i hbar (f d/dq + f'/2) + g, i.e. X^2 P - i hbar X + X^3
    f = _m((2,), (1,)) + _m((3,), (0,))
    want = _w((2,), (1,)) + _w((1,), (0,), MIH) + _w((3,), (0,))
    assert POSITION(f) == want
    with pytest.raises(DomainError):
        POSITION(_m((0,), (2,)))


def test_position_q1_on_momentum_affine_pairs():
    # S is closed under the bracket; (Q1) holds exactly on it
    elems = [_m((a,), (e,)) for a in range(4) for e in (0, 1) if a + e <= 4]
    for f in elems:
        for g in elems:
            assert check_q1(POSITION, f, g).is_zero()


def test_weyl_rule_is_the_symmetrized_ordering_sympy():
    # independent oracle: the average over all distinct orderings of a q's
    # and b p's, acting on psi(q) with q -> q*, p -> -i hbar d/dq
    sympy = pytest.importorskip("sympy")
    from sympy.utilities.iterables import multiset_permutations
    hb = sympy.Symbol("hbar", positive=True)
    q = sympy.Symbol("q")
    psi = sympy.Function("psi")(q)
    letters = {"q": lambda u: q * u, "p": lambda u: -sympy.I * hb * sympy.diff(u, q)}
    for a in range(5):
        for b in range(5 - a):
            words = list(multiset_permutations("q" * a + "p" * b))
            average = 0
            for word in words:
                u = psi
                for letter in reversed(word):
                    u = letters[letter](u)
                average += u
            average /= len(words)
            got = weyl_action(sympy, weyl_map(_m((a,), (b,))), (q,), psi, hb)
            assert sympy.expand(got - average) == 0, "q^%d p^%d" % (a, b)


def test_vanhove_image_is_prequantization_sympy():
    # Q(f) psi = -i hbar (f_p psi_q - f_q psi_p) + (f - p f_p) psi on psi(q, p)
    sympy = pytest.importorskip("sympy")
    hb = sympy.Symbol("hbar", positive=True)
    q, p = sympy.symbols("q p")
    psi = sympy.Function("psi")(q, p)
    for a in range(4):
        for b in range(4 - a):
            f = q ** a * p ** b
            fq, fp = sympy.diff(f, q), sympy.diff(f, p)
            want = -sympy.I * hb * (fp * sympy.diff(psi, q) - fq * sympy.diff(psi, p)) \
                + (f - p * fp) * psi
            got = weyl_action(sympy, vanhove_map(_m((a,), (b,))), (q, p), psi, hb)
            assert sympy.expand(got - want) == 0, "q^%d p^%d" % (a, b)


def test_vanhove_q1_all_pairs_degree2():
    cands = monomials_upto(2, 2)
    elems = [_m(e[:1], e[1:]) for e in cands]
    for f in elems:
        for g in elems:
            assert check_q1(VANHOVE, f, g).is_zero()


def test_vanhove_matches_prequantization_formula():
    # Q(p^2) = -i hbar [2p(d/dq - (i/hbar)p)] + p^2 = -2 i hbar p d/dq - p^2
    # on full phase space; with X2 = p and P1 = -i hbar d/dq that is
    # 2 X2 P1 - X2^2 in the Weyl algebra on two generators
    got = vanhove_map(_m((0,), (2,)))
    assert got == _w((0, 1), (1, 0), 2, n=2) + _w((0, 2), (0, 0), -1, n=2)
    # Q(q) = X1 + i hbar d/dp = X1 - P2
    assert vanhove_map(_m((1,), (0,))) == _w((1, 0), (0, 0), n=2) - _w((0, 0), (0, 1), n=2)
    # and Q2: Q(1) = I
    assert VANHOVE(FlatElement.const(1, S_ONE)) == WeylElement.identity(2)


def test_q1_fails_where_expected():
    # {qp, p} = -p stays momentum-affine, so (Q1) applies and holds
    f = _m((1,), (1,))  # qp
    g = _m((0,), (1,))  # p
    assert check_q1(POSITION, f, g).is_zero()
    # {q^2, p^2} = -4qp leaves S, so check_q1 on the metaplectic overlap of S
    # has no meaning for POSITION; the domain guard must fire instead
    with pytest.raises(DomainError):
        check_q1(POSITION, _m((0,), (2,)), _m((2,), (0,)))


def test_sphere_map_rules():
    # linear part is the plain spin triple; the parameters a, c only enter
    # at degree 2
    q1, q2, q3 = spin_matrices(1)
    qmap = sphere_map(1)
    got3 = qmap(SphereElement.canonicalize(svar("S3")))
    assert got3 == q3
    sym = qmap(SphereElement.canonicalize(svar("S1") * svar("S2")))
    half_a = Scalar.param("a") * Scalar.from_rational(1, 2)
    assert sym == (q1 * q2 + q2 * q1).scale(half_a)


def test_sphere_map_results_do_not_share_the_cached_spin_products():
    # the map computes Q1Q2 + Q2Q1 once; what it returns is the caller's own
    qmap = sphere_map(1)
    s1s2 = SphereElement.canonicalize(svar("S1") * svar("S2"))
    first = qmap(s1s2)
    want = dict(first.terms)
    first.scale(Scalar.from_int(3))
    first + first
    first.terms.clear()
    again = qmap(s1s2)
    assert again.terms == want and again is not first


def test_sphere_map_sends_the_class_of_s3_squared_to_its_rule():
    # the normal form has no S3^2 key: the class s^2 - S1^2 - S2^2 maps to
    # aQ3^2 + cI exactly when c = (s^2 - a hbar^2 j(j+1))/3
    from gvh.matrices import ExactMatrix
    a = Scalar.param("a")
    for j in (Fraction(1, 2), 1, Fraction(3, 2), 3):
        q3 = spin_matrices(j)[2]
        jj1 = Scalar.from_fraction(Fraction(j) * (Fraction(j) + 1))
        c = (S_SPIN ** 2 - a * HBAR ** 2 * jj1) / Scalar.from_int(3)
        got = sphere_map(j)(SphereElement.canonicalize(svar("S3") * svar("S3")))
        assert got == (q3 * q3).scale(a) + ExactMatrix.identity(q3.dim).scale(c)


def test_sphere_map_q1_linear_pairs():
    for j in (Fraction(1, 2), 1, Fraction(3, 2)):
        qmap = sphere_map(j)
        gens = [SphereElement.canonicalize(svar(v)) for v in ("S1", "S2", "S3")]
        for f in gens:
            for g in gens:
                resid = check_q1(qmap, f, g)
                assert resid.is_zero()


def test_sphere_map_q1_linear_quadratic_pairs():
    qmap = sphere_map(1)
    lin = [SphereElement.canonicalize(svar(v)) for v in ("S1", "S2", "S3")]
    quads = [SphereElement.canonicalize(svar(a) * svar(b))
             for a in ("S1", "S2", "S3") for b in ("S1", "S2", "S3")]
    for f in lin:
        for g in quads:
            assert check_q1(qmap, f, g).is_zero()


def test_checkq1_quantizes_each_sphere_operand_once(monkeypatch, capsys):
    # the spin map quantizes normal-form keys; only the report's printing of
    # f and g builds a harmonic representative
    from gvh.cli import main
    calls = []
    rep = SphereElement.representative

    def counted(self):
        calls.append(self)
        return rep(self)

    monkeypatch.setattr(SphereElement, "representative", counted)
    assert main(["checkq1", "sphere", "3*S1 + 2*S3", "S1*S2 - 4*S3^2",
                 "--j", "3"]) == 0
    assert '"residual_zero": true' in capsys.readouterr().out
    assert len(calls) == 2


def test_torus_prequant_symbolic_q1():
    for k in (1, 2):
        elems = basic_set(k, S_ONE)
        for f in elems:
            for g in elems:
                resid = check_q1(TORUS_PREQUANT, f, g)
                assert resid.is_zero(), "residual %s at k=%d" % (resid, k)


def test_torus_prequant_printed_formula():
    # at B = 1: Q(f) = -i hbar f_x d/dy + i hbar f_y d/dx + M[f - x f_x]
    f = TorusElement.cos(1, 0, B=S_ONE)
    op = torus_prequant_map(f)
    assert op.order() == 1
    # d/dy coefficient = -i hbar f_x, one term per harmonic of f_x
    fx = f.partial_x()
    assert {key[3:]: c for key, c in op.terms.items() if key[:3] == (0, 0, 1)} \
        == {(m, n, 0): c * MIH for (m, n), c in fx.terms.items()}
    assert not any(key[:3] == (0, 1, 0) for key in op.terms)  # f_y = 0
    # Q2 on the torus carrier
    assert TORUS_PREQUANT(TorusElement.const(S_ONE, B=S_ONE)) == DiffOp({(0,) * 6: S_ONE})


def test_transformed_ops_shapes_and_provenance():
    a_plus, a_minus, b_plus, b_minus = torus_transformed_ops(1, trunc=32)
    for mat in (a_plus, a_minus, b_plus, b_minus):
        assert mat.shape == (32, 32)
    with pytest.raises(ValueError):
        torus_transformed_ops(0, trunc=32)


@pytest.mark.parametrize("k, quad_order", [(1, None), (2, None), (3, None),
                                          (2, 160)])
def test_transformed_ops_are_closed_under_conjugation(k, quad_order):
    # the real commutant stack pairs A+ with A- and takes B+- as real
    a_plus, a_minus, b_plus, b_minus = torus_transformed_ops(k, 32,
                                                             quad_order=quad_order)
    assert np.array_equal(a_minus, a_plus.conj())
    assert not b_plus.imag.any() and not b_minus.imag.any()


@pytest.mark.parametrize("k, quad_order", [(1, None), (2, None), (3, None),
                                          (2, 160)])
def test_transformed_ops_are_closed_under_parity(k, quad_order):
    # the graded commutant stack pairs B+ with B- = P B+ P and grades A± by
    # parity, up to 64 eps max|h|; P = diag((-1)^n)
    mats = torus_transformed_ops(k, 32, quad_order=quad_order)
    a_plus, a_minus, b_plus, b_minus = mats
    sign = (-1.0) ** np.add.outer(np.arange(32), np.arange(32))
    bound = 64 * np.finfo(float).eps * max(np.abs(m).max() for m in mats)
    assert np.abs(a_minus - sign * a_plus).max() <= bound
    assert np.abs(b_minus - sign * b_plus).max() <= bound


@pytest.mark.parametrize("k, quad_order", [(1, None), (2, None), (3, None),
                                          (2, 160)])
def test_transformed_ops_are_closed_under_transposition(k, quad_order):
    # the graded commutant stack takes A± as symmetric and pairs B+ with
    # B- = B+^T, up to 64 eps max|h|
    mats = torus_transformed_ops(k, 32, quad_order=quad_order)
    a_plus, a_minus, b_plus, b_minus = mats
    bound = 64 * np.finfo(float).eps * max(np.abs(m).max() for m in mats)
    assert np.abs(a_plus - a_plus.T).max() <= bound
    assert np.abs(a_minus - a_minus.T).max() <= bound
    assert np.abs(b_minus - b_plus.T).max() <= bound


def _real_stack_reference(mats, tol):
    """Kernel dimension and normalized singular values of the full real
    stack over √2 Re A₊, √2 Im A₊, B₊ and B₋."""
    M = mats[0].shape[0] // 2
    a_plus, _, b_plus, b_minus = (m[:M, :M] for m in mats)
    eye = np.eye(M)
    blocks = [np.sqrt(2.0) * a_plus.real, np.sqrt(2.0) * a_plus.imag,
              b_plus.real, b_minus.real]
    stacked = np.vstack([np.kron(h.T, eye) - np.kron(eye, h) for h in blocks])
    sv = np.linalg.svd(stacked, compute_uv=False)
    return int(np.sum(sv < tol * sv[0])), sv / sv[0]


@pytest.mark.parametrize("trunc", [32, 64])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_graded_commutant_matches_full_real_stack(k, trunc, svd_shapes):
    mats = torus_transformed_ops(k, trunc)
    kdim, tail = commutant_kernel_dim(mats, tol=1e-6)
    # four sectors (parity p, transpose sign s), p even first and s = +1
    # first: √2 Re A₊, √2 Im A₊ and (B₊ + B₋)/√2 are symmetric and
    # (B₊ − B₋)/√2 antisymmetric
    M = trunc // 2
    quarter = M * M // 4
    assert svd_shapes == [(M * M - M, quarter + M // 2),
                          (M * M + M, quarter - M // 2),
                          (M * M, quarter), (M * M, quarter)]
    ref_kdim, ref_sv = _real_stack_reference(mats, 1e-6)
    assert kdim == ref_kdim
    ref_tail = ref_sv[-6:]
    above = ref_tail > 1e-12
    assert np.allclose(np.array(tail)[above], ref_tail[above], rtol=1e-10, atol=0)


def _symbol_at(op, x, params):
    """Σ c·x^j·e^{2πimx} over the terms of op, at the points x."""
    return sum(complex(c.evalf(params)) * x ** j * np.exp(2j * np.pi * m * x)
               for (_, _, _, m, _, j), c in op.terms.items())


def test_transformed_pure_x_harmonic_symbol():
    # the k-th x-harmonic transforms to multiplication by
    # e^{2 pi i k x} (1 - 2 pi i k x); no shift, no derivative
    import math
    op = transformed_harmonic_op(1, 0)
    xs = np.linspace(-1.2, 1.3, 5)
    assert {key[:3] for key in op.terms} == {(0, 0, 0)}
    vals = _symbol_at(op, xs, {"pi": math.pi})
    want = np.exp(2j * math.pi * xs) * (1 - 2j * math.pi * xs)
    assert np.max(np.abs(vals - want)) < 1e-12


def _line(a=0, dx=0, j=0, c=S_ONE):
    return DiffOp({(a, dx, 0, 0, 0, j): c})


@pytest.mark.parametrize("k", [1, 3, 7])
def test_transformed_product_identities_are_exact(k):
    # A-A+ = 1 + 4 pi^2 k^2 x^2 and B-B+ = 1 - 4 pi^2 hbar^2 k^2 d^2, as
    # exact operator equalities (k = 3 is the case the N = 64 truncated
    # product misses)
    from gvh.scalars import TWO_PI
    one = _line()
    a_plus, a_minus = transformed_harmonic_op(k, 0), transformed_harmonic_op(-k, 0)
    b_plus, b_minus = transformed_harmonic_op(0, k), transformed_harmonic_op(0, -k)
    w2 = (TWO_PI * k) ** 2
    assert a_minus * a_plus == one + _line(j=2, c=w2)
    assert b_minus * b_plus == one + _line(dx=2, c=-w2 * HBAR * HBAR)
    assert a_plus * a_minus == a_minus * a_plus
    assert b_plus * b_minus == b_minus * b_plus


@pytest.mark.parametrize("k", [1, 3, 7])
def test_transformed_products_are_exact_rows(k):
    # each operator is a map of Scalars, so an Echelon holds it as a row:
    # B-B+ lies in span{I, d^2} and A-A+ in span{I, x^2}, while A+ does not
    from gvh.linalg import Echelon
    a_plus, a_minus = transformed_harmonic_op(k, 0), transformed_harmonic_op(-k, 0)
    b_plus, b_minus = transformed_harmonic_op(0, k), transformed_harmonic_op(0, -k)
    for basis, op in (((_line(), _line(dx=2)), b_minus * b_plus),
                      ((_line(), _line(j=2)), a_minus * a_plus)):
        ech = Echelon()
        assert all(ech.add(row.terms) for row in basis)
        assert ech.reduce(op.terms) == {}
    assert ech.reduce(a_plus.terms) != {}


def test_transformed_ops_match_sympy_on_test_functions():
    """Apply A± and B± to psi = x^j e^{2 pi i m' x}, as the order-0 part of
    op∘psi (each shift leaves the constant 1 alone), and compare with sympy's value of the defining formula
    psi -> e^{2 pi i m t}[(1 - 2 pi i m (t + l)) psi(t + l) - 2 pi hbar l psi'(t + l)]."""
    sympy = pytest.importorskip("sympy")
    import math
    t = sympy.Symbol("t", real=True)
    hb = 0.37
    points = (-0.8, 0.15, 1.3)
    for m, l in ((2, 0), (-2, 0), (0, 2), (0, -2), (1, 0), (0, 3)):
        op = transformed_harmonic_op(m, l)
        for j, mp in ((0, 0), (1, 1), (2, -1), (3, 2)):
            psi = t ** j * sympy.exp(2 * sympy.pi * sympy.I * mp * t)
            want = sympy.exp(2 * sympy.pi * sympy.I * m * t) * (
                (1 - 2 * sympy.pi * sympy.I * m * (t + l)) * psi.subs(t, t + l)
                - 2 * sympy.pi * hb * l * sympy.diff(psi, t).subs(t, t + l))
            got = op * DiffOp({(0, 0, 0, mp, 0, j): S_ONE})
            assert got.order() == 1 if l else got.order() == 0
            got = DiffOp({key: c for key, c in got.terms.items() if key[1] == 0})
            for x in points:
                ref = complex(want.subs(t, x).evalf(20))
                val = _symbol_at(got, x, {"pi": math.pi, "hbar": hb})
                assert abs(val - ref) < 1e-10 * max(1.0, abs(ref)), (m, l, j, mp, x)


def test_check_q1_with_custom_map():
    """A deliberately broken rule must produce a nonzero residual."""
    broken = QuantizationMap(
        "broken", "degree <= 1", lambda f: weyl_map(f).scale(Scalar.from_int(2)),
        bracket_flat,
        membership=lambda f: None if f.degree() <= 1 else "degree too high")
    q = _m((1,), (0,))
    p = _m((0,), (1,))
    resid = check_q1(broken, q, p)
    assert not resid.is_zero()
