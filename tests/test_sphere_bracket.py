"""Poisson structure on the radius-s sphere and its canonical quotient.

Elements are polynomials in S1, S2, S3 modulo (S.S - s^2); the bracket is
{f, g} = -sum eps_ijk S_i (df/dS_j)(dg/dS_k), so {S1, S2} = -S3.
"""

import math
import random

import pytest
import sympy

from algebra_props import (_sympy_scalar, check_poisson_identities,
                           check_sphere_representatives, random_sphere,
                           random_sphere_raw)
from gvh.poly import MultiPoly
from gvh.scalars import S_ONE, S_SPIN, Scalar
from gvh import sphere
from gvh.sphere import (SVARS, SphereElement, bracket_raw, bracket_sphere,
                        harmonic_decompose, svar)

RNG = random.Random(4)

S1, S2, S3 = svar("S1"), svar("S2"), svar("S3")


def test_so3_relations():
    minus = Scalar.from_int(-1)
    assert bracket_sphere(_c(S1), _c(S2)) == _c(S3).scale(minus)
    assert bracket_sphere(_c(S2), _c(S3)) == _c(S1).scale(minus)
    assert bracket_sphere(_c(S3), _c(S1)) == _c(S2).scale(minus)
    assert bracket_sphere(_c(S2), _c(S1)) == _c(S3)


def _c(raw):
    return SphereElement.canonicalize(raw)


def test_casimir_is_central_and_constant():
    casimir = S1 * S1 + S2 * S2 + S3 * S3
    elem = _c(casimir)
    assert elem == _c(MultiPoly.const(SVARS, S_SPIN ** 2))
    for gen in (S1, S2, S3):
        assert bracket_sphere(elem, _c(gen)).is_zero()
    # the raw bracket already vanishes before canonicalization
    assert bracket_raw(casimir, S1 * S2).is_zero()


def test_canonicalize_examples():
    # S3^2 -> s^2 - S1^2 - S2^2 is NOT the normal form; the quotient keeps
    # the harmonic (traceless) part and moves the trace onto the constant.
    elem = _c(S3 * S3)
    rep = elem.representative()
    # the representative is harmonic-plus-constant, so its laplacian vanishes
    assert rep.laplacian().is_zero()
    # and it must differ from S3^2 by a multiple of the relation
    diff = rep - S3 * S3
    s2 = MultiPoly.const(SVARS, S_SPIN ** 2)
    casimir = S1 * S1 + S2 * S2 + S3 * S3 - s2
    # diff = lambda * casimir for a rational lambda
    lam = Scalar.from_rational(-1, 3)
    assert diff == casimir.scale(lam)


def test_harmonic_decompose_pieces_are_harmonic():
    r2 = S1 * S1 + S2 * S2 + S3 * S3
    for _ in range(25):
        f = random_sphere_raw(RNG, deg=3)
        # decomposition is defined on homogeneous input
        for d in range(f.degree() + 1):
            part = MultiPoly(SVARS, {e: c for e, c in f.terms.items()
                                     if sum(e) == d})
            if part.is_zero():
                continue
            pieces = harmonic_decompose(part)
            total = MultiPoly.zero(SVARS)
            for l, h in pieces.items():
                assert h.laplacian().is_zero()
                assert h.degree() == l or h.is_zero()
                term = h
                for _ in range((d - l) // 2):
                    term = term * r2
                total = total + term
            assert total == part


def test_degree_and_constant_part():
    elem = _c(S1 * S2 + MultiPoly.const(SVARS, S_ONE))
    assert elem.degree() == 2
    assert elem.representative().terms.get((0, 0, 0)) == S_ONE
    assert MultiPoly.const(SVARS, S_SPIN).degree() == 0


def test_representative_independence():
    n = check_sphere_representatives(RNG, 50)
    assert n == 50


def test_poisson_identities():
    n = check_poisson_identities(RNG, 100, lambda r: random_sphere(r), bracket_sphere)
    assert n == 100


def test_bracket_matches_sympy_cross_product():
    """Independent oracle: {f,g} = -S . (grad f x grad g) before the quotient."""
    x1, x2, x3 = sympy.symbols("S1 S2 S3")
    syms = (x1, x2, x3)
    for _ in range(20):
        f = random_sphere_raw(RNG, deg=2)
        g = random_sphere_raw(RNG, deg=2)
        fs, gs = _sym(f, syms), _sym(g, syms)
        grads = [sympy.diff(fs, v) for v in syms]
        gradg = [sympy.diff(gs, v) for v in syms]
        ref = -(x1 * (grads[1] * gradg[2] - grads[2] * gradg[1])
                + x2 * (grads[2] * gradg[0] - grads[0] * gradg[2])
                + x3 * (grads[0] * gradg[1] - grads[1] * gradg[0]))
        assert sympy.expand(_sym(bracket_raw(f, g), syms) - ref) == 0


def _sym(f, syms):
    expr = sympy.Integer(0)
    for exps, c in f.terms.items():
        num = _sympy_scalar(sympy, c, sympy.Symbol("hbar"))
        mono = sympy.Integer(1)
        for s, e in zip(syms, exps):
            mono *= s ** e
        expr += num * mono
    return sympy.expand(expr)


# ---------------------------------------------------------------------------
# the normal form modulo S.S - s^2 and the harmonic form


_X = sympy.symbols("S1 S2 S3")
_NAMES = dict(zip(SVARS, _X), s=sympy.Symbol("s"), hbar=sympy.Symbol("hbar"),
              i=sympy.I)


def _sym_any(f):
    """A polynomial with Scalar coefficients in any parameters, as sympy."""
    return sympy.expand(sum(
        sympy.sympify(str(c).replace("^", "**"), locals=_NAMES)
        * sympy.prod([x ** d for x, d in zip(_X, e)])
        for e, c in f.terms.items()))


def _check_forms(rng, trials):
    """Normal and harmonic forms of random polynomials of degree <= 6 agree
    with the polynomial modulo S.S - s^2, each in its own shape: S3-degree
    <= 1, and a vanishing Laplacian.  Returns the trials done."""
    s1, s2, s3 = _X
    casimir = sympy.Poly(s1 ** 2 + s2 ** 2 + s3 ** 2 - _NAMES["s"] ** 2, s3)
    for _ in range(trials):
        raw = random_sphere_raw(rng, deg=6, terms=5)
        elem = SphereElement.canonicalize(raw)
        harmonic = elem.representative()
        assert all(e[2] <= 1 for e in elem.terms)
        assert harmonic.laplacian().is_zero()
        # both forms have the least degree of the class
        assert elem.degree() == harmonic.degree() <= raw.degree()
        for form in (elem.poly(), harmonic):
            diff = sympy.Poly(_sym_any(raw) - _sym_any(form), s3)
            assert diff.rem(casimir).is_zero
    return trials


def test_normal_and_harmonic_forms_agree_modulo_the_casimir():
    assert _check_forms(random.Random(6), 25) == 25


def test_normal_form_keys_and_degrees():
    # S3^2 leads: S3^3 = S3 (s^2 - S1^2 - S2^2), of degree 3 like its
    # harmonic form; s^2 - S1^2 - S2^2 - S3^2 is the zero class
    cube = SphereElement.canonicalize(S3 ** 3)
    assert cube.terms == {(0, 0, 1): S_SPIN ** 2, (2, 0, 1): -S_ONE,
                          (0, 2, 1): -S_ONE}
    assert cube.degree() == cube.representative().degree() == 3
    zero = _c(S1 * S1 + S2 * S2 + S3 * S3 - MultiPoly.const(SVARS, S_SPIN ** 2))
    assert zero.is_zero() and zero.degree() == -1


def test_a_wrong_rewrite_fails_the_form_check(monkeypatch):
    # S3^2 -> s^2 - S1^2 drops a term of the Casimir
    s2 = S_SPIN ** 2

    def mutant(m):
        return tuple(((2 * j, 0), s2 ** (m - j) * ((-1) ** j * math.comb(m, j)))
                     for j in range(m + 1))
    monkeypatch.setattr(sphere, "_s3_square_power", mutant)
    with pytest.raises(AssertionError):
        _check_forms(random.Random(6), 25)
    with pytest.raises(AssertionError):
        check_sphere_representatives(random.Random(4), 50)
