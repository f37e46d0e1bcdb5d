"""Multivariate polynomial layer, cross-checked against sympy."""

import math
import random
from fractions import Fraction

import sympy

from algebra_props import _sympy_scalar, random_scalar
from gvh.poly import MultiPoly, monomials_upto
from gvh.scalars import HBAR, S_ONE, Scalar

VARS = ("q1", "p1")
RNG = random.Random(1)


def _rand_poly(rng, deg=3, terms=4):
    out = MultiPoly.zero(VARS)
    cands = monomials_upto(2, deg)
    for _ in range(terms):
        c = Scalar.from_fraction(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        out = out + MultiPoly.monomial(VARS, rng.choice(cands), c)
    return out


def _to_sympy(f, syms):
    expr = sympy.Integer(0)
    for exps, c in f.terms.items():
        num = _sympy_scalar(sympy, c, sympy.Symbol("hbar"))
        mono = sympy.Integer(1)
        for s, e in zip(syms, exps):
            mono *= s ** e
        expr += num * mono
    return sympy.expand(expr)


def test_ring_ops_match_sympy():
    q, p = sympy.symbols("q1 p1")
    for _ in range(40):
        f, g = _rand_poly(RNG), _rand_poly(RNG)
        assert _to_sympy(f * g, (q, p)) == sympy.expand(_to_sympy(f, (q, p)) * _to_sympy(g, (q, p)))
        assert _to_sympy(f + g, (q, p)) == _to_sympy(f, (q, p)) + _to_sympy(g, (q, p))
        assert _to_sympy(f - g, (q, p)) == _to_sympy(f, (q, p)) - _to_sympy(g, (q, p))


def test_partial_matches_sympy():
    q, p = sympy.symbols("q1 p1")
    for _ in range(40):
        f = _rand_poly(RNG)
        assert _to_sympy(f.partial("q1"), (q, p)) == sympy.diff(_to_sympy(f, (q, p)), q)
        assert _to_sympy(f.partial("p1"), (q, p)) == sympy.diff(_to_sympy(f, (q, p)), p)


def test_laplacian():
    q, p = sympy.symbols("q1 p1")
    for _ in range(20):
        f = _rand_poly(RNG)
        ref = sympy.diff(_to_sympy(f, (q, p)), q, 2) + sympy.diff(_to_sympy(f, (q, p)), p, 2)
        assert sympy.expand(_to_sympy(f.laplacian(), (q, p)) - ref) == 0
    # three variables, coefficients in hbar, i and the rationals
    rng, hb, xyz = random.Random(7), sympy.Symbol("hbar"), sympy.symbols("x y z")
    f = MultiPoly.zero(("x", "y", "z"))
    for e in rng.sample(monomials_upto(3, 4), 8):
        c = random_scalar(rng) + random_scalar(rng) * HBAR ** rng.randint(1, 2)
        f = f + MultiPoly.monomial(f.vars, e, c)

    def sym(f):
        return sum(_sympy_scalar(sympy, c, hb) * math.prod(v ** d for v, d in zip(xyz, e))
                   for e, c in f.terms.items())

    ref = sum(sympy.diff(sym(f), v, 2) for v in xyz)
    assert len(f.terms) == 8 and f.laplacian().terms
    assert sympy.expand(sym(f.laplacian()) - ref) == 0


def test_monomial_counts():
    # deg <= b in n vars: binomial(n + b, n)
    for nvars in (1, 2, 3):
        for bound in (0, 1, 2, 4):
            got = len(monomials_upto(nvars, bound))
            assert got == math.comb(nvars + bound, nvars)


def test_coeff_and_constant_term():
    f = MultiPoly.monomial(VARS, (2, 1), Scalar.from_int(3)) + MultiPoly.const(VARS, Scalar.from_int(7))
    assert f.terms.get((2, 1)) == Scalar.from_int(3)
    assert f.terms.get((5, 5)) is None
    assert f.terms.get((0, 0)) == Scalar.from_int(7)
    assert f.degree() == 3


def test_evalf():
    f = MultiPoly.monomial(VARS, (2, 0)) + MultiPoly.monomial(VARS, (0, 1), Scalar.from_int(-2))
    val = f.evalf({"q1": 1.5, "p1": 0.25})
    assert abs(val - (1.5 ** 2 - 2 * 0.25)) < 1e-14


def test_power_starts_from_the_base():
    f = _rand_poly(random.Random(5))
    one = MultiPoly.const(VARS, 1)
    assert f ** 0 == one
    assert f ** 1 is f
    cube = f * f * f
    assert list((f ** 3).terms.items()) == list(cube.terms.items())
