"""Torus algebra of trigonometric polynomials and its magnetic bracket."""

import cmath
import math
import random

from algebra_props import check_poisson_identities, random_torus, random_torus_real
from gvh.scalars import S_I, S_ONE, Scalar
from gvh.torus import TorusElement, basic_set, bracket_torus

RNG = random.Random(5)
PI = math.pi
PARAMS = {"pi": PI, "hbar": 0.1}


def _val(f, x, y):
    return f.evalf(x, y, PARAMS)


def test_harmonic_basics():
    f = TorusElement.cos(1, 0)
    g = TorusElement.sin(0, 2)
    x, y = 0.31, -0.77
    assert abs(_val(f, x, y) - math.cos(2 * PI * x)) < 1e-14
    assert abs(_val(g, x, y) - math.sin(4 * PI * y)) < 1e-14
    e = TorusElement({(2, -1): S_ONE})
    assert abs(_val(e, x, y) - cmath.exp(2j * PI * (2 * x - y))) < 1e-14


def test_bracket_formula_on_harmonics():
    # {e_a, e_b} = -(4 pi^2 / B) (a x b) e_{a+b} with a x b = m1 n2 - n1 m2,
    # at a formal B: the parameter a, which no torus coefficient holds
    B = Scalar.param("a")
    for m1, n1, m2, n2 in [(1, 0, 0, 1), (2, -1, 1, 1), (0, 3, -2, 0)]:
        f = TorusElement({(m1, n1): S_ONE}, B)
        g = TorusElement({(m2, n2): S_ONE}, B)
        got = bracket_torus(f, g)
        cross = m1 * n2 - n1 * m2
        pi2 = Scalar.param("pi") ** 2
        want_c = Scalar.from_int(-4 * cross) * pi2 / B
        want = TorusElement({(m1 + m2, n1 + n2): want_c}, B)
        assert got == want


def test_default_magnetic_scale_is_hbar():
    f = TorusElement({(1, 0): S_ONE})
    g = TorusElement({(0, 1): S_ONE})
    from gvh.scalars import HBAR
    pi2 = Scalar.param("pi") ** 2
    assert bracket_torus(f, g) == TorusElement({(1, 1): Scalar.from_int(-4) * pi2 / HBAR})


def test_bracket_matches_finite_formula_numerically():
    """Oracle: {f,g} = (f_x g_y - f_y g_x)/B on a point grid (default B = hbar)."""
    pts = [(0.13, 0.42), (0.71, 0.05), (0.33, 0.9)]
    for _ in range(25):
        f = random_torus_real(RNG)
        g = random_torus_real(RNG)
        h = bracket_torus(f, g)
        for x, y in pts:
            ref = (_val(f.partial_x(), x, y) * _val(g.partial_y(), x, y)
                   - _val(f.partial_y(), x, y) * _val(g.partial_x(), x, y)) / PARAMS["hbar"]
            assert abs(_val(h, x, y) - ref) < 1e-9


def test_constants_are_central():
    c = TorusElement.const(Scalar.from_int(3))
    for _ in range(10):
        f = random_torus(RNG)
        assert bracket_torus(c, f).is_zero()


def test_real_elements():
    f = TorusElement.cos(2, 1) + TorusElement.sin(1, -1)
    # real: c_(-m,-n) is the conjugate of c_(m,n)
    assert all(f.terms[(-m, -n)] == c.conj() for (m, n), c in f.terms.items())
    assert abs(_val(f, 0.31, -0.77).imag) < 1e-14
    g = TorusElement({(1, 0): S_I})
    assert abs(_val(g, 0.31, -0.77).imag) > 0.1


def test_basic_set():
    elems = basic_set(2, None)
    assert len(elems) == 5
    names = [str(e) for e in elems]
    assert str(TorusElement.const(S_ONE)) in names
    assert str(TorusElement.sin(2, 0)) in names
    assert str(TorusElement.cos(0, 2)) in names
    # every pairwise bracket stays a trig polynomial (closure sanity)
    for a in elems:
        for b in elems:
            bracket_torus(a, b)


def test_freq_bound():
    f = TorusElement({(3, -2): S_ONE, (-1, 1): S_ONE})
    assert f.freq_bound() == 3


def test_poisson_identities():
    n = check_poisson_identities(RNG, 100, lambda r: random_torus(r), bracket_torus)
    assert n == 100


def test_identities_with_magnetic_parameter():
    # the bracket scales by 1/B; Jacobi and Leibniz must hold with formal B too
    B = Scalar.param("a")
    n = check_poisson_identities(RNG, 25, lambda r: random_torus(r, B=B), bracket_torus)
    assert n == 25
