"""Trigonometric polynomials on the torus T^2.

Elements are finite Fourier series sum c_(m,n) e^(2 pi i (m x + n y)) with
exact Scalar coefficients; pi stays a formal symbol so brackets remain exact.
The symplectic form is B dx^dy, giving {f, g} = (1/B)(f_x g_y - f_y g_x).
"""

from __future__ import annotations

import cmath

from .scalars import S_ONE, S_I, HBAR, TWO_PI, as_scalar
from .sparse import TermMap, accumulate, monoid_product, nonzero_terms


class TorusElement(TermMap):
    __slots__ = ("B",)
    _context = ("B",)

    def __init__(self, terms=None, B=None):
        self.terms = {} if terms is None else nonzero_terms(terms)
        self.B = HBAR if B is None else B

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, c, B=None):
        return cls({(0, 0): as_scalar(c)}, B)

    @classmethod
    def sin(cls, m, n, B=None):
        """sin(2 pi (m x + n y)) = (e_+ - e_-)/(2i)."""
        half_i = S_I / 2
        return cls({(m, n): -half_i, (-m, -n): half_i}, B)

    @classmethod
    def cos(cls, m, n, B=None):
        half = S_ONE / 2
        return cls({(m, n): half, (-m, -n): half}, B)

    # -- queries ---------------------------------------------------------------

    def freq_bound(self):
        if not self.terms:
            return 0
        return max(max(abs(m), abs(n)) for m, n in self.terms)

    # -- arithmetic ----------------------------------------------------------------

    _product = monoid_product

    # -- calculus --------------------------------------------------------------------

    def partial_x(self):
        return TorusElement(
            {f: c * TWO_PI * S_I * f[0] for f, c in self.terms.items() if f[0]}, self.B)

    def partial_y(self):
        return TorusElement(
            {f: c * TWO_PI * S_I * f[1] for f, c in self.terms.items() if f[1]}, self.B)

    # -- evaluation --------------------------------------------------------------------

    def evalf(self, x, y, params):
        total = 0j
        for (m, n), c in self.terms.items():
            total += c.evalf(params) * cmath.exp(2j * cmath.pi * (m * x + n * y))
        return total

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (m, n) in sorted(self.terms):
            parts.append("(%s)*e(%d,%d)" % (self.terms[(m, n)], m, n))
        return " + ".join(parts)


def bracket_torus(f, g):
    """{f, g} = (1/B)(f_x g_y - f_y g_x) on finite Fourier series.

    Term by term, with e_(m,n) = e^(2 pi i (m x + n y)):
    {e_(m1,n1), e_(m2,n2)} = (4 pi^2/B)(n1 m2 - m1 n2) e_(m1+m2,n1+n2),
    so the integer weights are summed first and 4 pi^2/B multiplies each
    coefficient of the sum once.
    """
    f._check(g)
    out = {}
    for (m1, n1), c1 in f.terms.items():
        for (m2, n2), c2 in g.terms.items():
            w = n1 * m2 - m1 * n2
            if w:
                accumulate(out, (m1 + m2, n1 + n2), c1 * c2 * w)
    return f._new(out).scale(TWO_PI * TWO_PI / f.B) if out else f._new(out)


def basic_set(k, B=None):
    """span{1, sin 2 pi k x, cos 2 pi k x, sin 2 pi k y, cos 2 pi k y}."""
    return [
        TorusElement.const(S_ONE, B),
        TorusElement.sin(k, 0, B),
        TorusElement.cos(k, 0, B),
        TorusElement.sin(0, k, B),
        TorusElement.cos(0, k, B),
    ]
