"""Trigonometric polynomials on the torus T^2.

Elements are finite Fourier series sum c_(m,n) e^(2 pi i (m x + n y)) with
exact Scalar coefficients; pi stays a formal symbol so brackets remain exact.
The symplectic form is B dx^dy, giving {f, g} = (1/B)(f_x g_y - f_y g_x).

An element prints itself: str() is the sin/cos text of the `parse` grammar,
which `parse.print_expression`, the reports' entry point, returns.
"""

from __future__ import annotations

import cmath

from .poly import _coeff_str
from .scalars import S_ONE, S_I, S_ZERO, HBAR, TWO_PI, as_scalar
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
        """Grammar-conformant text in sin and cos: the constant, then each
        key (m, n) with m > 0, or m = 0 and n > 0, together with its mirror
        (-m, -n), as a cos(2 pi (m x + n y)) + b sin(2 pi (m x + n y)), the
        mixed harmonics expanded by the angle-sum formulas.  Parsing the text
        gives back the element, except that a mirror key whose partner is
        absent is not printed (ROADMAP item 7)."""
        parts = []
        const = self.terms.get((0, 0))
        if const is not None:
            parts.append(_coeff_str(const) or "1")
        for m, n in sorted(self.terms):
            if m < 0 or (m == 0 and n <= 0):
                continue
            cplus = self.terms[(m, n)]
            cminus = self.terms.get((-m, -n), S_ZERO)
            if m and n:
                base_cos = ("(cos(2*pi*%d*x)*cos(2*pi*%d*y) - "
                            "sin(2*pi*%d*x)*sin(2*pi*%d*y))" % (m, n, m, n))
                base_sin = ("(sin(2*pi*%d*x)*cos(2*pi*%d*y) + "
                            "cos(2*pi*%d*x)*sin(2*pi*%d*y))" % (m, n, m, n))
            else:
                arg = "2*pi*%d*x" % m if m else "2*pi*%d*y" % n
                base_cos, base_sin = "cos(%s)" % arg, "sin(%s)" % arg
            for coeff, base in ((cplus + cminus, base_cos),
                                (S_I * (cplus - cminus), base_sin)):
                if not coeff.is_zero():
                    cs = _coeff_str(coeff)
                    parts.append("%s*%s" % (cs, base) if cs else base)
        return " + ".join(parts) if parts else "0"


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
