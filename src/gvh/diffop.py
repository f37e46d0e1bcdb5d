"""Differential operators on the torus line bundle.

A DiffOp is a finite sum Σ c_α ∂_x^{α₁} ∂_y^{α₂} whose coefficients are
TorusXCoef (trigonometric polynomials times powers of x); composition uses
the generalized Leibniz rule ∂^α(b·u) = Σ_{γ≤α} C(α,γ) (∂^γ b)(∂^{α−γ}u).
Flat-space operators are Weyl elements instead (weyl.py): X ↦ q and
P ↦ −iħ∂ carry the Weyl algebra onto the polynomial-coefficient operators.
"""

from __future__ import annotations

import cmath
import itertools
import math

from .scalars import S_I, S_ONE, Scalar, TWO_PI, as_scalar
from .sparse import TermMap, accumulate, nonzero_terms


class TorusXCoef(TermMap):
    """Coefficient ring for torus-bundle operators: Σ c · x^j · e^{2πi(mx+ny)}.

    Keys are (m, n, j); closed under products and under ∂/∂x, ∂/∂y.
    """

    __slots__ = ()
    VARS = ("x", "y")

    def __init__(self, terms=None):
        self.terms = nonzero_terms(terms or {})

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def const(cls, c):
        return cls({(0, 0, 0): as_scalar(c)})

    @classmethod
    def xpow(cls, j, c=S_ONE):
        return cls({(0, 0, j): as_scalar(c)})

    @classmethod
    def harmonic(cls, m, n, c=S_ONE):
        return cls({(m, n, 0): as_scalar(c)})

    @classmethod
    def from_torus_element(cls, f):
        return cls({(m, n, 0): c for (m, n), c in f.terms.items()})

    def __mul__(self, other):
        terms = {}
        for (m1, n1, j1), c1 in self.terms.items():
            for (m2, n2, j2), c2 in other.terms.items():
                accumulate(terms, (m1 + m2, n1 + n2, j1 + j2), c1 * c2)
        return TorusXCoef(terms)

    def partial(self, name):
        terms = {}
        for (m, n, j), c in self.terms.items():
            if name == "x":
                if j > 0:
                    accumulate(terms, (m, n, j - 1), c * j)
                if m != 0:
                    accumulate(terms, (m, n, j), c * (TWO_PI * S_I * m))
            elif name == "y":
                if n != 0:
                    accumulate(terms, (m, n, j), c * (TWO_PI * S_I * n))
            else:
                raise KeyError(name)
        return TorusXCoef(terms)

    def evalf(self, x, y, params=None):
        total = 0j
        for (m, n, j), c in self.terms.items():
            total += complex(c.evalf(params)) * (x ** j) * \
                cmath.exp(2j * cmath.pi * (m * x + n * y))
        return total

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for k in sorted(self.terms):
            m, n, j = k
            c = self.terms[k]
            factors = []
            if j:
                factors.append("x" if j == 1 else "x^%d" % j)
            if (m, n) != (0, 0):
                factors.append("e(%d,%d)" % (m, n))
            body = "*".join(factors) if factors else "1"
            bits.append("(%s)*%s" % (c, body))
        return " + ".join(bits)


class DiffOp(TermMap):
    """Σ c_α ∂^α over (x, y), α = (order in x, order in y), c_α a TorusXCoef."""

    __slots__ = ()
    VARS = TorusXCoef.VARS

    def __init__(self, terms=None):
        self.terms = nonzero_terms(terms or {})

    def order(self):
        if not self.terms:
            return -1
        return max(sum(a) for a in self.terms)

    def coeff(self, alpha):
        return self.terms.get(tuple(alpha), TorusXCoef.zero())

    def scale(self, c):
        return DiffOp({a: coef.scale(c) for a, coef in self.terms.items()})

    def __rmul__(self, c):
        if isinstance(c, (int, Scalar)):
            return self.scale(c)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Scalar)):
            return self.scale(other)
        return diffop_compose(self, other)

    def apply_to_coef(self, f):
        """Apply the operator to a coefficient f."""
        out = TorusXCoef.zero()
        for alpha, c in self.terms.items():
            g = f
            for name, k in zip(self.VARS, alpha):
                for _ in range(k):
                    g = g.partial(name)
            out = out + c * g
        return out

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for a in sorted(self.terms, key=lambda t: (sum(t), t)):
            c = self.terms[a]
            ds = []
            for name, k in zip(self.VARS, a):
                if k:
                    ds.append("d/d%s" % name if k == 1 else "d^%d/d%s^%d" % (k, name, k))
            body = " ".join(ds) if ds else "1"
            bits.append("[%s] %s" % (c, body))
        return " + ".join(bits)


def diffop_compose(A, B):
    """Operator composition A∘B via the generalized Leibniz rule."""
    out = {}
    for alpha, a in A.terms.items():
        for gamma in itertools.product(*(range(k + 1) for k in alpha)):
            binom = math.prod(math.comb(k, g) for k, g in zip(alpha, gamma))
            rest = tuple(k - g for k, g in zip(alpha, gamma))
            for beta, b in B.terms.items():
                db = b
                for name, k in zip(DiffOp.VARS, gamma):
                    for _ in range(k):
                        db = db.partial(name)
                if db.is_zero():
                    continue
                c = a * db
                if binom != 1:
                    c = c.scale(Scalar.from_rational(binom))
                accumulate(out, tuple(r + k for r, k in zip(rest, beta)), c)
    return DiffOp(out)


def diffop_commutator(A, B):
    return diffop_compose(A, B) - diffop_compose(B, A)
