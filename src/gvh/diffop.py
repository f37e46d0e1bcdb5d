"""Differential and shift operators on the torus line bundle and the line.

A DiffOp is a finite sum Σ c_{a,α} S_a ∂_x^{α₁} ∂_y^{α₂} whose coefficients
are TorusXCoef (trigonometric polynomials times powers of x) and where S_a
shifts x by an integer a, (S_a u)(x, y) = u(x + a, y).  Composition uses the
generalized Leibniz rule ∂^α(b·u) = Σ_{γ≤α} C(α,γ) (∂^γ b)(∂^{α−γ}u) and
moves a shift right past a coefficient as S_a b = b(x + a) S_a; the phase
e^{2πima} of e(m, n) is 1 for an integer a, so the algebra is closed over
the exact Scalar.  The line-bundle operators have a = 0; the transformed
torus operators A±, B± (qmaps.transformed_harmonic_op) are DiffOps in x
alone, evaluated on the Hermite basis by hermite.hermite_matrix.
Flat-space operators are Weyl elements instead (weyl.py): X ↦ q and
P ↦ −iħ∂ carry the Weyl algebra onto the polynomial-coefficient operators.
"""

from __future__ import annotations

import cmath
import itertools
import math

from .scalars import S_I, S_ONE, Scalar, TWO_PI, as_scalar
from .sparse import TermMap, accumulate, monoid_product, nonzero_terms


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

    _product = monoid_product

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

    def shift(self, a):
        """The coefficient at x + a: x^j·e(m, n) ↦ (x + a)^j·e(m, n).

        The phase e^{2πima} that the shift leaves out is 1 only for an
        integer a, so any other shift is refused."""
        if not isinstance(a, int):
            raise ValueError("shift by %r: only an integer shift leaves "
                             "e^(2 pi i m x) unchanged" % (a,))
        if not a:
            return self
        terms = {}
        for (m, n, j), c in self.terms.items():
            for i in range(j + 1):
                accumulate(terms, (m, n, i), c * (math.comb(j, i) * a ** (j - i)))
        return TorusXCoef(terms)

    def evalf(self, x, y=0.0, params=None, exp=cmath.exp):
        """Numeric value at (x, y), with the parameters taken from `params`.

        With exp=numpy.exp, x and y may be arrays.  Terms are summed in key
        order and each phase is exp(i·(2πm)·x + i·(2πn)·y), so the float
        bits of a sum do not depend on how the map was built."""
        total = 0j
        for (m, n, j), c in sorted(self.terms.items()):
            v = complex(c.evalf(params or {}))
            if j:
                v = v * x ** j
            if m or n:
                v = v * exp(1j * (2.0 * math.pi * m) * x
                            + 1j * (2.0 * math.pi * n) * y)
            total = total + v
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
    """Σ c_{a,α} S_a ∂^α keyed (a, α_x, α_y): c a TorusXCoef, S_a the shift
    x ↦ x + a by an integer a, α the orders in x and in y."""

    __slots__ = ()
    VARS = TorusXCoef.VARS

    def __init__(self, terms=None):
        self.terms = nonzero_terms(terms or {})

    def order(self):
        return max((dx + dy for _, dx, dy in self.terms), default=-1)

    def coeff(self, key):
        return self.terms.get(tuple(key), TorusXCoef.zero())

    def _product(self, other):
        return diffop_compose(self, other)

    def apply_to_coef(self, f):
        """Apply the operator to a coefficient f."""
        out = TorusXCoef.zero()
        for (a, *alpha), c in self.terms.items():
            g = f
            for name, k in zip(self.VARS, alpha):
                for _ in range(k):
                    g = g.partial(name)
            out = out + c * g.shift(a)
        return out

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms, key=lambda t: (t[1] + t[2], t)):
            c = self.terms[key]
            ds = ["S[%d]" % key[0]] if key[0] else []
            for name, k in zip(self.VARS, key[1:]):
                if k:
                    ds.append("d/d%s" % name if k == 1 else "d^%d/d%s^%d" % (k, name, k))
            body = " ".join(ds) if ds else "1"
            bits.append("[%s] %s" % (c, body))
        return " + ".join(bits)


def diffop_compose(A, B):
    """Operator composition A∘B.  A term a·S_s ∂^α meets b·S_t ∂^β as

        Σ_{γ≤α} C(α,γ) a·(∂^γ b)(x + s) S_{s+t} ∂^{α−γ+β}

    by the generalized Leibniz rule and one move of the shift."""
    out = {}
    for (s, *alpha), a in A.terms.items():
        for gamma in itertools.product(*(range(k + 1) for k in alpha)):
            binom = math.prod(math.comb(k, g) for k, g in zip(alpha, gamma))
            rest = tuple(k - g for k, g in zip(alpha, gamma))
            for (t, *beta), b in B.terms.items():
                db = b
                for name, k in zip(DiffOp.VARS, gamma):
                    for _ in range(k):
                        db = db.partial(name)
                if db.is_zero():
                    continue
                c = a * db.shift(s)
                if binom != 1:
                    c = c.scale(Scalar.from_rational(binom))
                accumulate(out, (s + t,) + tuple(r + k for r, k in zip(rest, beta)), c)
    return DiffOp(out)


def diffop_commutator(A, B):
    return diffop_compose(A, B) - diffop_compose(B, A)
