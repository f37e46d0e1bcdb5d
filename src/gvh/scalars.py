"""Exact scalar arithmetic: Gaussian rationals and rational functions in the
formal parameters (hbar, s, a, c, b, pi).

Every coefficient in the engine is a Scalar: a gcd-reduced ratio of
polynomials in the six formal parameters over Q(i).  Each polynomial is a
ParamPoly, a `sparse.TermMap` with no context, so its sums, equality and
hashing are the base class's.  Arithmetic is exact; a numeric evaluation
hook (`Scalar.evalf`) exists for the torus numerics.

Two representations keep the common cases cheap:

* a GaussRational is (a + b*i)/d over Python ints in lowest terms, so each
  product or sum is int arithmetic and one gcd;
* when either polynomial in a gcd has one term, the monic gcd is the monomial
  with the componentwise minimum exponents of all terms of both (constants
  give 1), and exact division by one term c*x^e shifts exponents by -e and
  scales by 1/c.  `verify` on all three targets reduces only by such gcds;
  the primitive PRS remains for two multi-term polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import sub

from .sparse import TermMap, monoid_product

PARAMS = ("hbar", "s", "a", "c", "b", "pi")
NPARAMS = len(PARAMS)
_PINDEX = {name: k for k, name in enumerate(PARAMS)}
_ZEXP = (0,) * NPARAMS


class GaussRational:
    """Element of Q(i), stored as (a + b*i)/d over Python ints.

    The form is canonical: d > 0 and gcd(a, b, d) = 1, so zero is 0/1 and
    equality compares the three ints.  Each operation works on ints and
    reduces once; `.re` and `.im` give the parts as Fractions.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
            return
        re = Fraction(re)
        im = Fraction(im)
        # with re and im in lowest terms, no prime divides d, a and b at once
        d = lcm(re.denominator, im.denominator)
        self.a = re.numerator * (d // re.denominator)
        self.b = im.numerator * (d // im.denominator)
        self.d = d

    @property
    def re(self):
        return Fraction(self.a, self.d)

    @property
    def im(self):
        return Fraction(self.b, self.d)

    def __add__(self, other):
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _gr(self.a + other.a, self.b + other.b, d1)
        return _gr(self.a * d2 + other.a * d1, self.b * d2 + other.b * d1, d1 * d2)

    def __sub__(self, other):
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _gr(self.a - other.a, self.b - other.b, d1)
        return _gr(self.a * d2 - other.a * d1, self.b * d2 - other.b * d1, d1 * d2)

    def __neg__(self):
        return _gr_new(-self.a, -self.b, self.d)

    def __mul__(self, other):
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return _gr(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self.d * other.d)

    def inverse(self):
        a, b = self.a, self.b
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return _gr(self.d * a, -self.d * b, n)

    def __truediv__(self, other):
        return self * other.inverse()

    def conj(self):
        return _gr_new(self.a, -self.b, self.d)

    def is_zero(self):
        return self.a == 0 and self.b == 0

    def __eq__(self, other):
        return (isinstance(other, GaussRational) and self.a == other.a
                and self.b == other.b and self.d == other.d)

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return "GaussRational(%r, %r)" % (self.re, self.im)

    def __str__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            if im == 1:
                return "i"
            if im == -1:
                return "-i"
            return "%s*i" % im
        sign = "+" if im > 0 else "-"
        mag = abs(im)
        istr = "i" if mag == 1 else "%s*i" % mag
        return "%s%s%s" % (re, sign, istr)


def _gr_new(a, b, d):
    """GaussRational from a triple already in canonical form."""
    z = object.__new__(GaussRational)
    z.a = a
    z.b = b
    z.d = d
    return z


def _gr(a, b, d):
    """GaussRational (a + b*i)/d for d > 0, reduced by gcd(a, b, d)."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    return _gr_new(a, b, d)


GR_ZERO = GaussRational(0)
GR_ONE = GaussRational(1)
GR_I = GaussRational(0, 1)


def _grevkey(exp):
    # graded-lexicographic sort key (total degree first, then exponents)
    return (sum(exp), exp)


class ParamPoly(TermMap):
    """Polynomial in the six formal parameters over GaussRational.

    terms maps dense exponent tuples (length NPARAMS) to nonzero coefficients.
    It has no context: every ParamPoly lives in one ring.
    """

    __slots__ = ()

    def __init__(self, terms=None):
        self.terms = {} if terms is None else terms

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, g):
        if g.is_zero():
            return cls({})
        return cls({_ZEXP: g})

    @classmethod
    def from_int(cls, n):
        return cls.const(GaussRational(n))

    @classmethod
    def var(cls, name):
        exp = [0] * NPARAMS
        exp[_PINDEX[name]] = 1
        return cls({tuple(exp): GR_ONE})

    # -- basic queries -------------------------------------------------

    def is_const(self):
        return not self.terms or (len(self.terms) == 1 and _ZEXP in self.terms)

    def const_value(self):
        return self.terms.get(_ZEXP, GR_ZERO)

    def degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, idx):
        if not self.terms:
            return -1
        return max(e[idx] for e in self.terms)

    def leading(self):
        """(exponent, coefficient) of the graded-lex leading term."""
        exp = max(self.terms, key=_grevkey)
        return exp, self.terms[exp]

    # -- arithmetic ----------------------------------------------------

    def __mul__(self, other):
        # a constant factor only scales; the other side keeps its term order,
        # which evalf's float sums depend on
        if len(other.terms) == 1 and _ZEXP in other.terms:
            return self.scale(other.terms[_ZEXP])
        if len(self.terms) == 1 and _ZEXP in self.terms:
            return other.scale(self.terms[_ZEXP])
        return monoid_product(self, other)

    def scale(self, g):
        if g.is_zero():
            return ParamPoly({})
        if g == GR_ONE:
            return self
        return ParamPoly({e: c * g for e, c in self.terms.items()})

    def conj(self):
        return ParamPoly({e: c.conj() for e, c in self.terms.items()})

    # -- evaluation / substitution --------------------------------------

    def evalf(self, values):
        """Evaluate numerically; `values` maps parameter name -> number."""
        total = 0j
        for e, c in self.terms.items():
            v = complex(c.a / c.d, c.b / c.d)
            for k, p in enumerate(e):
                if p:
                    if PARAMS[k] not in values:
                        raise KeyError("no numeric value for parameter %r" % PARAMS[k])
                    v *= values[PARAMS[k]] ** p
            total += v
        return total

    def used_params(self):
        used = set()
        for e in self.terms:
            for k, p in enumerate(e):
                if p:
                    used.add(PARAMS[k])
        return used

    # -- printing --------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=_grevkey, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                PARAMS[k] if p == 1 else "%s^%d" % (PARAMS[k], p)
                for k, p in enumerate(e) if p > 0
            )
            if not mono:
                parts.append(str(c))
            elif c == GR_ONE:
                parts.append(mono)
            elif c == -GR_ONE:
                parts.append("-" + mono)
            else:
                cs = str(c)
                if "+" in cs[1:] or "-" in cs[1:]:
                    cs = "(%s)" % cs
                parts.append("%s*%s" % (cs, mono))
        out = parts[0]
        for p in parts[1:]:
            out += ("-" + p[1:]) if p.startswith("-") else ("+" + p)
        return out


PP_ZERO = ParamPoly({})
PP_ONE = ParamPoly.const(GR_ONE)


# ---------------------------------------------------------------------------
# multivariate gcd (primitive PRS over Q(i))
# ---------------------------------------------------------------------------

def _as_univariate(f, idx):
    """Split f into {power of param idx: ParamPoly without that param}."""
    out = {}
    for e, c in f.terms.items():
        k = e[idx]
        rest = list(e)
        rest[idx] = 0
        rest = tuple(rest)
        coef = out.setdefault(k, {})
        coef[rest] = coef.get(rest, GR_ZERO) + c
    return {k: ParamPoly({e: c for e, c in d.items() if not c.is_zero()})
            for k, d in out.items() if any(not c.is_zero() for c in d.values())}


def _shift_pow(poly, idx, k):
    out = {}
    for e, c in poly.terms.items():
        e2 = list(e)
        e2[idx] += k
        out[tuple(e2)] = c
    return ParamPoly(out)


def poly_divexact(f, d):
    """Exact division f / d; returns None when d does not divide f."""
    if d.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if f.is_zero():
        return PP_ZERO
    if len(d.terms) == 1:
        # one-term divisor c*x^e: shift every exponent by -e, scale by 1/c
        (de, dc), = d.terms.items()
        inv = None if dc == GR_ONE else dc.inverse()
        q = {}
        for e, c in f.terms.items():
            qe = tuple(map(sub, e, de))
            if min(qe) < 0:
                return None
            q[qe] = c if inv is None else c * inv
        return ParamPoly(q)
    q = {}
    r = f
    de, dc = d.leading()
    while not r.is_zero():
        re, rc = r.leading()
        qe = tuple(a - b for a, b in zip(re, de))
        if any(x < 0 for x in qe):
            return None
        qc = rc / dc
        q[qe] = qc
        r = r - ParamPoly({qe: qc}) * d
    return ParamPoly(q)


def _pseudo_rem(f, g, idx):
    """Pseudo-remainder of f by g treated as univariates in param idx."""
    gu = _as_univariate(g, idx)
    dg = max(gu)
    lc = gu[dg]
    r = f
    while not r.is_zero():
        ru = _as_univariate(r, idx)
        dr = max(ru)
        if dr < dg:
            break
        # r <- lc*r - lead(r)*x^(dr-dg)*g
        r = (r * lc) - _shift_pow(ru[dr], idx, dr - dg) * g
    return r


def _content(f, idx):
    """gcd of the univariate-in-idx coefficients of f."""
    fu = _as_univariate(f, idx)
    c = PP_ZERO
    for coef in fu.values():
        c = poly_gcd(c, coef)
        if c.is_const() and not c.is_zero():
            break
    return c


def _monic(f):
    if f.is_zero():
        return f
    _, lc = f.leading()
    if lc == GR_ONE:
        return f
    return f.scale(lc.inverse())


def _monomial_gcd(f, g):
    """gcd when f has one term: x^m with m the componentwise minimum of the
    exponents of all terms of f and g."""
    (m,) = f.terms
    for e in g.terms:
        if m == _ZEXP:
            return PP_ONE
        m = tuple(map(min, m, e))
    return PP_ONE if m == _ZEXP else ParamPoly({m: GR_ONE})


def poly_gcd(f, g):
    """gcd over Q(i)[params], normalized monic in the graded-lex leading term.

    A one-term argument takes the closed form `_monomial_gcd`; two multi-term
    arguments go through the primitive PRS.
    """
    if f.is_zero():
        return _monic(g)
    if g.is_zero():
        return _monic(f)
    if len(f.terms) == 1:
        return _monomial_gcd(f, g)
    if len(g.terms) == 1:
        return _monomial_gcd(g, f)
    return _prs_gcd(f, g)


def _prs_gcd(f, g):
    """Primitive-PRS gcd of two nonzero polynomials, not both constant,
    monic like poly_gcd."""
    used = set()
    for p in (f, g):
        for e in p.terms:
            for k, d in enumerate(e):
                if d:
                    used.add(k)
    idx = max(used)
    if f.degree_in(idx) == 0 or g.degree_in(idx) == 0:
        # one argument is free of the main variable: gcd divides contents
        cf = _content(f, idx) if f.degree_in(idx) > 0 else f
        cg = _content(g, idx) if g.degree_in(idx) > 0 else g
        return poly_gcd(cf, cg) if f.degree_in(idx) > 0 or g.degree_in(idx) > 0 else _monic(f)
    cf = _content(f, idx)
    cg = _content(g, idx)
    c = poly_gcd(cf, cg)
    fp = poly_divexact(f, cf)
    gp = poly_divexact(g, cg)
    if _as_univariate(fp, idx) and _as_univariate(gp, idx):
        if max(_as_univariate(fp, idx)) < max(_as_univariate(gp, idx)):
            fp, gp = gp, fp
    while not gp.is_zero():
        r = _pseudo_rem(fp, gp, idx)
        if r.is_zero():
            fp, gp = gp, r
        else:
            rc = _content(r, idx)
            fp, gp = gp, poly_divexact(r, rc)
    return _monic(c * fp)


# ---------------------------------------------------------------------------
# Scalar: reduced rational function
# ---------------------------------------------------------------------------

class Scalar:
    """Canonical element of the rational-function field Q(i)(hbar, s, a, c, b, pi).

    Invariants: gcd(num, den) = 1, den monic in the graded-lex leading
    coefficient, zero stored as 0/1.  Equality and hashing use the canonical
    representation directly.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _reduced=False):
        if den is None:
            den = PP_ONE
        if den.is_zero():
            raise ZeroDivisionError("Scalar with zero denominator")
        if not _reduced:
            num, den = _reduce(num, den)
        self.num = num
        self.den = den

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_int(cls, n):
        return cls(ParamPoly.from_int(n), PP_ONE, _reduced=True)

    @classmethod
    def from_fraction(cls, fr):
        fr = Fraction(fr)
        return cls(ParamPoly.const(GaussRational(fr)), PP_ONE, _reduced=True)

    @classmethod
    def from_rational(cls, num, den=1):
        return cls.from_fraction(Fraction(num, den))

    @classmethod
    def from_gauss(cls, g):
        return cls(ParamPoly.const(g), PP_ONE, _reduced=True)

    @classmethod
    def param(cls, name):
        return cls(ParamPoly.var(name), PP_ONE, _reduced=True)

    # -- queries ----------------------------------------------------------

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num == PP_ONE and self.den == PP_ONE

    def is_rational(self):
        """True when the value is a plain Gaussian rational."""
        return self.num.is_const() and self.den.is_const()

    def rational_value(self):
        if not self.is_rational():
            raise ValueError("Scalar %s is not a plain rational" % self)
        return self.num.const_value() / self.den.const_value()

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Scalar):
            return other
        if isinstance(other, int):
            return Scalar.from_int(other)
        if isinstance(other, Fraction):
            return Scalar.from_fraction(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(-self.num, self.den, _reduced=True)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("Scalar division by zero")
        return Scalar(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def inverse(self):
        return Scalar.from_int(1) / self

    def conj(self):
        """Complex conjugate; all formal parameters are treated as real."""
        return Scalar(self.num.conj(), self.den.conj())

    def __pow__(self, n):
        out = Scalar.from_int(1)
        base = self if n >= 0 else self.inverse()
        for _ in range(abs(n)):
            out = out * base
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- evaluation / substitution -----------------------------------------

    def evalf(self, values):
        """Numeric value with parameters substituted from `values`."""
        d = self.den.evalf(values)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at substitution")
        return self.num.evalf(values) / d

    def substitute(self, name, value):
        """Exact substitution of a Scalar for one parameter."""
        idx = _PINDEX[name]
        return _poly_substitute(self.num, idx, value) / _poly_substitute(self.den, idx, value)

    def used_params(self):
        return self.num.used_params() | self.den.used_params()

    def __str__(self):
        if self.den == PP_ONE:
            return str(self.num)
        return "(%s)/(%s)" % (self.num, self.den)

    __repr__ = __str__


def as_scalar(c):
    """c as a Scalar: a Scalar unchanged, an int or a Fraction exactly."""
    if isinstance(c, Scalar):
        return c
    if isinstance(c, int):
        return Scalar.from_int(c)
    if isinstance(c, Fraction):
        return Scalar.from_fraction(c)
    raise TypeError("cannot use %r as an exact coefficient" % (c,))


def _reduce(num, den):
    if num.is_zero():
        return PP_ZERO, PP_ONE
    if den == PP_ONE:
        return num, PP_ONE
    g = poly_gcd(num, den)
    if not (g == PP_ONE):
        num = poly_divexact(num, g)
        den = poly_divexact(den, g)
    _, lc = den.leading()
    if lc != GR_ONE:
        inv = lc.inverse()
        num = num.scale(inv)
        den = den.scale(inv)
    return num, den


def _poly_substitute(poly, idx, value):
    """ParamPoly -> Scalar with parameter idx replaced by a Scalar value."""
    out = S_ZERO
    for e, c in poly.terms.items():
        rest = list(e)
        k = rest[idx]
        rest[idx] = 0
        term = Scalar(ParamPoly({tuple(rest): c}), PP_ONE, _reduced=True)
        out = out + term * value ** k
    return out


S_ZERO = Scalar.from_int(0)
S_ONE = Scalar.from_int(1)
S_I = Scalar.from_gauss(GR_I)
HBAR = Scalar.param("hbar")
S_SPIN = Scalar.param("s")
A_SYM = Scalar.param("a")
C_SYM = Scalar.param("c")
B_SYM = Scalar.param("b")
PI = Scalar.param("pi")
TWO_PI = Scalar.from_int(2) * PI

