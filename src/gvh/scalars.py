"""Exact scalar arithmetic: Gaussian rationals and rational functions in the
formal parameters (hbar, s, a, c, b, pi).

Every coefficient in the engine is a Scalar: a gcd-reduced ratio of
polynomials in the six formal parameters over Q(i).  Each polynomial is a
ParamPoly, a `sparse.TermMap` with no context, so its sums, equality and
hashing are the base class's.  Arithmetic is exact; a numeric evaluation
hook (`Scalar.evalf`) exists for the torus numerics.

Four shortcuts keep the common cases cheap:

* a GaussRational is (a + b*i)/d over Python ints in lowest terms, so each
  product or sum is int arithmetic and one gcd, and none for two Gaussian
  integers (d = 1);
* a product by a ratio of two monomials c*x^e/x^f (a constant, a one-term
  polynomial, i/hbar) needs no polynomial gcd: the gcd can only be a
  monomial x^g, divided out by shifting exponents.  A factor 1 returns the
  other operand, a constant scales the other numerator, a one-term
  polynomial shifts and scales another polynomial, and a quotient by such a
  ratio is the product by its inverse.  `verify` on all three targets
  reduces by no gcd at all;
* when either polynomial in a gcd has one term, the monic gcd is the monomial
  with the componentwise minimum exponents of all terms of both (constants
  give 1), and exact division by one term c*x^e shifts exponents by -e and
  scales by 1/c; the primitive PRS remains for two multi-term polynomials;
* a unit denominator is always the `PP_ONE` object, so sums and products of
  two Scalars that both have it (most of them: polynomial coefficients) add
  or multiply the numerators and skip the reduction, and a product by an int
  only scales the numerator.

Every shortcut returns the general formula's canonical form with its term
order: `ParamPoly.evalf` sums in that order, so the torus floats depend on it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, sub

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
            if d1 == 1:
                # a sum of Gaussian integers is canonical as it stands
                return _gr_new(self.a + other.a, self.b + other.b, 1)
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
        d = self.d * other.d
        if d == 1:
            return _gr_new(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, 1)
        return _gr(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d)

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
        # a one-term factor only shifts and scales; the other side keeps its
        # term order, which evalf's float sums depend on
        if len(other.terms) == 1:
            (e, c), = other.terms.items()
            return _times_term(self, e, c)
        if len(self.terms) == 1:
            (e, c), = self.terms.items()
            return _times_term(other, e, c)
        return monoid_product(self, other)

    def scale(self, g):
        if g.is_zero():
            return ParamPoly({})
        if g == GR_ONE:
            return self
        return ParamPoly({e: c * g for e, c in self.terms.items()})

    def conj(self):
        return ParamPoly({e: c.conj() for e, c in self.terms.items()})

    # -- evaluation ----------------------------------------------------

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


def _times_term(p, e, c):
    """p·c·x^e in p's term order: each exponent shifted by e (which may be
    negative where p's exponents allow it), each coefficient times c."""
    terms = p.terms
    if len(terms) == 1:
        (k, v), = terms.items()
        return ParamPoly({k if e == _ZEXP else tuple(map(add, k, e)): v * c})
    if e == _ZEXP:
        return p.scale(c)
    return ParamPoly({tuple(map(add, k, e)): v * c for k, v in terms.items()})


def _min_exponent(m, exps):
    """Componentwise minimum of the exponent m and every exponent in exps."""
    for e in exps:
        if m == _ZEXP:
            break
        m = tuple(map(min, m, e))
    return m


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


def poly_divexact(f, d):
    """Exact division f / d; returns None when d does not divide f."""
    if d.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if f.is_zero():
        return PP_ZERO
    if len(d.terms) == 1:
        # one-term divisor c*x^e: shift every exponent by -e, scale by 1/c
        (de, dc), = d.terms.items()
        q = _times_term(f, tuple(-x for x in de), dc.inverse())
        return None if any(min(e) < 0 for e in q.terms) else q
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
        shift = tuple(dr - dg if k == idx else 0 for k in range(NPARAMS))
        r = (r * lc) - _times_term(ru[dr], shift, GR_ONE) * g
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
    m = _min_exponent(m, g.terms)
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
    coefficient, zero stored as 0/1, a unit den the `PP_ONE` object.
    Equality and hashing use the canonical representation directly.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = PP_ONE
        if den.is_zero():
            raise ZeroDivisionError("Scalar with zero denominator")
        self.num, self.den = _reduce(num, den)

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_int(cls, n):
        return _scalar(ParamPoly.from_int(n), PP_ONE)

    @classmethod
    def from_fraction(cls, fr):
        fr = Fraction(fr)
        return _scalar(ParamPoly.const(GaussRational(fr)), PP_ONE)

    @classmethod
    def from_rational(cls, num, den=1):
        return cls.from_fraction(Fraction(num, den))

    @classmethod
    def from_gauss(cls, g):
        return _scalar(ParamPoly.const(g), PP_ONE)

    @classmethod
    def param(cls, name):
        return _scalar(ParamPoly.var(name), PP_ONE)

    # -- queries ----------------------------------------------------------

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num == PP_ONE and self.den == PP_ONE

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        try:
            return as_scalar(other)
        except TypeError:
            return NotImplemented

    def __add__(self, other):
        if other.__class__ is not Scalar:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if self.den is PP_ONE and other.den is PP_ONE:
            num = self.num + other.num
            return _scalar(num, PP_ONE) if num.terms else S_ZERO
        return Scalar(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return _scalar(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if other.__class__ is not Scalar:
            if isinstance(other, int):
                # a nonzero constant keeps gcd(num, den) = 1 and den monic
                if other == 0:
                    return S_ZERO
                if other == 1:
                    return self
                return _scalar(self.num.scale(GaussRational(other)), self.den)
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if len(other.num.terms) == 1 and len(other.den.terms) == 1:
            z, m = self, other
        elif len(self.num.terms) == 1 and len(self.den.terms) == 1:
            z, m = other, self
        elif not (self.num.terms and other.num.terms):
            return S_ZERO
        elif self.den is PP_ONE and other.den is PP_ONE:
            # a product of nonzero polynomials is nonzero
            return _scalar(monoid_product(self.num, other.num), PP_ONE)
        else:
            return Scalar(self.num * other.num, self.den * other.den)
        # z times m = c·x^e/x^f, a ratio of two monomials (a constant, a
        # one-term polynomial, i/ħ).  With z = num/den reduced, the gcd of
        # c·x^e·num and x^f·den is the monomial x^g, g = min(e, den) +
        # min(f, num) componentwise, so the product shifts num by e − g and
        # den by f − g, each in its own term order.
        num, den = z.num, z.den
        (e, c), = m.num.terms.items()
        if m.den is PP_ONE:
            if e == _ZEXP and c == GR_ONE:
                return z
            if den is PP_ONE:
                return _scalar(_times_term(num, e, c), PP_ONE)
            f = _ZEXP
        else:
            (f,) = m.den.terms
        if not num.terms:
            return S_ZERO
        g = tuple(map(add, _min_exponent(e, den.terms), _min_exponent(f, num.terms)))
        den = _times_term(den, tuple(map(sub, f, g)), GR_ONE)
        return _scalar(_times_term(num, tuple(map(sub, e, g)), c),
                       PP_ONE if den.is_const() else den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("Scalar division by zero")
        if len(other.num.terms) == 1 and len(other.den.terms) == 1:
            # the inverse of c·x^e/x^f is (1/c)·x^f/x^e
            (e, c), = other.num.terms.items()
            (f,) = other.den.terms
            return self * _scalar(ParamPoly({f: c.inverse()}),
                                  PP_ONE if e == _ZEXP else ParamPoly({e: GR_ONE}))
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
        if n == 0:
            return Scalar.from_int(1)
        base = self if n > 0 else self.inverse()
        out = base
        for _ in range(abs(n) - 1):
            out = out * base
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- evaluation ------------------------------------------------------

    def evalf(self, values):
        """Numeric value with parameters substituted from `values`."""
        d = self.den.evalf(values)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at substitution")
        return self.num.evalf(values) / d

    def __str__(self):
        if self.den == PP_ONE:
            return str(self.num)
        return "(%s)/(%s)" % (self.num, self.den)

    __repr__ = __str__


def _scalar(num, den):
    """Scalar from a pair already in canonical form."""
    z = object.__new__(Scalar)
    z.num = num
    z.den = den
    return z


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
    # a monic constant is 1, and the unit denominator is always PP_ONE
    return num, (PP_ONE if den.is_const() else den)


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
I_OVER_HBAR = S_I / HBAR

