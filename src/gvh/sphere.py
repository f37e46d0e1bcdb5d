"""Polynomial observables on the sphere S^2 modulo the Casimir relation.

An element is keyed by the monomials of its normal form modulo S.S - s^2:
every S3^2 rewritten as s^2 - S1^2 - S2^2, so that each key S1^a S2^b S3^e
has e <= 1.  This is the normal form for one quadric under a degree order in
which S3^2 leads (Cox, Little and O'Shea, *Ideals, Varieties, and
Algorithms*, ch. 2): two representatives that agree modulo (S.S - s^2)
reduce to the same keys, and the rewrite never raises the degree, so the
normal form has the least degree of its class.  Brackets, products, parsing
and every span work in it.

The harmonic representative (every occurrence of S1^2+S2^2+S3^2 replaced by
s^2, so that the part of each degree l is annihilated by the formal
Laplacian) is made only where it means something: the printer shows it, and
the spin map quantizes it monomial by monomial, as Q(S3^2) differs from
Q(s^2 - S1^2 - S2^2).  `SphereElement.representative` sums it from a
per-process cache of the harmonic form of each normal-form monomial, which
`harmonic_decompose` fills; `harmonic_echelon` gives a span's printed basis.

Bracket: {f, g} = -sum eps_ijk S_i df/dS_j dg/dS_k, so {S1, S2} = -S3.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .linalg import Echelon
from .poly import MultiPoly
from .scalars import Scalar, S_ONE, S_SPIN
from .sparse import TermMap, accumulate, nonzero_terms

SVARS = ("S1", "S2", "S3")


def svar(name):
    return MultiPoly.var(SVARS, name)


def s_const(c):
    return MultiPoly.const(SVARS, c)


def _r2():
    out = MultiPoly.zero(SVARS)
    for v in SVARS:
        out = out + svar(v) * svar(v)
    return out


R2 = _r2()


def bracket_raw(f, g):
    """Sphere bracket on plain polynomial representatives (no reduction).

    Term by term, with u_i the i-th unit exponent:
    {S^a, S^b} = sum over the cyclic (i, j, k) of
    (a_k b_j - a_j b_k) S^(a+b+u_i-u_j-u_k).
    """
    out = {}
    for (a1, a2, a3), c1 in f.terms.items():
        for (b1, b2, b3), c2 in g.terms.items():
            w = (a3 * b2 - a2 * b3, a1 * b3 - a3 * b1, a2 * b1 - a1 * b2)
            if w == (0, 0, 0):
                continue
            c = c1 * c2
            e1, e2, e3 = a1 + b1 - 1, a2 + b2 - 1, a3 + b3 - 1
            for e, wi in zip(((e1 + 2, e2, e3), (e1, e2 + 2, e3), (e1, e2, e3 + 2)), w):
                if wi:
                    accumulate(out, e, c * wi)
    return f._new(out)


def harmonic_decompose(f):
    """Split homogeneous f of degree d as {l: h_l} with f = sum r^((d-l)) h_l.

    Powers of r^2 are implicit: bucket l receives the harmonic factor of the
    r^(2j) h_(d-2j) term with l = d-2j.  Uses Delta(r^(2j) h_m) =
    2j(2j + 2m + 1) r^(2j-2) h_m in three variables.
    """
    if f.is_zero():
        return {}
    d = f.degree()
    if d <= 1:
        return {d: f}
    lap = f.laplacian()
    inner = harmonic_decompose(lap)
    out = {}
    acc = MultiPoly.zero(SVARS)
    for j in range(1, d // 2 + 1):
        l = d - 2 * j
        k = inner.get(l)
        if k is None or k.is_zero():
            continue
        h = k.scale(Scalar.from_fraction(Fraction(1, 2 * j * (2 * d - 2 * j + 1))))
        out[l] = h
        acc = acc + (R2 ** j) * h
    top = f - acc
    if not top.is_zero():
        out[d] = top
    return out


@functools.cache
def _s3_square_power(m):
    """S3^(2m) reduced: (s^2 - S1^2 - S2^2)^m as ((S1 shift, S2 shift),
    coefficient) pairs, by the multinomial theorem."""
    return tuple(((2 * j, 2 * l), S_SPIN ** (2 * (m - j - l))
                  * ((-1) ** (j + l) * math.comb(m, j) * math.comb(m - j, l)))
                 for j in range(m + 1) for l in range(m - j + 1))


@functools.cache
def _harmonic(e):
    """The harmonic form of the monomial S^e as (key, coefficient) pairs:
    each piece r^(d-l)·h_l of its decomposition, with r^2 read as s^2."""
    terms = {}
    d = sum(e)
    for l, h in harmonic_decompose(MultiPoly(SVARS, {e: S_ONE})).items():
        for k, c in h.terms.items():
            accumulate(terms, k, c * S_SPIN ** (d - l))
    return tuple(terms.items())


class SphereElement(TermMap):
    """Class of a sphere polynomial, keyed by the monomials of its normal
    form (S3-degree <= 1)."""

    __slots__ = ()

    def __init__(self, terms):
        self.terms = nonzero_terms(terms)

    @classmethod
    def const(cls, c):
        return cls(s_const(c).terms)

    @classmethod
    def coordinate(cls, name):
        return cls(svar(name).terms)

    @classmethod
    def canonicalize(cls, raw):
        """The normal form of a polynomial in S1, S2, S3 (a MultiPoly, or a
        SphereElement, which is its own): each S3^(2m+r) with r <= 1 becomes
        S3^r (s^2 - S1^2 - S2^2)^m."""
        terms = {}
        for (a, b, e), c in raw.terms.items():
            if e < 2:
                accumulate(terms, (a, b, e), c)
                continue
            for (da, db), w in _s3_square_power(e // 2):
                accumulate(terms, (a + da, b + db, e % 2), c * w)
        return cls(terms)

    def poly(self):
        """The normal form as a MultiPoly sharing the terms."""
        return MultiPoly(SVARS, self.terms)

    def representative(self):
        """The harmonic representative, a new MultiPoly."""
        terms = {}
        for e, c in self.terms.items():
            for k, w in _harmonic(e):
                accumulate(terms, k, c * w)
        return MultiPoly(SVARS, terms)

    def degree(self):
        return max(map(sum, self.terms), default=-1)

    def _product(self, other):
        return SphereElement.canonicalize(self.poly() * other.poly())

    def __str__(self):
        return str(self.representative())


def bracket_sphere(f, g):
    """{f, g} in normal form: the bracket of the normal-form polynomials,
    whose terms reach S3-degree 3 at most, reduced."""
    return SphereElement.canonicalize(bracket_raw(f.poly(), g.poly()))


def harmonic_echelon(elems):
    """The harmonic representatives of span(elems) in reduced echelon form,
    pivots ordered by degree, then exponents (`poly.monomials_upto`): the
    basis a report prints.  The reduced form is unique for that order, so
    it does not depend on the elements that span."""
    ech = Echelon(lambda e: (sum(e), e))
    for elem in elems:
        ech.add(elem.representative().terms)
    return [MultiPoly(SVARS, row) for _, row in ech.rows]
