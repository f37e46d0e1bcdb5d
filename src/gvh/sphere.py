"""Polynomial observables on the sphere S^2 modulo the Casimir relation.

An element is stored as the terms of its canonical representative: every
occurrence of S1^2+S2^2+S3^2 replaced by the formal radius-squared s^2, so
that the part of each degree l is harmonic (annihilated by the formal
Laplacian).  The decomposition f = sum_j r^(2j) h_(d-2j) of a homogeneous
polynomial is unique, so two representatives that agree modulo (S.S - s^2)
canonicalize identically.

Bracket: {f, g} = -sum eps_ijk S_i df/dS_j dg/dS_k, so {S1, S2} = -S3.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import MultiPoly
from .scalars import Scalar, S_SPIN
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
    """Sphere bracket on plain polynomial representatives (no canonicalization).

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


class SphereElement(TermMap):
    """Canonical class of a sphere polynomial, keyed by the monomials of its
    harmonic representative."""

    __slots__ = ()

    def __init__(self, terms):
        self.terms = nonzero_terms(terms)

    @classmethod
    def const(cls, c):
        return cls.canonicalize(s_const(c))

    @classmethod
    def coordinate(cls, name):
        return cls.canonicalize(svar(name))

    @classmethod
    def canonicalize(cls, raw):
        """Harmonic canonical form of a plain polynomial in S1, S2, S3; each
        degree d adds s^(d-l)·h_l into the monomials of degree l."""
        terms = {}
        for d in range(raw.degree() + 1):
            part = raw.homogeneous_part(d)
            if part.is_zero():
                continue
            for l, h in harmonic_decompose(part).items():
                for e, c in h.scale(S_SPIN ** (d - l)).terms.items():
                    accumulate(terms, e, c)
        return cls(terms)

    def representative(self):
        """The canonical representative as a MultiPoly sharing the terms."""
        return MultiPoly(SVARS, self.terms)

    def degree(self):
        return self.representative().degree()

    def _product(self, other):
        return SphereElement.canonicalize(self.representative() * other.representative())

    def __str__(self):
        return str(self.representative())


def bracket_sphere(f, g):
    return SphereElement.canonicalize(bracket_raw(f.representative(), g.representative()))
