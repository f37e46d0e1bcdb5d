"""Polynomial observables on R^2n with the canonical bracket.

Sign convention: {p, q} = +1, so that the bracket->commutator rule (Q1)
together with [Q(p), Q(q)] = -i*hbar is consistent.
"""

from __future__ import annotations

import functools

from .poly import MultiPoly
from .scalars import S_ONE
from .sparse import TermMap, nonzero_terms


@functools.lru_cache(maxsize=None)
def flat_vars(n):
    return tuple("q%d" % k for k in range(1, n + 1)) + tuple("p%d" % k for k in range(1, n + 1))


class FlatElement(TermMap):
    """A polynomial in q1..qn, p1..pn, keyed by exponent tuples (q first)."""

    __slots__ = ("n",)
    _context = ("n",)

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = nonzero_terms(terms or {})

    @classmethod
    def zero(cls, n):
        return cls(n, {})

    @classmethod
    def const(cls, n, c):
        return cls(n, MultiPoly.const(flat_vars(n), c).terms)

    @classmethod
    def coordinate(cls, n, name):
        return cls(n, MultiPoly.var(flat_vars(n), name).terms)

    @classmethod
    def monomial(cls, n, qexps, pexps, c=S_ONE):
        return cls(n, MultiPoly.monomial(flat_vars(n), tuple(qexps) + tuple(pexps), c).terms)

    @property
    def poly(self):
        """The same sum as a MultiPoly in flat_vars(n), sharing its terms."""
        return MultiPoly(flat_vars(self.n), self.terms)

    def __mul__(self, other):
        self._check(other)
        return self._new((self.poly * other.poly).terms)

    def degree(self):
        return self.poly.degree()

    def momentum_degree(self):
        """Highest total power of the p variables."""
        if not self.terms:
            return -1
        return max(sum(e[self.n:]) for e in self.terms)

    def __str__(self):
        return str(self.poly)


def bracket_flat(f, g):
    """{f, g} = sum_k (df/dp_k dg/dq_k - df/dq_k dg/dp_k); gives {p,q} = 1."""
    f._check(g)
    fp, gp = f.poly, g.poly
    out = MultiPoly.zero(fp.vars)
    for k in range(1, f.n + 1):
        qk, pk = "q%d" % k, "p%d" % k
        out = out + fp.partial(pk) * gp.partial(qk) - fp.partial(qk) * gp.partial(pk)
    return f._new(out.terms)
