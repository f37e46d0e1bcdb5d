"""Polynomial observables on R^2n with the canonical bracket: a flat
observable is a `MultiPoly` in q1..qn, p1..pn and nothing more.

Sign convention: {p, q} = +1, so that the bracket->commutator rule (Q1)
together with [Q(p), Q(q)] = -i*hbar is consistent.
"""

from __future__ import annotations

import functools
from operator import add

from .poly import MultiPoly
from .scalars import S_ONE
from .sparse import accumulate, nonzero_terms


# Most degrees of freedom a flat phase space takes: every flat element, and
# every key of its ambient, carries an exponent tuple of 2n slots.
MAX_FLAT_N = 10_000


@functools.lru_cache(maxsize=None)
def flat_vars(n):
    if n > MAX_FLAT_N:
        raise ValueError("%d degrees of freedom exceed the flat bound %d"
                         % (n, MAX_FLAT_N))
    return tuple("q%d" % k for k in range(1, n + 1)) + tuple("p%d" % k for k in range(1, n + 1))


class FlatElement(MultiPoly):
    """A polynomial in flat_vars(n), keyed by exponent tuples (q first)."""

    __slots__ = ()

    def __init__(self, n, terms=None):
        super().__init__(flat_vars(n), nonzero_terms(terms or {}))

    @property
    def n(self):
        return len(self.vars) // 2

    @classmethod
    def const(cls, n, c):
        return cls(n, MultiPoly.const(flat_vars(n), c).terms)

    @classmethod
    def coordinate(cls, n, name):
        return cls(n, MultiPoly.var(flat_vars(n), name).terms)

    @classmethod
    def monomial(cls, n, qexps, pexps, c=S_ONE):
        return cls(n, MultiPoly.monomial(flat_vars(n), tuple(qexps) + tuple(pexps), c).terms)

    def momentum_degree(self):
        """Highest total power of the p variables."""
        if not self.terms:
            return -1
        return max(sum(e[self.n:]) for e in self.terms)


def active_dofs(*elems):
    """The k (0-based, increasing) whose q_k or p_k occurs in an element."""
    n = elems[0].n
    return sorted({i % n for f in elems for e in f.terms
                   for i, d in enumerate(e) if d})


def bracket_flat(f, g):
    """{f, g} = sum_k (df/dp_k dg/dq_k - df/dq_k dg/dp_k); gives {p,q} = 1.

    Term by term, with u_i the i-th unit exponent and k over the active
    degrees of freedom: {x^a, x^b} = sum_k
    (a_(p_k) b_(q_k) - a_(q_k) b_(p_k)) x^(a+b-u_(q_k)-u_(p_k)).
    """
    f._check(g)
    n = f.n
    dofs = [(k, n + k) for k in active_dofs(f, g)]
    out = {}
    for a, c1 in f.terms.items():
        for b, c2 in g.terms.items():
            c = None
            for q, p in dofs:
                w = a[p] * b[q] - a[q] * b[p]
                if w:
                    if c is None:
                        c, ab = c1 * c2, list(map(add, a, b))
                    e = ab.copy()
                    e[q] -= 1
                    e[p] -= 1
                    accumulate(out, tuple(e), c * w)
    return f._new(out)
