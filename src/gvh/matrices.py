"""Exact square matrices over Scalar, plus the exact spin representations
Q(S_i) of dimension 2j+1.

A matrix keeps its nonzero entries in one sparse map {(row, column): Scalar},
so two matrices are equal exactly when their maps are.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import HBAR, S_I, S_ONE, S_ZERO, Scalar
from .sparse import TermMap, accumulate, nonzero_terms


class ExactMatrix(TermMap):
    __slots__ = ("dim",)
    _context = ("dim",)

    def __init__(self, dim, terms=None):
        self.dim = dim
        self.terms = nonzero_terms(terms or {})

    @classmethod
    def identity(cls, dim):
        return cls(dim, {(i, i): S_ONE for i in range(dim)})

    def entry(self, i, j):
        return self.terms.get((i, j), S_ZERO)

    # kept in the class dict: perfbench/tracer.py wraps it from there
    __mul__ = TermMap.__mul__

    def _product(self, other):
        rows = {}
        for (k, j), b in other.terms.items():
            rows.setdefault(k, []).append((j, b))
        out = {}
        for (i, k), a in self.terms.items():
            for j, b in rows.get(k, ()):
                accumulate(out, (i, j), a * b)
        return self._new(out)

    def adjoint(self):
        return ExactMatrix(self.dim, {(j, i): c.conj()
                                      for (i, j), c in self.terms.items()})

    def trace(self):
        t = S_ZERO
        for i in range(self.dim):
            t = t + self.entry(i, i)
        return t

    def __str__(self):
        n = self.dim
        return "[" + "; ".join(", ".join(str(self.entry(i, j)) for j in range(n))
                               for i in range(n)) + "]"


def _half_integer(j):
    """Return 2j as an int, or raise for invalid spin labels."""
    if isinstance(j, Fraction):
        twoj = 2 * j
        if twoj.denominator != 1:
            raise ValueError("spin label must be a half-integer, got %s" % j)
        twoj = twoj.numerator
    elif isinstance(j, int):
        twoj = 2 * j
    elif isinstance(j, float):
        twoj = round(2 * j)
        if abs(2 * j - twoj) > 1e-12:
            raise ValueError("spin label must be a half-integer, got %r" % j)
    else:
        raise TypeError("spin label must be numeric, got %r" % (j,))
    if twoj < 0:
        raise ValueError("spin label must be nonnegative, got %s" % j)
    return twoj


def spin_matrices(j):
    """(Q(S₁), Q(S₂), Q(S₃)) in dimension 2j+1, entries in Q(i)[ħ].

    Basis is ordered by descending magnetic label m = j, j−1, …, −j.  The
    triple is D·Qᵢ·D⁻¹, with Qᵢ the standard Hermitian triple and
    D = diag(w_r^(−1/2)), where w₀ = 1 and w_r = w_{r−1}·r(2j−r+1).  The
    ladder entries become J₊[r−1][r] = ħ·r(2j−r+1) and J₋[r][r−1] = ħ, and
    J₃ = Q(S₃) is the diagonal ħm, so every entry is rational.

    The triple is self-adjoint for the weight W = diag(w_r), every w_r > 0:
    W·Q(S_i) = Q(S_i)†·W.  So each Q(S_i) is Hermitian for the inner product
    ⟨u, v⟩ = u†Wv, which is the exact unitarizability the no-go needs.
    Conjugation keeps products, commutators and the identity, so
    [Q(S_a), Q(S_b)] = iħ ε_abc Q(S_c) and Σ Q(S_i)² = ħ²j(j+1)·I hold
    exactly.
    """
    twoj = _half_integer(j)
    dim = twoj + 1
    jplus, jminus, j3 = {}, {}, {}
    for r in range(dim):
        # m = j − r, stored exactly as the Scalar (twoj − 2r)/2
        j3[(r, r)] = HBAR * Scalar.from_rational(twoj - 2 * r, 2)
        if r >= 1:
            jplus[(r - 1, r)] = HBAR * Scalar.from_int(r * (twoj - r + 1))
            jminus[(r, r - 1)] = HBAR
    jplus, jminus = ExactMatrix(dim, jplus), ExactMatrix(dim, jminus)
    q1 = (jplus + jminus).scale(Scalar.from_rational(1, 2))
    q2 = (jplus - jminus).scale(Scalar.from_rational(-1, 2) * S_I)
    return q1, q2, ExactMatrix(dim, j3)
