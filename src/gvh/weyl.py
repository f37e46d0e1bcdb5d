"""Normal-ordered Weyl algebra on generators X_i, P_i with [X_i, P_j] = iħδ_ij.

Words are kept with all X factors to the left of all P factors; the product
rewrites P^m X^n per index via

    P^m X^n = Σ_t C(m,t) C(n,t) t! (−iħ)^t X^{n−t} P^{m−t},

whose m = n = 1 case is PX = XP − iħ.
"""

from __future__ import annotations

import itertools
import math

from .scalars import HBAR, S_I, S_ONE, S_ZERO, Scalar, as_scalar
from .sparse import TermMap, accumulate, nonzero_terms

_MINUS_IH = -(S_I * HBAR)


class WeylElement(TermMap):
    """Finite Scalar combination of normal-ordered words X^α P^β."""

    __slots__ = ("n",)
    _context = ("n",)

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = nonzero_terms(terms or {})

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, n=1):
        return cls(n, {})

    @classmethod
    def const(cls, c, n=1):
        return cls(n, {(0,) * (2 * n): as_scalar(c)})

    @classmethod
    def identity(cls, n=1):
        return cls.const(1, n)

    @classmethod
    def x(cls, i=1, n=1):
        e = [0] * (2 * n)
        e[i - 1] = 1
        return cls(n, {tuple(e): S_ONE})

    @classmethod
    def p(cls, i=1, n=1):
        e = [0] * (2 * n)
        e[n + i - 1] = 1
        return cls(n, {tuple(e): S_ONE})

    @classmethod
    def word(cls, exps, coeff=1, n=None):
        exps = tuple(exps)
        if n is None:
            n = len(exps) // 2
        return cls(n, {exps: as_scalar(coeff)})

    # -- structure ---------------------------------------------------------
    def degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def coeff(self, exps):
        return self.terms.get(tuple(exps), S_ZERO)

    def scalar_part(self):
        """Coefficient of the identity word."""
        return self.terms.get((0,) * (2 * self.n), S_ZERO)

    def is_scalar(self):
        return all(sum(e) == 0 for e in self.terms)

    def _product(self, other):
        return weyl_product(self, other)

    def __str__(self):
        if not self.terms:
            return "0"
        n = self.n
        bits = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t)):
            c = self.terms[e]
            factors = []
            for i in range(n):
                if e[i]:
                    name = "X" if n == 1 else "X%d" % (i + 1)
                    factors.append(name if e[i] == 1 else "%s^%d" % (name, e[i]))
            for i in range(n):
                if e[n + i]:
                    name = "P" if n == 1 else "P%d" % (i + 1)
                    factors.append(name + ("" if e[n + i] == 1 else "^%d" % e[n + i]))
            word = "*".join(factors) if factors else "1"
            bits.append("(%s)*%s" % (c, word))
        return " + ".join(bits)


def _reorder_coeff(m, g, t):
    """Coefficient of X^{g−t} P^{m−t} in P^m X^g, apart from (−iħ)^t."""
    return math.comb(m, t) * math.comb(g, t) * math.factorial(t)


def contractions(beta, gamma):
    """Pairs (t, Π_k C(β_k,t_k) C(γ_k,t_k) t_k!) for every t ≤ min(β, γ).

    These are the terms of reordering P^β X^γ, and of Weyl-ordering q^γ p^β."""
    return [(t, math.prod(map(_reorder_coeff, beta, gamma, t)))
            for t in itertools.product(*[range(min(b, g) + 1)
                                         for b, g in zip(beta, gamma)])]


def weyl_product(A, B):
    """Product in the Weyl algebra, returned in normal-ordered form."""
    A._check(B)
    n = A.n
    out = {}
    for ea, ca in A.terms.items():
        for eb, cb in B.terms.items():
            base = ca * cb
            beta = ea[n:]
            gamma = eb[:n]
            for t, num in contractions(beta, gamma):
                c = base * (_MINUS_IH ** sum(t)) * num
                exps = tuple(ea[k] + gamma[k] - t[k] for k in range(n)) + \
                    tuple(beta[k] + eb[n + k] - t[k] for k in range(n))
                accumulate(out, exps, c)
    return A._new(out)


def weyl_commutator(A, B):
    return weyl_product(A, B) - weyl_product(B, A)


def anticommutator(A, B):
    return weyl_product(A, B) + weyl_product(B, A)


def symmetrized(A, B):
    """½(AB + BA)."""
    return Scalar.from_rational(1, 2) * anticommutator(A, B)


def weyl_words_upto(n, bound):
    from .poly import monomials_upto
    return [WeylElement.word(e, 1, n) for e in monomials_upto(2 * n, bound)]


def weyl_commutant(gens, words, n=None):
    """Basis of {T ∈ span(words) : [T, g] = 0 for all g}, by exact solve;
    words are exponent tuples of normal-ordered words X^α P^β."""
    from .linalg import nullspace
    from .subspace import SubspaceBasis, WeylAmbient

    if n is None:
        n = gens[0].n if gens else 1
    rows = {}
    for gi, g in enumerate(gens):
        for col, w in enumerate(words):
            comm = weyl_commutator(WeylElement.word(w, 1, n), g)
            for e, c in comm.terms.items():
                rows.setdefault((gi, e), {})[col] = c
    vecs = nullspace(list(rows.values()), len(words))
    ambient = WeylAmbient(n, max((sum(w) for w in words), default=0))
    basis = SubspaceBasis(ambient)
    for v in vecs:
        basis.add_element(WeylElement(n, {words[col]: c for col, c in v.items()}))
    return basis
