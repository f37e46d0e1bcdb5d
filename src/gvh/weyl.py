"""Normal-ordered Weyl algebra on generators X_i, P_i with [X_i, P_j] = iħδ_ij.

Words are kept with all X factors to the left of all P factors; the product
rewrites P^m X^n per index via

    P^m X^n = Σ_t C(m,t) C(n,t) t! (−iħ)^t X^{n−t} P^{m−t},

whose m = n = 1 case is PX = XP − iħ.

The (i/ħ)-commutator of two words is a polynomial in ħ (the Moyal
bracket): the t = 0 terms of AB and BA are one word of weight 1 and cancel,
and (i/ħ)(−iħ)^|t| = (−iħ)^(|t|−1) for every other t.  `word_bracket`
caches those polynomial weights per ordered pair of words, beside
`word_product`'s cache and bounded by the same `WORD_CACHE_SIZE`, so an
(i/ħ)-bracket of polynomial coefficients never forms a ratio in ħ.
"""

from __future__ import annotations

import functools
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
    def coeff(self, exps):
        return self.terms.get(tuple(exps), S_ZERO)

    def scalar_part(self):
        """Coefficient of the identity word."""
        return self.terms.get((0,) * (2 * self.n), S_ZERO)

    def is_scalar(self):
        return all(sum(e) == 0 for e in self.terms)

    def _product(self, other):
        return weyl_product(self, other)

    def ih_commutator(self, other):
        """(i/ħ)[self, other] from the cached word brackets."""
        return _expand(self, other, word_bracket)

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
    """Pairs (t, Π_k C(β_k,t_k) C(γ_k,t_k) t_k!) for every t ≤ min(β, γ), t
    in `itertools.product` order.

    These are the terms of reordering P^β X^γ, and of Weyl-ordering q^γ p^β.
    Only the indices with min(β_k, γ_k) > 0 vary, so the work follows them
    rather than the number of generators."""
    active = [k for k, (b, g) in enumerate(zip(beta, gamma)) if b and g]
    out = []
    t = [0] * len(beta)
    for ts in itertools.product(*[range(min(beta[k], gamma[k]) + 1)
                                  for k in active]):
        num = 1
        for k, s in zip(active, ts):
            t[k] = s
            num *= _reorder_coeff(beta[k], gamma[k], s)
        out.append((tuple(t), num))
    return out


# Structure constants of the algebra, cached per ordered pair of words for the
# life of the process, products and (i/ħ)-brackets in one LRU each.  Keys and
# results hold 2n-tuples, so the bound keeps a long session at large n from
# growing without limit.
WORD_CACHE_SIZE = 512


def _reordered_words(ea, eb, n):
    """(exps, |t|, Π_k C(β_k,t_k) C(γ_k,t_k) t_k!) for the terms of
    X^α P^β · X^γ P^δ, ea = α + β and eb = γ + δ, in the order
    `contractions` lists t."""
    beta, gamma = ea[n:], eb[:n]
    for t, num in contractions(beta, gamma):
        yield (tuple(ea[k] + gamma[k] - t[k] for k in range(n))
               + tuple(beta[k] + eb[n + k] - t[k] for k in range(n)),
               sum(t), num)


@functools.lru_cache(maxsize=WORD_CACHE_SIZE)
def word_product(ea, eb, n):
    """X^α P^β · X^γ P^δ in normal order: the pairs (exps, (−iħ)^|t| times
    the integer) of `_reordered_words`."""
    return tuple((exps, (_MINUS_IH ** k) * num)
                 for exps, k, num in _reordered_words(ea, eb, n))


@functools.lru_cache(maxsize=WORD_CACHE_SIZE)
def word_bracket(ea, eb, n):
    """(i/ħ)[X^α P^β, X^γ P^δ] as pairs (exps, polynomial weight): the terms
    of both orders but t = 0, weighted (−iħ)^(|t|−1) times the difference
    of the two orders' integers; a word whose difference is 0 is left out."""
    sums = {}
    for sign, a, b in ((1, ea, eb), (-1, eb, ea)):
        for exps, k, num in _reordered_words(a, b, n):
            if k:
                w = sums.setdefault(exps, [k, 0])
                w[1] += sign * num
    return tuple((exps, (_MINUS_IH ** (k - 1)) * num)
                 for exps, (k, num) in sums.items() if num)


def _expand(A, B, table):
    """Σ ca·cb·w over the terms of A and B and the pairs (exps, w) that
    table(ea, eb, n) gives for their words."""
    A._check(B)
    n = A.n
    out = {}
    for ea, ca in A.terms.items():
        for eb, cb in B.terms.items():
            base = ca * cb
            for exps, w in table(ea, eb, n):
                accumulate(out, exps, base * w)
    return A._new(out)


def weyl_product(A, B):
    """Product in the Weyl algebra, returned in normal-ordered form."""
    return _expand(A, B, word_product)


def weyl_commutator(A, B):
    return weyl_product(A, B) - weyl_product(B, A)


def anticommutator(A, B):
    return weyl_product(A, B) + weyl_product(B, A)


def symmetrized(A, B):
    """½(AB + BA)."""
    return Scalar.from_rational(1, 2) * anticommutator(A, B)


def weyl_commutant(gens, words, n=None):
    """Basis of {T ∈ span(words) : [T, g] = 0 for all g}, by exact solve;
    words are exponent tuples of normal-ordered words X^α P^β."""
    from .subspace import WeylAmbient, kernel_span

    if n is None:
        n = gens[0].n if gens else 1
    return kernel_span(
        WeylAmbient(n, max((sum(w) for w in words), default=0)),
        [WeylElement.word(w, 1, n) for w in words],
        lambda T: {(gi, e): c for gi, g in enumerate(gens)
                   for e, c in weyl_commutator(T, g).terms.items()})
