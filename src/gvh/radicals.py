"""Exact field arithmetic for Scalar combinations of square roots of
squarefree positive integers: elements Σ c_d √d with c_d Scalar.

√d·√e reduces via gcd (both radicands squarefree), and inversion works by
conjugating away one prime at a time, so the ring is an honest field.  The
radicands are real, so complex conjugation only touches the coefficients.
"""

from __future__ import annotations

import math

from .scalars import S_ONE, S_ZERO, Scalar, as_scalar


def _split_square(k):
    """k = outer² · rad with rad squarefree; k a nonnegative integer."""
    if k < 0:
        raise ValueError("negative radicand %d" % k)
    if k == 0:
        return 0, 1
    outer, rad, d = 1, 1, 2
    while d * d <= k:
        e = 0
        while k % d == 0:
            k //= d
            e += 1
        outer *= d ** (e // 2)
        if e % 2:
            rad *= d
        d += 1
    return outer, rad * k


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class Radical:
    """Σ_d c_d √d over squarefree d ≥ 1, coefficients Scalar."""

    __slots__ = ("parts",)

    def __init__(self, parts=None):
        clean = {}
        for d, c in (parts or {}).items():
            if not c.is_zero():
                clean[d] = c
        self.parts = clean

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def one(cls):
        return cls({1: S_ONE})

    @classmethod
    def from_scalar(cls, c):
        return cls({1: as_scalar(c)})

    @classmethod
    def sqrt_int(cls, k):
        """√k for a nonnegative integer k, simplified."""
        outer, rad = _split_square(k)
        if outer == 0:
            return cls.zero()
        return cls({rad: Scalar.from_rational(outer)})

    def is_zero(self):
        return not self.parts

    def is_rational_part_only(self):
        return set(self.parts) <= {1}

    def scalar_part(self):
        return self.parts.get(1, S_ZERO)

    def _binop(self, other, op):
        other = _as_radical(other)
        parts = dict(self.parts)
        for d, c in other.parts.items():
            w = op(parts.get(d, S_ZERO), c)
            if w.is_zero():
                parts.pop(d, None)
            else:
                parts[d] = w
        return Radical(parts)

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    __radd__ = __add__

    def __neg__(self):
        return Radical({d: -c for d, c in self.parts.items()})

    def __sub__(self, other):
        return self + (-_as_radical(other))

    def __rsub__(self, other):
        return _as_radical(other) - self

    def __mul__(self, other):
        other = _as_radical(other)
        parts = {}
        for d1, c1 in self.parts.items():
            for d2, c2 in other.parts.items():
                g = math.gcd(d1, d2)
                d = (d1 // g) * (d2 // g)
                c = c1 * c2 * g
                w = parts.get(d, S_ZERO) + c
                if w.is_zero():
                    parts.pop(d, None)
                else:
                    parts[d] = w
        return Radical(parts)

    __rmul__ = __mul__

    def inv(self):
        if not self.parts:
            raise ZeroDivisionError("radical inverse of zero")
        if self.is_rational_part_only():
            return Radical({1: S_ONE / self.parts[1]})
        primes = set()
        for d in self.parts:
            primes.update(_prime_factors(d))
        p = max(primes)
        beta, gamma = {}, {}
        for d, c in self.parts.items():
            if d % p == 0:
                gamma[d // p] = c
            else:
                beta[d] = c
        conj = Radical(beta) - Radical({p: S_ONE}) * Radical(gamma)
        norm = self * conj
        return conj * norm.inv()

    def __truediv__(self, other):
        return self * _as_radical(other).inv()

    def __rtruediv__(self, other):
        return _as_radical(other) * self.inv()

    def conj(self):
        return Radical({d: c.conj() for d, c in self.parts.items()})

    def __eq__(self, other):
        if isinstance(other, (int, Scalar)):
            other = _as_radical(other)
        return isinstance(other, Radical) and self.parts == other.parts

    def __hash__(self):
        return hash(frozenset((d, c) for d, c in self.parts.items()))

    def evalf(self, params=None):
        return sum(c.evalf(params) * math.sqrt(d) for d, c in self.parts.items())

    def __str__(self):
        if not self.parts:
            return "0"
        bits = []
        for d in sorted(self.parts):
            c = self.parts[d]
            bits.append("(%s)" % c if d == 1 else "(%s)*sqrt(%d)" % (c, d))
        return " + ".join(bits)

    __repr__ = __str__


def _as_radical(v):
    if isinstance(v, Radical):
        return v
    if isinstance(v, (int, Scalar)):
        return Radical.from_scalar(v)
    raise TypeError("cannot interpret %r as a radical element" % (v,))
