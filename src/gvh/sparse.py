"""Sparse term maps {key: coefficient}, the storage of every finite sum.

Polynomials, Weyl elements, Fourier series, differential operators, Hermite
symbols and the rows of `linalg` each keep their terms in one dict and do
their linear algebra through these helpers.  A map never holds a zero
coefficient, so two maps are equal exactly when the sums they stand for are
equal.  Coefficients are exact (they answer ``is_zero()``) or plain Python
numbers.
"""

from __future__ import annotations

_NUMBERS = (int, float, complex)


def is_zero(c):
    """Zero test for an exact coefficient or a plain number."""
    return c == 0 if isinstance(c, _NUMBERS) else c.is_zero()


def nonzero_terms(terms):
    """Copy of a term map without its zero coefficients."""
    return {k: c for k, c in terms.items() if not is_zero(c)}


def accumulate(out, key, c):
    """out[key] += c in place; the key drops out when the sum is zero."""
    v = out.get(key)
    if v is not None:
        c = v + c
    if is_zero(c):
        out.pop(key, None)
    else:
        out[key] = c


def sub_scaled(out, c, terms):
    """out -= c·terms in place: one elimination step of sparse rows."""
    for k, v in terms.items():
        accumulate(out, k, -(c * v))


def add_terms(a, b):
    out = dict(a)
    for k, c in b.items():
        accumulate(out, k, c)
    return out


def neg_terms(a):
    return {k: -c for k, c in a.items()}


def scale_terms(a, c):
    """Every coefficient times c; empty when c is zero."""
    if is_zero(c):
        return {}
    return {k: v * c for k, v in a.items()}
