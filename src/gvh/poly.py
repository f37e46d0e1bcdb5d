"""Commutative multivariate polynomials over Scalar coefficients.

The storage of every classical observable (flat coordinates q^i, p_i and sphere
coordinates S1, S2, S3).  Exponent vectors are dense tuples keyed by a fixed
per-algebra variable order.
"""

from __future__ import annotations

from .scalars import S_ONE, as_scalar
from .sparse import TermMap, accumulate, monoid_product


class MultiPoly(TermMap):
    __slots__ = ("vars",)
    _context = ("vars",)

    def __init__(self, vars, terms=None):
        self.vars = tuple(vars)
        self.terms = {} if terms is None else terms

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, vars):
        return cls(vars, {})

    @classmethod
    def const(cls, vars, c):
        c = as_scalar(c)
        if c.is_zero():
            return cls(vars, {})
        return cls(vars, {(0,) * len(vars): c})

    @classmethod
    def var(cls, vars, name):
        vars = tuple(vars)
        exp = [0] * len(vars)
        exp[vars.index(name)] = 1
        return cls(vars, {tuple(exp): S_ONE})

    @classmethod
    def monomial(cls, vars, exps, c=S_ONE):
        c = as_scalar(c)
        if c.is_zero():
            return cls(vars, {})
        return cls(vars, {tuple(exps): c})

    # -- queries -----------------------------------------------------------

    def degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    # -- arithmetic ----------------------------------------------------------

    _product = monoid_product

    def __pow__(self, n):
        if n < 1:
            return self._new({(0,) * len(self.vars): S_ONE})
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    # -- calculus --------------------------------------------------------------

    def partial(self, name):
        """Formal partial derivative with respect to a named variable."""
        if name not in self.vars:
            raise ValueError("unknown variable %r (have %r)" % (name, self.vars))
        idx = self.vars.index(name)
        out = {}
        for e, c in self.terms.items():
            k = e[idx]
            if k == 0:
                continue
            e2 = list(e)
            e2[idx] = k - 1
            out[tuple(e2)] = c * k
        return self._new(out)

    def laplacian(self):
        """Term by term, with u_i the i-th unit exponent:
        Delta x^e = sum_i e_i (e_i - 1) x^(e - 2 u_i)."""
        out = {}
        for e, c in self.terms.items():
            for i, d in enumerate(e):
                if d > 1:
                    e2 = list(e)
                    e2[i] -= 2
                    accumulate(out, tuple(e2), c * (d * (d - 1)))
        return self._new(out)

    # -- evaluation ---------------------------------------------------------------

    def evalf(self, point, params=None):
        """Numeric value; point maps variable name -> number."""
        params = params or {}
        total = 0j
        for e, c in self.terms.items():
            v = c.evalf(params)
            for k, d in enumerate(e):
                if d:
                    v *= point[self.vars[k]] ** d
            total += v
        return total

    # -- printing --------------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t), reverse=True):
            c = self.terms[e]
            mono = "*".join(
                self.vars[k] if d == 1 else "%s^%d" % (self.vars[k], d)
                for k, d in enumerate(e) if d > 0
            )
            cs = str(c)
            if not mono:
                parts.append(cs if not _needs_parens(cs) else "(%s)" % cs)
            elif cs == "1":
                parts.append(mono)
            elif cs == "-1":
                parts.append("-" + mono)
            else:
                if _needs_parens(cs):
                    cs = "(%s)" % cs
                parts.append("%s*%s" % (cs, mono))
        out = parts[0]
        for p in parts[1:]:
            out += ("-" + p[1:]) if p.startswith("-") else ("+" + p)
        return out


def _needs_parens(cs):
    return any(ch in cs[1:] for ch in "+-") or "/" in cs


def monomials_upto(nvars, bound):
    """All exponent tuples with total degree <= bound, deterministic order."""
    out = []

    def rec(prefix, remaining, budget):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for d in range(budget + 1):
            rec(prefix + [d], remaining - 1, budget - d)

    rec([], nvars, bound)
    out.sort(key=lambda e: (sum(e), e))
    return out
