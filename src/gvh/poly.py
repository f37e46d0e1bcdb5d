"""Commutative multivariate polynomials over Scalar coefficients.

The storage of every classical observable (flat coordinates q^i, p_i and sphere
coordinates S1, S2, S3).  Exponent vectors are dense tuples keyed by a fixed
per-algebra variable order.
"""

from __future__ import annotations

from .scalars import S_ZERO, S_ONE, as_scalar
from .sparse import TermMap, monoid_product


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

    def coeff(self, exps):
        return self.terms.get(tuple(exps), S_ZERO)

    def constant_term(self):
        return self.terms.get((0,) * len(self.vars), S_ZERO)

    def homogeneous_part(self, d):
        return self._new({e: c for e, c in self.terms.items() if sum(e) == d})

    # -- arithmetic ----------------------------------------------------------

    _product = monoid_product

    def __pow__(self, n):
        out = self._new({(0,) * len(self.vars): S_ONE})
        for _ in range(n):
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
        out = self._new({})
        for v in self.vars:
            out = out + self.partial(v).partial(v)
        return out

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

    def substitute_scalar(self, name, value):
        """Substitute a Scalar for an entire variable (degree-preserving uses only)."""
        idx = self.vars.index(name)
        out = MultiPoly(self.vars, {})
        for e, c in self.terms.items():
            e2 = list(e)
            k = e2[idx]
            e2[idx] = 0
            out = out + MultiPoly(self.vars, {tuple(e2): c * value ** k})
        return out

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


def monomials_of_degree(nvars, d):
    return [e for e in monomials_upto(nvars, d) if sum(e) == d]
