"""Commutative multivariate polynomials over Scalar coefficients.

The storage of every classical observable (flat coordinates q^i, p_i and sphere
coordinates S1, S2, S3).  Exponent vectors are dense tuples keyed by a fixed
per-algebra variable order.

Each algebra prints its own elements: str() of a MultiPoly is its text in
the `parse` grammar, which `parse.print_expression`, the reports' entry
point, returns.
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
        """The polynomial's text in the `parse` grammar, highest degree first."""
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=lambda e: (-sum(e), e)):
            mono = "*".join(v if d == 1 else "%s^%d" % (v, d)
                            for v, d in zip(self.vars, e) if d > 0)
            cs = _coeff_str(self.terms[e])
            if not mono:
                parts.append(cs if cs else "1")
            elif not cs:
                parts.append(mono)
            else:
                parts.append("%s*%s" % (cs, mono))
        return " + ".join(parts)


_RATIONAL_CHARS = frozenset("0123456789/")


def _is_plain(s):
    r"""Whether s is a rational times powers of names, the form
    [0-9/]+(\*[A-Za-z][A-Za-z0-9]*(\^\d+)?)* (names ASCII, exponents any
    decimal digits), which a product may follow without parentheses."""
    head, *factors = s.split("*")
    if not head or not _RATIONAL_CHARS.issuperset(head):
        return False
    for factor in factors:
        name, caret, exp = factor.partition("^")
        if not (name.isascii() and name.isalnum() and name[:1].isalpha()
                and (exp.isdecimal() or not caret)):
            return False
    return True


def _coeff_str(c):
    """Scalar coefficient as a parseable multiplier prefix, '' if 1."""
    s = str(c)
    if s == "1":
        return ""
    return s if _is_plain(s) else "(%s)" % s


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
