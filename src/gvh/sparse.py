"""Sparse term maps {key: coefficient}, the storage of every finite sum.

Polynomials (the parameter polynomials inside every Scalar, and flat and
canonical sphere observables), Weyl elements, Fourier series, matrices, and
the torus coefficients and shift-differential operators built on them are
each a `TermMap`: one dict `terms` plus the context slots that say where the
sum lives (its variables, degrees of freedom, dimension or symplectic
scale).  The base class holds their vector-space structure, the scalar
action, equality, hashing, the commutator and its (i/ħ) multiple, and the
dispatch of `*` between the scalar action and the class's own product
`_product`.  A subclass adds its constructors, that product, calculus and
printing; `monoid_product` is the product of every map whose keys multiply
by adding componentwise (monomials and Fourier modes).  The rows of
`linalg` use the same helpers on bare dicts.

A map never holds a zero coefficient, so two maps are equal exactly when the
sums they stand for are equal.  Coefficients are exact (they answer
``is_zero()``) or plain Python numbers.
"""

from __future__ import annotations

from operator import add, attrgetter


def is_zero(c):
    """Zero test for an exact coefficient, or for a plain number (an int, a
    Fraction or a float), which has no is_zero()."""
    try:
        return c.is_zero()
    except AttributeError:
        return c == 0


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


def monoid_product(a, b):
    """a·b for maps whose keys multiply by adding componentwise: the terms of
    a outer, of b inner, so the product's terms come in one fixed order.
    The coefficients must be exact; `accumulate` is inlined, as this is the
    product inside every Scalar."""
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(map(add, e1, e2))
            c = c1 * c2
            v = out.get(e)
            if v is not None:
                c = v + c
            if c.is_zero():
                out.pop(e, None)
            else:
                out[e] = c
    return a._new(out)


class TermMap:
    """A finite sum {key: coefficient} with no zero coefficient.

    `_context` names the slots that fix where the sum lives; two maps are
    added, multiplied or compared only when their contexts agree.  `_new`
    builds a sibling in the same context without the constructor's zero
    filter, so it takes only maps that are zero-free by construction.
    `a * b` is `a._product(b)` when b is a map and `a.scale(b)` otherwise.
    """

    __slots__ = ("terms",)
    _context = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls._context
        cls._context_of = attrgetter(*names) if names else staticmethod(lambda m: ())
        # _new names each context slot in its source, as dataclasses write
        # __init__, so the interpreter specialises the slot accesses.  A
        # getattr/setattr loop over `names` made the explore workload 2%
        # slower: _new is the commonest constructor of the engine.
        src = ("def _new(self, terms):\n    out = _alloc(self.__class__)\n"
               + "".join("    out.%s = self.%s\n" % (n, n) for n in names)
               + "    out.terms = terms\n    return out\n")
        scope = {"_alloc": object.__new__}
        exec(src, scope)
        cls._new = scope["_new"]

    def _check(self, other):
        a, b = self._context_of(self), self._context_of(other)
        if a != b:
            raise ValueError("%s contexts differ: %r vs %r"
                             % (self.__class__.__name__, a, b))

    def is_zero(self):
        return not self.terms

    # the sums and products skip _check when there is no context: ParamPoly,
    # the polynomial inside every Scalar, has none
    def __add__(self, other):
        if self._context:
            self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            accumulate(out, k, c)
        return self._new(out)

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        """Every coefficient times c.  Exact coefficients have no zero
        divisors, so the product of nonzero terms is zero-free."""
        if is_zero(c):
            return self._new({})
        return self._new({k: v * c for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, TermMap):
            if self._context:
                self._check(other)
            return self._product(other)
        return self.scale(other)

    def __rmul__(self, c):
        return self.scale(c)

    def commutator(self, other):
        return self * other - other * self

    def ih_commutator(self, other):
        """(i/ħ)[self, other], the operator side of the rule (Q1)."""
        from .scalars import I_OVER_HBAR
        return self.commutator(other).scale(I_OVER_HBAR)

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms \
            and (not self._context or self._context_of(self) == self._context_of(other))

    def __hash__(self):
        return hash((self._context_of(self), frozenset(self.terms.items())))

    def __repr__(self):
        return self.__str__()
