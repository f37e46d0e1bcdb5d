"""Sparse term maps {key: coefficient}, the storage of every finite sum.

Polynomials (flat and canonical sphere observables among them), Weyl
elements, Fourier series, matrices, and the torus coefficients and
shift-differential operators built on them are each a `TermMap`: one dict
`terms` plus the context slots that say where the sum lives (its variables,
degrees of freedom, dimension or symplectic scale).  The base class holds
their vector-space structure, equality, hashing and the commutator; a
subclass adds its constructors, product, calculus and printing.  The rows of
`linalg` use the same helpers on bare dicts.

A map never holds a zero coefficient, so two maps are equal exactly when the
sums they stand for are equal.  Coefficients are exact (they answer
``is_zero()``) or plain Python numbers.
"""

from __future__ import annotations

from operator import attrgetter

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


class TermMap:
    """A finite sum {key: coefficient} with no zero coefficient.

    `_context` names the slots that fix where the sum lives; two maps are
    added or compared only when their contexts agree.  `_new` builds a
    sibling in the same context without the constructor's zero filter, so
    it takes only maps that are zero-free by construction.
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

    def __add__(self, other):
        self._check(other)
        return self._new(add_terms(self.terms, other.terms))

    def __neg__(self):
        return self._new(neg_terms(self.terms))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        """Every coefficient times c.  Exact coefficients have no zero
        divisors, so the product of nonzero terms is zero-free."""
        return self._new(scale_terms(self.terms, c))

    def commutator(self, other):
        return self * other - other * self

    def __eq__(self, other):
        return other.__class__ is self.__class__ \
            and self._context_of(self) == self._context_of(other) \
            and self.terms == other.terms

    def __hash__(self):
        return hash((self._context_of(self), frozenset(self.terms.items())))

    def __repr__(self):
        return self.__str__()
