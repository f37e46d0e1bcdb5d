"""Work counts of the three classical brackets: each works one pair of
terms at a time, with integer weights, so it takes no partial derivative,
no product of polynomials and (on the torus) one division by B at most."""

import random

from algebra_props import random_flat, random_sphere_raw, random_torus
from gvh.flat import bracket_flat
from gvh.poly import MultiPoly
from gvh.scalars import Scalar
from gvh.sphere import bracket_raw
from gvh.torus import basic_set, bracket_torus

RNG = random.Random(11)


def _counter(monkeypatch, owner, name):
    calls = []
    fn = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_sphere_and_flat_brackets_take_no_derivative_and_no_product(monkeypatch):
    pairs = [(random_sphere_raw(RNG, deg=3, terms=4), random_sphere_raw(RNG, deg=3, terms=4))
             for _ in range(10)]
    pairs += [(random_flat(RNG, n=2, deg=3, terms=4), random_flat(RNG, n=2, deg=3, terms=4))
              for _ in range(10)]
    partials = _counter(monkeypatch, MultiPoly, "partial")
    # MultiPoly (and FlatElement) multiply through sparse.monoid_product
    products = _counter(monkeypatch, MultiPoly, "_product")
    for f, g in pairs[:10]:
        bracket_raw(f, g)
    for f, g in pairs[10:]:
        bracket_flat(f, g)
    assert partials == []
    assert products == []


def test_torus_bracket_divides_by_b_once(monkeypatch):
    elems = basic_set(1) + basic_set(2) + [random_torus(RNG, terms=4) for _ in range(5)]
    divisions = _counter(monkeypatch, Scalar, "__truediv__")
    for f in elems:
        for g in elems:
            del divisions[:]
            bracket_torus(f, g)
            assert len(divisions) <= 1
