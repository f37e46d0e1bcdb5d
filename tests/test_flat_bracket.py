import math
import random

import sympy

from algebra_props import (_sympy_scalar, check_poisson_identities, random_flat,
                           random_scalar)
from gvh.flat import FlatElement, bracket_flat, flat_vars
from gvh.poly import monomials_upto
from gvh.scalars import HBAR, S_ONE, Scalar

RNG = random.Random(3)


def _mono(n, qe, pe, c=1):
    return FlatElement.monomial(n, qe, pe, Scalar.from_int(c))


def test_canonical_pairs():
    # sign convention: {p, q} = +1
    q = FlatElement.coordinate(1, "q1")
    p = FlatElement.coordinate(1, "p1")
    assert bracket_flat(p, q) == FlatElement.const(1, S_ONE)
    assert bracket_flat(q, p) == FlatElement.const(1, Scalar.from_int(-1))
    assert bracket_flat(q, q).is_zero()
    assert bracket_flat(q, FlatElement.const(1, Scalar.from_int(5))).is_zero()


def test_two_degrees_of_freedom():
    q1 = FlatElement.coordinate(2, "q1")
    p2 = FlatElement.coordinate(2, "p2")
    assert bracket_flat(q1, p2).is_zero()
    q2 = FlatElement.coordinate(2, "q2")
    assert bracket_flat(p2, q2) == FlatElement.const(2, S_ONE)


def test_quadratic_action():
    # {qp, q^a p^b} = (a - b) q^a p^b with {p,q} = +1
    qp = _mono(1, (1,), (1,))
    for a in range(4):
        for b in range(4):
            f = _mono(1, (a,), (b,))
            assert bracket_flat(qp, f) == f.scale(Scalar.from_int(a - b))


def test_cubic_pair_value():
    # {q^3, p^3} = -9 q^2 p^2  (with {q, p} = -1)
    got = bracket_flat(_mono(1, (3,), (0,)), _mono(1, (0,), (3,)))
    assert got == _mono(1, (2,), (2,), -9)


def test_momentum_degree():
    f = _mono(1, (2,), (1,)) + _mono(1, (0,), (3,))
    assert f.momentum_degree() == 3
    assert f.degree() == 3
    assert FlatElement.coordinate(1, "q1").momentum_degree() == 0


def test_variable_order():
    assert flat_vars(2) == ("q1", "q2", "p1", "p2")


def test_poisson_identities_n1():
    n = check_poisson_identities(RNG, 100, lambda r: random_flat(r, n=1), bracket_flat)
    assert n == 100


def test_poisson_identities_n2():
    n = check_poisson_identities(RNG, 100, lambda r: random_flat(r, n=2, deg=2), bracket_flat)
    assert n == 100


def test_bilinearity():
    for _ in range(50):
        f, g, h = (random_flat(RNG) for _ in range(3))
        c = Scalar.from_int(RNG.randint(-3, 3))
        assert bracket_flat(f + g.scale(c), h) == bracket_flat(f, h) + bracket_flat(g, h).scale(c)


def test_bracket_matches_sympy_derivatives():
    """Independent oracle: sum_k (df/dp_k dg/dq_k - df/dq_k dg/dp_k) by
    sympy's diff at n = 2, coefficients in hbar, i and the rationals."""
    hb, xs = sympy.Symbol("hbar"), sympy.symbols("q1 q2 p1 p2")

    def rand():
        out = FlatElement(2, {})
        for e in RNG.sample(monomials_upto(4, 3), 4):
            c = random_scalar(RNG) + random_scalar(RNG) * HBAR ** RNG.randint(1, 2)
            out = out + FlatElement.monomial(2, e[:2], e[2:], c)
        return out

    def sym(f):
        return sum(_sympy_scalar(sympy, c, hb) * math.prod(v ** d for v, d in zip(xs, e))
                   for e, c in f.terms.items())

    nonzero = 0
    for _ in range(20):
        f, g = rand(), rand()
        fs, gs = sym(f), sym(g)
        ref = sum(sympy.diff(fs, xs[2 + k]) * sympy.diff(gs, xs[k])
                  - sympy.diff(fs, xs[k]) * sympy.diff(gs, xs[2 + k]) for k in range(2))
        got = bracket_flat(f, g)
        nonzero += not got.is_zero()
        assert sympy.expand(sym(got) - ref) == 0
    assert nonzero >= 15


def test_cost_follows_the_variables_present_not_n(monkeypatch):
    # at n = 1000 only q3, p7 and q7 occur; bracket_flat weighs the degrees
    # of freedom 3 and 7 alone, with no derivative, and vanhove_map
    # differentiates in those alone
    import gvh.flat
    from gvh.poly import MultiPoly
    from gvh.qmaps import vanhove_map
    from gvh.weyl import WeylElement

    calls, dofs = [], []
    partial, active = MultiPoly.partial, gvh.flat.active_dofs

    def counting(self, name):
        calls.append(name)
        return partial(self, name)

    def recording(*elems):
        dofs.append(active(*elems))
        return dofs[-1]

    monkeypatch.setattr(MultiPoly, "partial", counting)
    monkeypatch.setattr(gvh.flat, "active_dofs", recording)
    n = 1000
    f = FlatElement.coordinate(n, "q3") * FlatElement.coordinate(n, "p7")
    g = FlatElement.monomial(n, [2 if k == 7 else 0 for k in range(1, n + 1)],
                             [0] * n)
    want = FlatElement.coordinate(n, "q3") * FlatElement.coordinate(n, "q7")
    assert bracket_flat(f, g) == want.scale(Scalar.from_int(2))
    assert calls == []
    assert dofs == [[2, 6]]

    del calls[:]

    def word(ones):
        return tuple(int(k in ones) for k in range(4 * n))

    # Q(q3·p7) = X3·P7 − X_{n+7}·P_{n+3}
    assert vanhove_map(f) == WeylElement(2 * n, {word({2, 2 * n + 6}): S_ONE,
                                                 word({n + 6, 3 * n + 2}): -S_ONE})
    assert sorted(calls) == ["p3", "p7", "q3", "q7"]
