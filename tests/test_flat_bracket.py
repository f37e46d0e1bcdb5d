import random

from algebra_props import check_poisson_identities, random_flat
from gvh.flat import FlatElement, bracket_flat, flat_vars
from gvh.scalars import S_ONE, Scalar

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


def test_cost_follows_the_variables_present_not_n(monkeypatch):
    # at n = 1000 only q3, p7 and q7 occur; bracket_flat and vanhove_map
    # differentiate in those degrees of freedom alone
    from gvh.poly import MultiPoly
    from gvh.qmaps import vanhove_map
    from gvh.weyl import WeylElement

    calls = []
    partial = MultiPoly.partial

    def counting(self, name):
        calls.append(name)
        return partial(self, name)

    monkeypatch.setattr(MultiPoly, "partial", counting)
    n = 1000
    f = FlatElement.coordinate(n, "q3") * FlatElement.coordinate(n, "p7")
    g = FlatElement.monomial(n, [2 if k == 7 else 0 for k in range(1, n + 1)],
                             [0] * n)
    want = FlatElement.coordinate(n, "q3") * FlatElement.coordinate(n, "q7")
    assert bracket_flat(f, g) == want.scale(Scalar.from_int(2))
    assert sorted(calls) == ["p3", "p3", "p7", "p7", "q3", "q3", "q7", "q7"]

    del calls[:]

    def word(ones):
        return tuple(int(k in ones) for k in range(4 * n))

    # Q(q3·p7) = X3·P7 − X_{n+7}·P_{n+3}
    assert vanhove_map(f) == WeylElement(2 * n, {word({2, 2 * n + 6}): S_ONE,
                                                 word({n + 6, 3 * n + 2}): -S_ONE})
    assert sorted(calls) == ["p3", "p7", "q3", "q7"]
