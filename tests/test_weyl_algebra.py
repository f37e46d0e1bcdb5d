"""Normal-ordered Weyl algebra: product, commutators, commutant computation."""

import itertools
import math
import random

import pytest

from algebra_props import check_weyl_associativity, random_weyl, weyl_action
from gvh.poly import monomials_upto
from gvh.scalars import HBAR, PP_ONE, S_I, S_ONE, Scalar
from gvh.subspace import WeylAmbient
from gvh.weyl import (WORD_CACHE_SIZE, WeylElement, anticommutator,
                      contractions, symmetrized, weyl_commutant,
                      weyl_commutator, weyl_product, word_bracket,
                      word_product)

RNG = random.Random(6)

X = WeylElement.x()
P = WeylElement.p()
IH = S_I * HBAR


def test_canonical_commutator():
    # [X, P] = i hbar
    assert weyl_commutator(X, P) == WeylElement.const(IH)
    assert weyl_commutator(P, X) == WeylElement.const(-IH)
    assert weyl_commutator(X, X).is_zero()


def test_normal_ordering():
    # PX = XP - i hbar; words store X powers before P powers
    assert P * X == WeylElement.word((1, 1)) - WeylElement.const(IH)
    assert X * P == WeylElement.word((1, 1))
    # P^2 X = X P^2 - 2 i hbar P
    assert P * P * X == WeylElement.word((1, 2)) - WeylElement.word((0, 1), IH * 2)


def test_commutator_with_powers():
    # [X^a, P] = a i hbar X^(a-1)
    for a in range(1, 5):
        xa = WeylElement.word((a, 0))
        want = WeylElement.word((a - 1, 0), IH * a)
        assert weyl_commutator(xa, P) == want


def test_two_degrees_of_freedom():
    x1 = WeylElement.x(1, n=2)
    p2 = WeylElement.p(2, n=2)
    assert weyl_commutator(x1, p2).is_zero()
    p1 = WeylElement.p(1, n=2)
    assert weyl_commutator(x1, p1) == WeylElement.const(IH, n=2)


def test_symmetrized_and_anticommutator():
    s = symmetrized(X, P)
    assert s == WeylElement.word((1, 1)) - WeylElement.const(IH * Scalar.from_rational(1, 2))
    assert anticommutator(X, P) == s.scale(Scalar.from_int(2))
    # symmetrized(X,P) is the Weyl-ordered XP, self-adjoint in spirit:
    # (XP + PX)/2 written normally
    assert s == (X * P + P * X).scale(Scalar.from_rational(1, 2))


def test_scalar_part():
    e = WeylElement.word((1, 1)) + WeylElement.const(HBAR)
    assert e.scalar_part() == HBAR
    assert not e.is_scalar()
    assert WeylElement.const(S_ONE).is_scalar()


def test_associativity():
    n = check_weyl_associativity(RNG, 100)
    assert n == 100


def test_associativity_two_dof():
    n = check_weyl_associativity(RNG, 30, n=2, deg=2)
    assert n == 30


def test_product_degree_bound():
    def degree(w):
        return max(map(sum, w.terms), default=-1)

    for _ in range(30):
        a, b = random_weyl(RNG), random_weyl(RNG)
        if a.is_zero() or b.is_zero():
            continue
        assert degree(a * b) <= degree(a) + degree(b)


def test_commutant_of_generators_is_scalar():
    # anything commuting with both X and P (degree <= 4) is a multiple of I
    basis = weyl_commutant([X, P], monomials_upto(2, 4))
    assert basis.dim() == 1
    assert basis.elements()[0].is_scalar()


def test_commutant_of_x_alone():
    # polynomials in X commute with X: dimension = 5 at degree <= 4
    basis = weyl_commutant([X], monomials_upto(2, 4))
    assert basis.dim() == 5
    for e in basis.elements():
        assert weyl_commutator(e, X).is_zero()


def test_ambient_coordinates_roundtrip():
    amb = WeylAmbient(1, 3)
    for _ in range(20):
        e = random_weyl(RNG, deg=3)
        assert amb.from_coords(e.terms) == e


def test_contractions_match_direct_enumeration():
    rng = random.Random(14)
    for _ in range(40):
        n = rng.randint(1, 4)
        beta = tuple(rng.randint(0, 3) for _ in range(n))
        gamma = tuple(rng.randint(0, 3) for _ in range(n))
        want = []
        for t in itertools.product(range(4), repeat=n):
            if all(s <= min(b, g) for s, b, g in zip(t, beta, gamma)):
                num = 1
                for s, b, g in zip(t, beta, gamma):
                    num *= math.comb(b, s) * math.comb(g, s) * math.factorial(s)
                want.append((t, num))
        assert contractions(beta, gamma) == want


def test_contractions_follow_the_active_indices():
    # n = 50 with three indices where both β and γ are nonzero, and others
    # where one of them is: the direct enumeration runs over every index
    rng = random.Random(19)
    n = 50
    for _ in range(10):
        beta, gamma = [0] * n, [0] * n
        for k in rng.sample(range(n), 9):
            beta[k] = rng.randint(1, 3)
        for k in rng.sample([k for k in range(n) if beta[k]], 3) \
                + rng.sample([k for k in range(n) if not beta[k]], 3):
            gamma[k] = rng.randint(1, 3)
        want = [(t, math.prod(math.comb(b, s) * math.comb(g, s) * math.factorial(s)
                              for s, b, g in zip(t, beta, gamma)))
                for t in itertools.product(*[range(min(b, g) + 1)
                                             for b, g in zip(beta, gamma)])]
        assert contractions(tuple(beta), tuple(gamma)) == want


def _random_hbar_weyl(rng, n, deg):
    """Multi-term element with coefficients in Q(i)[ħ]."""
    return (random_weyl(rng, n, deg, terms=3)
            + random_weyl(rng, n, deg, terms=2).scale(HBAR)
            + random_weyl(rng, n, deg, terms=1).scale(HBAR * HBAR))


def test_word_cache_is_bounded():
    assert isinstance(WORD_CACHE_SIZE, int) and WORD_CACHE_SIZE > 0
    assert word_product.cache_info().maxsize == WORD_CACHE_SIZE


@pytest.mark.parametrize("n, deg", [(1, 3), (2, 2)])
def test_cold_and_warm_products_agree_with_operator_composition(n, deg):
    # independent oracle: (AB)f = A(Bf) with X_k -> q_k *, P_k -> -i hbar d/dq_k
    sympy = pytest.importorskip("sympy")
    hb = sympy.Symbol("hbar", positive=True)
    qs = sympy.symbols("q1:%d" % (n + 1))
    # Σ_g c_g q^g over g_k <= 2·deg, with free c_g, tells apart any two
    # operators of order at most 2·deg in each P_k, as products here are
    f = sympy.Poly(sum(sympy.Symbol("c%s" % (g,))
                       * sympy.Mul(*[q ** k for q, k in zip(qs, g)])
                       for g in itertools.product(range(2 * deg + 1), repeat=n)),
                   *qs)
    # P1^deg in A and X1^deg in B reach the longest contraction, |t| = deg
    p_top = WeylElement.word((0,) * n + (deg,) + (0,) * (n - 1), HBAR, n)
    x_top = WeylElement.word((deg,) + (0,) * (2 * n - 1), S_I, n)
    rng = random.Random(15 + n)
    for _ in range(4):
        a = _random_hbar_weyl(rng, n, deg) + p_top
        b = _random_hbar_weyl(rng, n, deg) + x_top
        word_product.cache_clear()
        cold = weyl_product(a, b)
        assert word_product.cache_info().misses > 0
        hits = word_product.cache_info().hits
        warm = weyl_product(a, b)
        assert word_product.cache_info().hits > hits
        assert list(warm.terms.items()) == list(cold.terms.items())
        got = weyl_action(sympy, cold, qs, f, hb)
        want = weyl_action(sympy, a, qs, weyl_action(sympy, b, qs, f, hb), hb)
        assert (got - want).is_zero, (a, b)


def _ih_difference(a, b, n):
    """(i/ħ)(word_product(a, b) − word_product(b, a)) as a term map."""
    ab, ba = (WeylElement(n, dict(word_product(*w, n))) for w in ((a, b), (b, a)))
    return (ab - ba).scale(S_I / HBAR).terms


@pytest.mark.parametrize("n, deg", [(1, 3), (2, 3), (3, 2)])
def test_word_bracket_is_the_ih_commutator_of_word_products(n, deg):
    # every pair of words at n = 1, random pairs at n = 2 and 3; the weights
    # are polynomials in ħ, so their denominator is the unit one
    words = monomials_upto(2 * n, deg)
    rng = random.Random(20 + n)
    pairs = itertools.product(words, repeat=2) if n == 1 else \
        [(rng.choice(words), rng.choice(words)) for _ in range(60)]
    for a, b in pairs:
        got = word_bracket(a, b, n)
        assert dict(got) == _ih_difference(a, b, n) and len(dict(got)) == len(got)
        assert all(w.den is PP_ONE for _, w in got)


@pytest.mark.parametrize("n, deg", [(1, 3), (2, 2)])
def test_cold_and_warm_ih_commutators_agree_with_operator_composition(n, deg):
    sympy = pytest.importorskip("sympy")
    hb = sympy.Symbol("hbar", positive=True)
    qs = sympy.symbols("q1:%d" % (n + 1))
    f = sympy.Poly(sum(sympy.Symbol("c%s" % (g,))
                       * sympy.Mul(*[q ** k for q, k in zip(qs, g)])
                       for g in itertools.product(range(2 * deg + 1), repeat=n)),
                   *qs)
    rng = random.Random(23 + n)
    for _ in range(4):
        a, b = _random_hbar_weyl(rng, n, deg), _random_hbar_weyl(rng, n, deg)
        # a coefficient that is not a polynomial in ħ takes the same path
        rational = a + WeylElement.word(rng.choice(monomials_upto(2 * n, deg)),
                                        S_ONE / (HBAR + 1), n)
        for x, y in ((a, b), (rational, b), (b, rational)):
            want = weyl_commutator(x, y).scale(S_I / HBAR)
            word_bracket.cache_clear()
            assert x.ih_commutator(y) == want
            assert word_bracket.cache_info().misses > 0
            hits = word_bracket.cache_info().hits
            assert x.ih_commutator(y) == want
            assert word_bracket.cache_info().hits > hits
        # ħ·(i/ħ)[A, B]f = i(A(Bf) − B(Af))
        got = weyl_action(sympy, a.ih_commutator(b), qs, f, hb) * hb
        want = (weyl_action(sympy, a, qs, weyl_action(sympy, b, qs, f, hb), hb)
                - weyl_action(sympy, b, qs, weyl_action(sympy, a, qs, f, hb), hb)) * sympy.I
        assert (got - want).is_zero, (a, b)
