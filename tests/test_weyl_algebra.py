"""Normal-ordered Weyl algebra: product, commutators, commutant computation."""

import random

from algebra_props import check_weyl_associativity, random_weyl
from gvh.poly import monomials_upto
from gvh.scalars import HBAR, S_I, S_ONE, Scalar
from gvh.subspace import WeylAmbient
from gvh.weyl import (WeylElement, anticommutator, symmetrized,
                      weyl_commutant, weyl_commutator, weyl_product,
                      weyl_words_upto)

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
    for _ in range(30):
        a, b = random_weyl(RNG), random_weyl(RNG)
        if a.is_zero() or b.is_zero():
            continue
        assert (a * b).degree() <= a.degree() + b.degree()


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


def test_weyl_words_upto():
    words = weyl_words_upto(1, 2)
    assert len(words) == 6
    assert sorted(w.degree() for w in words) == [0, 1, 1, 2, 2, 2]


def test_ambient_coordinates_roundtrip():
    amb = WeylAmbient(1, 3)
    for _ in range(20):
        e = random_weyl(RNG, deg=3)
        assert amb.from_coords(e.terms) == e
