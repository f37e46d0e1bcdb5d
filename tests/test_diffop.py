"""Differential and shift operators on the torus line bundle, keyed
(shift, ∂x order, ∂y order, m, n, j) with Scalar coefficients."""

import random
from fractions import Fraction

import pytest

from gvh.diffop import DiffOp, diffop_compose
from gvh.scalars import HBAR, I_OVER_HBAR, S_I, S_ONE, TWO_PI, Scalar

RNG = random.Random(8)


def _op(a=0, dx=0, dy=0, m=0, n=0, j=0, c=S_ONE):
    """The single term c·x^j·e(m, n)·S_a·∂_x^dx·∂_y^dy."""
    return DiffOp({(a, dx, dy, m, n, j): c})


def _mult_x(power=1, c=S_ONE):
    return _op(j=power, c=c)


def _ddx(c=S_ONE):
    return _op(dx=1, c=c)


def _comm(a, b):
    return diffop_compose(a, b) - diffop_compose(b, a)


def _apply(op, f):
    """op applied to the function f, a multiplication operator: the order-0
    part of op∘f, with each shift acting trivially on the constant 1."""
    terms = {}
    for (a, dx, dy, m, n, j), c in diffop_compose(op, f).terms.items():
        if not dx and not dy:
            terms[(0, 0, 0, m, n, j)] = terms.get((0, 0, 0, m, n, j), 0) + c
    return DiffOp(terms)


def _rand_op(rng, order=2, deg=2, shifts=None):
    """A random sum of x^j·e(m)·∂^d terms; with `shifts`, each term also
    carries a shift S_a drawn from them."""
    out = DiffOp()
    for _ in range(rng.randint(1, 3)):
        c = Scalar.from_fraction(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        # x^j, sometimes times a harmonic, so ∂/∂x also meets e^{2πimx}
        term = _op(a=rng.choice(shifts) if shifts else 0,
                   m=rng.choice((0, 0, 1, -1)), j=rng.randint(0, deg), c=c)
        for _ in range(rng.randint(0, order)):
            term = diffop_compose(term, _ddx())
        out = out + term
    return out


def test_canonical_commutator():
    # [d/dx, x] = 1
    got = _comm(_ddx(), _mult_x())
    assert got == _mult_x(0)


def test_momentum_operator_commutator():
    # with P = -i hbar d/dx: [x, P] = i hbar
    p_op = _ddx(-(S_I * HBAR))
    got = _comm(_mult_x(), p_op)
    assert got == _mult_x(0, S_I * HBAR)


def test_euler_operator_action():
    # [x d/dx, x^2] = 2 x^2 as multiplication operators
    euler = diffop_compose(_mult_x(), _ddx())
    got = _comm(euler, _mult_x(2))
    assert got == _mult_x(2, Scalar.from_int(2))


def test_second_order_composition():
    # (d/dx)^2 x = x (d/dx)^2 + 2 d/dx
    d2 = diffop_compose(_ddx(), _ddx())
    lhs = diffop_compose(d2, _mult_x())
    want = diffop_compose(_mult_x(), d2) + _ddx(Scalar.from_int(2))
    assert lhs == want
    assert lhs.order() == 2


def test_apply_to_polynomial():
    # (x d/dx) x^3 = 3 x^3
    euler = diffop_compose(_mult_x(), _ddx())
    assert _apply(euler, _mult_x(3)) == _mult_x(3, Scalar.from_int(3))


def test_compose_associative():
    for _ in range(60):
        a, b, c = _rand_op(RNG), _rand_op(RNG), _rand_op(RNG)
        left = diffop_compose(diffop_compose(a, b), c)
        right = diffop_compose(a, diffop_compose(b, c))
        assert left == right


def test_commutator_antisymmetry_and_jacobi():
    for _ in range(100):
        a, b, c = _rand_op(RNG, order=1), _rand_op(RNG, order=1), _rand_op(RNG, order=1)
        assert (_comm(a, b) + _comm(b, a)).is_zero()
        jac = (_comm(a, _comm(b, c)) + _comm(b, _comm(c, a))
               + _comm(c, _comm(a, b)))
        assert jac.is_zero()


def test_coeff_lookup_and_order():
    op = _ddx() * _mult_x(2) - _mult_x(2) * _ddx() + _op(dx=1, j=2) + _mult_x()
    assert op.order() == 1
    assert op.terms == {(0, 1, 0, 0, 0, 2): S_ONE, (0, 0, 0, 0, 0, 1): Scalar.from_int(3)}
    assert DiffOp().order() == -1


def test_torus_x_coefficients():
    """The x^j·e(m, n) coefficients as multiplication operators: their
    compositions multiply them, and [∂, M_f] = M_{∂f}."""
    # x e(1,0) · e(-1,0) = x, and e(1,2) · x^2 e(0,-2) = x^2 e(1,0)
    assert _op(m=1, j=1) * _op(m=-1) == _mult_x()
    assert _op(m=1, n=2) * _op(n=-2, j=2) == _op(m=1, j=2)
    assert (_op(m=1, j=1) * _op(m=-1)).order() == 0
    # [∂_x, M_f] = M_{f'}: (x e(1,0))' = e(1,0) + 2πi x e(1,0)
    got = _comm(_ddx(), _op(m=1, j=1))
    assert got == _op(m=1) + _op(m=1, j=1, c=TWO_PI * S_I)
    # [∂_y, M_{e(2,3)}] = 6πi e(2,3), and ∂_y of a function of x alone is 0
    assert _comm(_op(dy=1), _op(m=2, n=3)) == _op(m=2, n=3, c=TWO_PI * S_I * 3)
    assert _comm(_op(dy=1), _op(m=2, j=4)).is_zero()


def test_shift_expands_binomially():
    # S_2 x^2 e(1,0) = (x^2 + 4x + 4) e(1,0) S_2: the phase e^{4 pi i} is 1
    f = _op(m=1, j=2)
    want = DiffOp({(2, 0, 0, 1, 0, 2): S_ONE, (2, 0, 0, 1, 0, 1): Scalar.from_int(4),
                   (2, 0, 0, 1, 0, 0): Scalar.from_int(4)})
    assert _op(a=2) * f == want
    assert _op(a=-2) * want == f
    assert _op(a=0) * f == f


def test_shift_rejects_a_non_integer():
    f = _op(m=1)
    for a in (0.5, 1.0, Fraction(1, 2)):
        with pytest.raises(ValueError, match="integer shift"):
            _op(a=a) * f


def test_shift_moves_right_past_a_coefficient():
    # S_1 ∘ x = (x + 1) S_1, and S_1 ∘ S_{-1} = 1
    s1 = _op(a=1)
    assert s1 * _mult_x() == _op(a=1, j=1) + _op(a=1)
    assert s1 * _op(a=-1) == _mult_x(0)
    assert str(s1 * _ddx()) == "[(1)*1] S[1] d/dx"


def test_str_groups_the_symbol_of_each_shift_and_order():
    op = _op(a=1, dx=1, m=1, j=2, c=HBAR) + _op(a=1, dx=1, c=Scalar.from_int(-2)) \
        + _op(dy=1, n=-1) + _mult_x(3)
    assert str(op) == ("[(1)*x^3] 1 + [(1)*e(0,-1)] d/dy"
                       " + [(-2)*1 + (hbar)*x^2*e(1,0)] S[1] d/dx")
    assert str(DiffOp()) == "0"


def test_compose_with_shifts_matches_the_action():
    # (A∘B) f = A(B f) on x^j e(m, 0), and composition stays associative
    rng = random.Random(12)
    funcs = [_op(m=m, j=j) for j in (0, 1, 3) for m in (0, 2)]
    for _ in range(30):
        a, b, c = (_rand_op(rng, shifts=(0, 1, -2)) for _ in range(3))
        ab = diffop_compose(a, b)
        for f in funcs:
            assert _apply(ab, f) == _apply(a, _apply(b, f))
        assert diffop_compose(ab, c) == diffop_compose(a, diffop_compose(b, c))


def _rand_term_sum(rng):
    """A random sum of c·x^j·e(m, n)·S_a·∂_x^{α_x}·∂_y^{α_y}: a in −2…2 (0
    half the time, so unshifted pairs meet often), j, α_x, α_y ≤ 2 and
    |m|, |n| ≤ 2."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        key = (rng.choice((0, 0, 0, 0, -2, -1, 1, 2)), rng.randint(0, 2),
               rng.randint(0, 2), rng.randint(-2, 2), rng.randint(-2, 2),
               rng.randint(0, 2))
        c = Scalar.from_fraction(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                                          rng.randint(1, 3)))
        terms[key] = c * rng.choice((S_ONE, HBAR, TWO_PI * S_I))
    return DiffOp(terms)


def test_commutator_equals_the_difference_of_both_compositions():
    # DiffOp.commutator leaves out the products AB and BA share; what it
    # returns must still be AB − BA, shifted or not
    rng = random.Random(28)
    for _ in range(150):
        a, b = _rand_term_sum(rng), _rand_term_sum(rng)
        want = diffop_compose(a, b) - diffop_compose(b, a)
        assert a.commutator(b) == want
        assert a.ih_commutator(b) == want.scale(I_OVER_HBAR)
