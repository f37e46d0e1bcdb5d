"""Differential operators on the torus line bundle (TorusXCoef coefficients)."""

import random
from fractions import Fraction

import pytest

from gvh.diffop import DiffOp, TorusXCoef, diffop_commutator, diffop_compose
from gvh.scalars import HBAR, S_I, S_ONE, Scalar

RNG = random.Random(8)
DX = (0, 1, 0)
ONE = (0, 0, 0)


def _mult_x(power=1, c=S_ONE):
    return DiffOp({ONE: TorusXCoef.xpow(power, c)})


def _ddx(coef=None):
    return DiffOp({DX: TorusXCoef.const(S_ONE) if coef is None else coef})


def _rand_op(rng, order=2, deg=2, shifts=None):
    """A random sum of x^j·e(m)·∂^d terms; with `shifts`, each term also
    carries a shift S_a drawn from them."""
    out = DiffOp()
    for _ in range(rng.randint(1, 3)):
        c = Scalar.from_fraction(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        # x^j, sometimes times a harmonic, so ∂/∂x also meets e^{2πimx}
        coef = TorusXCoef({(rng.choice((0, 0, 1, -1)), 0, rng.randint(0, deg)): c})
        a = rng.choice(shifts) if shifts else 0
        term = DiffOp({(a, 0, 0): coef})
        for _ in range(rng.randint(0, order)):
            term = diffop_compose(term, _ddx())
        out = out + term
    return out


def test_canonical_commutator():
    # [d/dx, x] = 1
    got = diffop_commutator(_ddx(), _mult_x())
    assert got == _mult_x(0)


def test_momentum_operator_commutator():
    # with P = -i hbar d/dx: [x, P] = i hbar
    p_op = _ddx(TorusXCoef.const(-(S_I * HBAR)))
    got = diffop_commutator(_mult_x(), p_op)
    assert got == _mult_x(0, S_I * HBAR)


def test_euler_operator_action():
    # [x d/dx, x^2] = 2 x^2 as multiplication operators
    euler = diffop_compose(_mult_x(), _ddx())
    got = diffop_commutator(euler, _mult_x(2))
    assert got == _mult_x(2, Scalar.from_int(2))


def test_second_order_composition():
    # (d/dx)^2 x = x (d/dx)^2 + 2 d/dx
    d2 = diffop_compose(_ddx(), _ddx())
    lhs = diffop_compose(d2, _mult_x())
    want = diffop_compose(_mult_x(), d2) + _ddx(TorusXCoef.const(Scalar.from_int(2)))
    assert lhs == want
    assert lhs.order() == 2


def test_apply_to_polynomial():
    # (x d/dx) x^3 = 3 x^3
    euler = diffop_compose(_mult_x(), _ddx())
    got = euler.apply_to_coef(TorusXCoef.xpow(3))
    assert got == TorusXCoef.xpow(3, Scalar.from_int(3))


def test_compose_associative():
    for _ in range(60):
        a, b, c = _rand_op(RNG), _rand_op(RNG), _rand_op(RNG)
        left = diffop_compose(diffop_compose(a, b), c)
        right = diffop_compose(a, diffop_compose(b, c))
        assert left == right


def test_commutator_antisymmetry_and_jacobi():
    for _ in range(100):
        a, b, c = _rand_op(RNG, order=1), _rand_op(RNG, order=1), _rand_op(RNG, order=1)
        assert (diffop_commutator(a, b) + diffop_commutator(b, a)).is_zero()
        jac = (diffop_commutator(a, diffop_commutator(b, c))
               + diffop_commutator(b, diffop_commutator(c, a))
               + diffop_commutator(c, diffop_commutator(a, b)))
        assert jac.is_zero()


def test_coeff_lookup_and_order():
    op = _ddx(TorusXCoef.xpow(2)) + _mult_x()
    assert op.order() == 1
    assert op.coeff(DX) == TorusXCoef.xpow(2)
    assert op.coeff(ONE) == TorusXCoef.xpow(1)
    assert op.coeff((0, 5, 0)).is_zero()


def test_torus_x_coefficients():
    """Mixed x-polynomial/harmonic coefficient ring used on the torus."""
    f = TorusXCoef.xpow(1) * TorusXCoef.harmonic(1, 0)
    g = TorusXCoef.harmonic(-1, 0)
    prod = f * g
    assert prod == TorusXCoef.xpow(1)
    d = prod.partial("x")
    assert d == TorusXCoef.const(S_ONE)
    # evalf agrees with the closed form x e^{2 pi i x} at a sample point
    import cmath, math
    val = (TorusXCoef.xpow(1) * TorusXCoef.harmonic(1, 0)).evalf(0.3, 0.7, {"pi": math.pi})
    assert abs(val - 0.3 * cmath.exp(2j * math.pi * 0.3)) < 1e-14


def test_shift_expands_binomially():
    # (x^2 e(1,0))(x + 2) = (x^2 + 4x + 4) e(1,0): the phase e^{4 pi i} is 1
    f = TorusXCoef({(1, 0, 2): S_ONE})
    want = TorusXCoef({(1, 0, 2): S_ONE, (1, 0, 1): Scalar.from_int(4),
                       (1, 0, 0): Scalar.from_int(4)})
    assert f.shift(2) == want
    assert f.shift(2).shift(-2) == f
    assert f.shift(0) is f


def test_shift_rejects_a_non_integer():
    f = TorusXCoef.harmonic(1, 0)
    for a in (0.5, 1.0, Fraction(1, 2)):
        with pytest.raises(ValueError, match="integer shift"):
            f.shift(a)


def test_shift_moves_right_past_a_coefficient():
    # S_1 ∘ x = (x + 1) S_1, and S_1 ∘ S_{-1} = 1
    s1 = DiffOp({(1, 0, 0): TorusXCoef.const(S_ONE)})
    sm1 = DiffOp({(-1, 0, 0): TorusXCoef.const(S_ONE)})
    assert s1 * _mult_x() == DiffOp({(1, 0, 0): TorusXCoef.xpow(1) + TorusXCoef.const(S_ONE)})
    assert s1 * sm1 == _mult_x(0)
    assert str(s1 * _ddx()) == "[(1)*1] S[1] d/dx"


def test_compose_with_shifts_matches_the_action():
    # (A∘B) f = A(B f) on x^j e(m, 0), and composition stays associative
    rng = random.Random(12)
    funcs = [TorusXCoef.xpow(j) * TorusXCoef.harmonic(m, 0)
             for j in (0, 1, 3) for m in (0, 2)]
    for _ in range(30):
        a, b, c = (_rand_op(rng, shifts=(0, 1, -2)) for _ in range(3))
        ab = diffop_compose(a, b)
        for f in funcs:
            assert ab.apply_to_coef(f) == a.apply_to_coef(b.apply_to_coef(f))
        assert diffop_compose(ab, c) == diffop_compose(a, diffop_compose(b, c))
