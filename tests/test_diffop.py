"""Differential operators on the torus line bundle (TorusXCoef coefficients)."""

import random
from fractions import Fraction

from gvh.diffop import DiffOp, TorusXCoef, diffop_commutator, diffop_compose
from gvh.scalars import HBAR, S_I, S_ONE, Scalar

RNG = random.Random(8)
DX = (1, 0)


def _mult_x(power=1, c=S_ONE):
    return DiffOp({(0, 0): TorusXCoef.xpow(power, c)})


def _ddx(coef=None):
    return DiffOp({DX: TorusXCoef.const(S_ONE) if coef is None else coef})


def _rand_op(rng, order=2, deg=2):
    out = DiffOp()
    for _ in range(rng.randint(1, 3)):
        c = Scalar.from_fraction(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        # x^j, sometimes times a harmonic, so ∂/∂x also meets e^{2πimx}
        coef = TorusXCoef({(rng.choice((0, 0, 1, -1)), 0, rng.randint(0, deg)): c})
        term = DiffOp({(0, 0): coef})
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
    assert op.coeff((0, 0)) == TorusXCoef.xpow(1)
    assert op.coeff((5, 0)).is_zero()


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
