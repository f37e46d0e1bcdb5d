"""The TermMap contract, checked on every finite-sum class of the engine.

Each case gives two maps a, b in one context and, where the class has a
context, a map c in another one (other variables, degrees of freedom,
dimension or symplectic scale).  A ParamPoly's coefficients are
GaussRationals, so it is scaled by GaussRationals; every other class by
ints, Fractions and Scalars.
"""

from fractions import Fraction

import pytest

from gvh.diffop import DiffOp, diffop_compose
from gvh.flat import FlatElement
from gvh.matrices import ExactMatrix, spin_matrices
from gvh.poly import MultiPoly
from gvh.scalars import HBAR, S_I, S_ONE, GaussRational, ParamPoly, Scalar
from gvh.sparse import TermMap, monoid_product
from gvh.sphere import SphereElement
from gvh.torus import TorusElement
from gvh.weyl import WeylElement, weyl_product

XY = ("x", "y")


def _cases():
    s1, s2, s3 = (SphereElement.coordinate(v) for v in ("S1", "S2", "S3"))
    return {
        "MultiPoly": (MultiPoly.var(XY, "x") * MultiPoly.var(XY, "y"),
                      MultiPoly.monomial(XY, (2, 0), HBAR),
                      MultiPoly.var(("x", "z"), "x")),
        "FlatElement": (FlatElement.monomial(1, (1,), (1,)),
                        FlatElement.coordinate(1, "q1").scale(HBAR),
                        FlatElement.coordinate(2, "q1")),
        "WeylElement": (WeylElement.x(), WeylElement.p().scale(S_I),
                        WeylElement.x(1, n=2)),
        "ExactMatrix": (spin_matrices(1)[0], ExactMatrix.identity(3),
                        ExactMatrix.identity(2)),
        "TorusElement": (TorusElement.sin(1, 0), TorusElement.cos(0, 1),
                         TorusElement.sin(1, 0, B=Scalar.param("b"))),
        "SphereElement": (s1, s2 * s3, None),
        # ∂_x and x², keyed (shift, ∂_x order, ∂_y order, m, n, j)
        "DiffOp": (DiffOp({(0, 1, 0, 0, 0, 0): S_ONE}),
                   DiffOp({(0, 0, 0, 0, 0, 2): S_ONE}), None),
        # x·S_1 and ħ·e(1,0)·S_{−1}∂ on the line, as the transformed torus
        # operators
        "DiffOp-shifted": (DiffOp({(1, 0, 0, 0, 0, 1): S_ONE}),
                           DiffOp({(-1, 1, 0, 1, 0, 0): HBAR}), None),
        "ParamPoly": (ParamPoly.var("hbar") * ParamPoly.var("s"),
                      ParamPoly.var("a") + ParamPoly.const(GaussRational(1, 2)),
                      None),
    }


CASES = _cases()


def _coef(name, n):
    """The integer n as a coefficient the case's class is scaled by."""
    return GaussRational(n) if name == "ParamPoly" else n


def _matrix_product(a, b):
    n = a.dim
    return ExactMatrix(n, {(i, j): sum((a.entry(i, k) * b.entry(k, j)
                                        for k in range(n)), Scalar.from_int(0))
                           for i in range(n) for j in range(n)})


def _sphere_product(a, b):
    return SphereElement.canonicalize(a.representative() * b.representative())


# each class's own product, written without the `*` under test
PRODUCTS = {"MultiPoly": monoid_product, "FlatElement": monoid_product,
            "TorusElement": monoid_product,
            "ParamPoly": monoid_product, "WeylElement": weyl_product,
            "DiffOp": diffop_compose, "DiffOp-shifted": diffop_compose,
            "ExactMatrix": _matrix_product, "SphereElement": _sphere_product}


def _subclasses(cls):
    """Every subclass of cls, at any depth (FlatElement is a MultiPoly)."""
    out = set()
    for sub in cls.__subclasses__():
        out |= {sub} | _subclasses(sub)
    return out


def test_cases_cover_every_subclass_and_context():
    assert {cls.__name__ for cls in _subclasses(TermMap)} == \
        {type(a).__name__ for a, _, _ in CASES.values()}
    contexts = {name for a, _, c in CASES.values() if c is not None
                for name in type(a)._context}
    assert contexts == {"vars", "n", "dim", "B"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_coefficients_are_exact_scalars(name):
    # every finite sum is a map of Scalars (GaussRationals in a ParamPoly),
    # so each can be a row of linalg.Echelon
    want = GaussRational if name == "ParamPoly" else Scalar
    a, b, c = CASES[name]
    for m in (a, b, a + b, a * b) + ((c,) if c is not None else ()):
        assert all(type(v) is want for v in m.terms.values())


@pytest.mark.parametrize("name", sorted(CASES))
def test_sum_across_contexts_raises(name):
    a, b, c = CASES[name]
    if c is None:
        assert type(a)._context == ()
        return
    assert type(a)._context
    with pytest.raises(ValueError, match="contexts differ"):
        a + c
    with pytest.raises(ValueError, match="contexts differ"):
        c - a
    assert a != c


@pytest.mark.parametrize("name", sorted(CASES))
def test_difference_with_itself_is_zero(name):
    a, b, _ = CASES[name]
    for m in (a, b, a + b):
        d = m - m
        assert d.is_zero() and d.terms == {}
        assert type(d) is type(m)
    assert not (a + b).is_zero()


@pytest.mark.parametrize("name", sorted(CASES))
def test_equal_maps_hash_equal(name):
    a, b, _ = CASES[name]
    pairs = [(a + b, b + a), ((a + b) - b, a), (-(-a), a),
             (a.scale(_coef(name, 2)), a + a),
             ((a - b).scale(_coef(name, -1)), b - a)]
    for x, y in pairs:
        assert x == y
        assert hash(x) == hash(y)
    assert a + b != a


@pytest.mark.parametrize("name", sorted(CASES))
def test_scale_by_zero_is_zero(name):
    a, b, _ = CASES[name]
    zeros = (GaussRational(0),) if name == "ParamPoly" else (0, Scalar.from_int(0))
    for m in (a, a + b):
        for c in zeros:
            z = m.scale(c)
            assert z.is_zero() and type(z) is type(m)
            assert z == m - m


def test_equal_terms_in_other_classes_are_unequal():
    # P in the Weyl algebra, the classical p and the matrix unit E_01 share
    # one key and one coefficient, and n = dim = 1
    w = WeylElement(1, {(0, 1): S_ONE})
    f = FlatElement(1, {(0, 1): S_ONE})
    m = ExactMatrix(1, {(0, 1): S_ONE})
    assert w.terms == f.terms == m.terms
    assert w != m and m != w
    assert w != f and f != w


@pytest.mark.parametrize("name", ["WeylElement", "ExactMatrix", "DiffOp",
                                  "DiffOp-shifted", "MultiPoly"])
def test_commutator_is_the_product_difference(name):
    a, b, _ = CASES[name]
    assert a.commutator(b) == a * b - b * a
    assert a.commutator(a).is_zero()


@pytest.mark.parametrize("name", sorted(set(CASES) - {"ParamPoly"}))
def test_scalar_acts_on_either_side_as_scale(name):
    a, b, _ = CASES[name]
    for m in (a, a + b):
        for c in (2, Fraction(1, 3), HBAR):
            assert m * c == c * m == m.scale(c)


@pytest.mark.parametrize("name", sorted(CASES))
def test_product_is_the_class_product(name):
    a, b, _ = CASES[name]
    product = PRODUCTS[name]
    assert a * b == product(a, b)
    assert b * a == product(b, a)
    assert (a + b) * a == product(a + b, a)
