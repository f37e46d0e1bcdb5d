"""Span bookkeeping, Poisson subalgebra generation, normalizers, transitivity."""

import itertools
from fractions import Fraction

import pytest

from gvh.flat import FlatElement
from gvh.matrices import ExactMatrix
from gvh.scalars import S_ONE, Scalar
from gvh.poly import MultiPoly, monomials_upto
from gvh.sphere import SVARS, SphereElement, svar
from gvh.subspace import (MAX_KEYS, FlatAmbient, MatrixAmbient,
                          OffManifoldError, SphereAmbient, SubspaceBasis,
                          TorusAmbient, WeylAmbient,
                          generate_poisson_subalgebra, normalizer,
                          transitivity_at_point, transitivity_check)
from gvh.torus import TorusElement
from gvh.weyl import WeylElement


def _m(n, qe, pe, c=1):
    return FlatElement.monomial(n, qe, pe, Scalar.from_int(c))


def _bracket_closed(sub):
    elems = sub.elements()
    return all(not sub.reduce(sub.ambient.bracket(f, g).terms) for f in elems for g in elems)


def test_span_reduction():
    amb = FlatAmbient(1, 2)
    basis = SubspaceBasis.from_elements(amb, [
        _m(1, (1,), (0,)),
        _m(1, (1,), (0,), 3),              # dependent
        _m(1, (0,), (1,)) + _m(1, (1,), (0,)),
    ])
    assert basis.dim() == 2
    assert not basis.reduce(_m(1, (0,), (1,)).terms)
    assert basis.reduce(_m(1, (2,), (0,)).terms)


def test_basis_does_not_depend_on_insertion_order():
    # the printed basis is the reduced echelon form over the ambient's keys,
    # an out-of-cap key (q^4, S1^4) pivoting after every in-cap key
    sphere = SphereElement.canonicalize
    s1, s2, s3 = svar("S1"), svar("S2"), svar("S3")
    cases = [
        (FlatAmbient(1, 3), [
            _m(1, (2,), (0,)) + _m(1, (0,), (1,)),
            _m(1, (1,), (1,)) - _m(1, (3,), (0,), 2),
            _m(1, (2,), (0,)) - _m(1, (1,), (1,)) + _m(1, (0,), (0,)),
            _m(1, (4,), (0,)) + _m(1, (0,), (1,), 3),
            _m(1, (3,), (0,)) + _m(1, (0,), (0,)),
        ]),
        (SphereAmbient(3), [
            sphere(s1 * s1 + s3),
            sphere(s1 * s2 - s3 * s3),
            sphere(s3 * s3 + s2 * s2 * s1),
            sphere(s1 ** 4 + s3),
            sphere(s1 * s1 - s2 * s2 * s1),
        ]),
    ]
    for amb, elems in cases:
        want = SubspaceBasis.from_elements(amb, elems).elements()
        assert any(not amb.within_bound(e) for e in want)
        for order in itertools.permutations(elems):
            got = SubspaceBasis.from_elements(amb, order).elements()
            assert got == want
            assert [str(e) for e in got] == [str(e) for e in want]


def test_generate_quadratics_close():
    # sp(2): {q^2, qp, p^2} is already a Poisson subalgebra
    amb = FlatAmbient(1, 2)
    gens = [_m(1, (2,), (0,)), _m(1, (0,), (2,))]
    sub = generate_poisson_subalgebra(gens, amb)
    assert sub.dim() == 3
    assert not sub.reduce(_m(1, (1,), (1,)).terms)
    assert _bracket_closed(sub)


def test_generate_affine_plus_quadratic():
    # full degree <= 2 algebra from {1, q, p, q^2, qp, p^2} generators q^2, p^2, q, p
    amb = FlatAmbient(1, 2)
    gens = [_m(1, (2,), (0,)), _m(1, (0,), (2,)), _m(1, (1,), (0,)), _m(1, (0,), (1,))]
    sub = generate_poisson_subalgebra(gens, amb)
    assert sub.dim() == 6
    assert _bracket_closed(sub)


def test_normalizer_of_affine_is_quadratics():
    """N(span{1,q,p}) inside degree <= 4 is exactly the quadratics (dim 6)."""
    amb = FlatAmbient(1, 4)
    p1 = SubspaceBasis.from_elements(amb, [
        FlatElement.const(1, S_ONE),
        _m(1, (1,), (0,)),
        _m(1, (0,), (1,)),
    ])
    norm = normalizer(p1, amb)
    assert norm.dim() == 6
    for qe, pe in [((2,), (0,)), ((1,), (1,)), ((0,), (2,))]:
        assert not norm.reduce(_m(1, qe, pe).terms)
    assert all(not norm.reduce(e.terms) for e in p1.elements())
    assert _bracket_closed(norm)


@pytest.mark.parametrize("cap", range(7))
def test_sphere_basis_spans_every_canonical_monomial(cap):
    # the (cap+1)² normal-form keys span what every monomial of degree
    # <= cap spans once canonicalized, with no dependent one
    amb = SphereAmbient(cap)
    basis = amb.basis_elements()
    assert len(basis) == (cap + 1) ** 2
    every = [SphereElement.canonicalize(MultiPoly(SVARS, {e: S_ONE}))
             for e in monomials_upto(3, cap)]
    span = SubspaceBasis.from_elements(amb, basis)
    full = SubspaceBasis.from_elements(amb, every)
    assert span.dim() == len(basis)
    assert all(not span.reduce(e.terms) for e in full.elements())
    assert all(not full.reduce(e.terms) for e in span.elements())


def test_sphere_keys_are_the_normal_form_monomials():
    # S3-degree <= 1, in the order every monomial had before, so each pivot
    # stays where it was; cap 180 is listed whole, within MAX_KEYS
    for cap in range(9):
        assert SphereAmbient(cap).keys() == [
            e for e in monomials_upto(3, cap) if e[2] <= 1]
    keys = SphereAmbient(180).keys()
    assert len(keys) == len(set(keys)) == 181 ** 2 == 32_761 <= MAX_KEYS
    assert keys[-1] == (180, 0, 0) and max(e[2] for e in keys) == 1


def test_normalizer_of_sphere_u2_is_itself():
    """span{1, S1, S2, S3} is self-normalizing inside sphere degree <= 3."""
    amb = SphereAmbient(3)
    u2 = SubspaceBasis.from_elements(amb, [
        SphereElement.canonicalize(MultiPoly.const(SVARS, S_ONE)),
        SphereElement.canonicalize(svar("S1")),
        SphereElement.canonicalize(svar("S2")),
        SphereElement.canonicalize(svar("S3")),
    ])
    assert u2.dim() == 4
    assert _bracket_closed(u2)
    norm = normalizer(u2, amb)
    assert norm.dim() == 4
    assert all(not norm.reduce(e.terms) for e in u2.elements())


def test_normalizer_of_full_ambient_is_itself():
    amb = FlatAmbient(1, 2)
    full = SubspaceBasis.from_elements(amb, amb.basis_elements())
    norm = normalizer(full, amb)
    assert norm.dim() == full.dim() == len(amb.keys())


def test_normalizer_of_center_is_everything():
    # N(span{1}) is everything: constants are central
    amb = FlatAmbient(1, 2)
    center = SubspaceBasis.from_elements(amb, [FlatElement.const(1, S_ONE)])
    assert normalizer(center, amb).dim() == len(amb.keys())


def test_generate_monotone_in_bound():
    gens_small = [_m(1, (2,), (1,)), _m(1, (1,), (2,))]
    small = generate_poisson_subalgebra(gens_small, FlatAmbient(1, 3))
    big = generate_poisson_subalgebra(gens_small, FlatAmbient(1, 4))
    for e in small.elements():
        assert not big.reduce(e.terms)
    assert big.dim() >= small.dim()


def test_transitivity_flat_affine():
    amb = FlatAmbient(1, 1)
    basis = SubspaceBasis.from_elements(amb, [
        FlatElement.const(1, S_ONE),
        _m(1, (1,), (0,)),
        _m(1, (0,), (1,)),
    ])
    results = transitivity_check(basis, npoints=6, seed=0)
    assert len(results) == 6
    assert all(r["transitive"] for r in results)
    for r in results:
        assert r["rank"] == 2


def test_transitivity_fails_for_small_span():
    amb = FlatAmbient(1, 1)
    basis = SubspaceBasis.from_elements(amb, [_m(1, (1,), (0,))])
    results = transitivity_check(basis, npoints=4, seed=1)
    assert all(not r["transitive"] for r in results)


def test_transitivity_sphere_so3():
    amb = SphereAmbient(1)
    basis = SubspaceBasis.from_elements(amb, [
        SphereElement.canonicalize(svar(v)) for v in ("S1", "S2", "S3")])
    results = transitivity_check(basis, npoints=5, seed=2, params={"s": 1.0})
    assert all(r["transitive"] for r in results)
    for r in results:
        assert r["rank"] == 2  # tangent plane of the sphere


def test_sphere_points_on_manifold():
    amb = SphereAmbient(1)
    basis = SubspaceBasis.from_elements(amb, [SphereElement.canonicalize(svar("S1"))])
    for r in transitivity_check(basis, npoints=3, seed=3, params={"s": 2.0}):
        x = r["point"]
        assert abs(x[0] ** 2 + x[1] ** 2 + x[2] ** 2 - 4.0) < 1e-9


def test_quadratics_rank_zero_at_origin():
    # homogeneous quadratics have vanishing Hamiltonian fields at the origin
    amb = FlatAmbient(1, 2)
    sp2 = SubspaceBasis.from_elements(amb, [
        _m(1, (2,), (0,)), _m(1, (1,), (1,)), _m(1, (0,), (2,))])
    r = transitivity_at_point(sp2, [0.0, 0.0])
    assert r["rank"] == 0
    assert not r["transitive"]
    # away from the origin they do act transitively
    r2 = transitivity_at_point(sp2, [0.7, -0.4])
    assert r2["rank"] == 2


def test_off_manifold_sphere_point_rejected():
    amb = SphereAmbient(1)
    basis = SubspaceBasis.from_elements(
        amb, [SphereElement.canonicalize(svar(v)) for v in ("S1", "S2", "S3")])
    with pytest.raises(OffManifoldError):
        transitivity_at_point(basis, [5.0, 0.0, 0.0], params={"s": 1.0})


def _ambient_cases():
    """(ambient, its leading keys, an element at the cap, one at cap + 1);
    the operator ambients (Weyl, matrix) have no cap."""
    half = Scalar.from_rational(1, 2)
    sphere = SphereElement.canonicalize
    return {
        "flat-n1": (FlatAmbient(1, 2),
                    [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)],
                    _m(1, (1,), (1,)), _m(1, (2,), (1,))),
        "flat-n2": (FlatAmbient(2, 2),
                    [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0),
                     (1, 0, 0, 0), (0, 0, 0, 2)],
                    _m(2, (1, 0), (0, 1)), _m(2, (1, 1), (0, 1))),
        "sphere": (SphereAmbient(2),
                   [(0, 0, 0), (0, 0, 1), (0, 1, 0),
                    (1, 0, 0), (0, 1, 1), (0, 2, 0)],
                   sphere(svar("S1") * svar("S2")),
                   sphere(svar("S1") * svar("S2") * svar("S3"))),
        "torus-B-half": (TorusAmbient(1, half),
                         [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1)],
                         TorusElement.sin(1, -1, B=half),
                         TorusElement.cos(2, 0, B=half)),
        "weyl": (WeylAmbient(1, 3),
                 [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)],
                 None, None),
        "matrix": (MatrixAmbient(2), [(0, 0), (0, 1), (1, 0), (1, 1)],
                   None, None),
    }


AMBIENTS = _ambient_cases()


@pytest.mark.parametrize("name", sorted(AMBIENTS))
def test_ambient_contract(name):
    amb, leading, at_cap, over_cap = AMBIENTS[name]
    keys = amb.keys()
    assert keys[:len(leading)] == leading
    basis = amb.basis_elements()
    assert len(basis) == len(keys)
    if name == "sphere":  # the normal-form monomials, S3-degree <= 1
        assert len(keys) == (amb.cap + 1) ** 2
    e = amb.zero()
    assert e.is_zero() and e.terms == {}
    for c, b in enumerate(basis, start=1):
        e = e + b.scale(Scalar.from_int(c))
    assert amb.from_coords(e.terms) == e
    assert not SubspaceBasis.from_elements(amb, basis).reduce(e.terms)
    if at_cap is None:  # keys and a constructor only
        assert amb.bracket is None and amb.size is None and amb.cap is None
        assert isinstance(e, {"weyl": WeylElement, "matrix": ExactMatrix}[name])
        return
    assert amb.within_bound(at_cap) and amb.size(at_cap) == amb.cap
    assert not amb.within_bound(over_cap)
    assert amb.size(over_cap) == amb.cap + 1


@pytest.mark.parametrize("build, args", [
    (FlatAmbient, (2, 3)), (SphereAmbient, (3,)), (TorusAmbient, (2,)),
    (WeylAmbient, (1, 4)), (MatrixAmbient, (3,)),
], ids=["flat", "sphere", "torus", "weyl", "matrix"])
def test_key_bound_is_the_exact_key_count(build, args, monkeypatch):
    count = len(build(*args).keys())
    monkeypatch.setattr("gvh.subspace.MAX_KEYS", count)
    assert len(build(*args).keys()) == count
    monkeypatch.setattr("gvh.subspace.MAX_KEYS", count - 1)
    with pytest.raises(ValueError, match="has %d keys, more than the limit %d"
                       % (count, count - 1)):
        build(*args)
