"""Acceptance runs: one test per headline claim, each printing a single
ACCEPTANCE line (visible under pytest -rA) and holding a wall-clock budget.

1. quadratic anticommutator obstruction, exact constants
2. Groenewold cubic identity obstruction, exact constants
3. von Neumann closed-form rules through degree five + bracket rule overlap
4. staged extension: unique through the quadratics, inconsistent at cubics
5. position-representation map on its invariant subalgebra + non-extension
6. sphere certificate family over the spin ladder
7. normalizer computations pinning the maximal subalgebras
8. torus go result: symbolic bracket rule, transform identities, commutant
9. randomized algebraic property battery for every structure
"""

import random
import time
from fractions import Fraction

from algebra_props import (check_poisson_identities,
                           check_sphere_representatives,
                           check_weyl_associativity, random_flat,
                           random_sphere, random_torus)
from gvh.flat import FlatElement, bracket_flat
from gvh.obstruction import (anticommutator_certificate,
                             cubic_extension_problem, extension_solve,
                             groenewold_certificate,
                             position_nonextension_certificate,
                             quadratic_extension_problem, sphere_certificate,
                             torus_irreducibility, torus_transform_identities,
                             vonneumann_rules_flat)
from gvh.qmaps import (POSITION, TORUS_PREQUANT, QuantizationMap, check_q1)
from gvh.scalars import HBAR, S_I, S_ONE, S_ZERO, Scalar
from gvh.sphere import SphereElement, bracket_sphere
from gvh.subspace import (FlatAmbient, SphereAmbient,
                          generate_poisson_subalgebra, normalizer)
from gvh.torus import basic_set, bracket_torus
from gvh.weyl import WeylElement, symmetrized, weyl_commutator

X = WeylElement.x()
P = WeylElement.p()
H2 = HBAR * HBAR
A2H2 = HBAR * HBAR * Scalar.param("a") * Scalar.param("a")


def _frac(num, den=1):
    return Scalar.from_fraction(Fraction(num, den))


def _mono(qe, pe):
    return FlatElement.monomial(1, (qe,), (pe,), S_ONE)


def _stamp(num, t0, budget, detail):
    took = time.monotonic() - t0
    assert took < budget, \
        "criterion %d blew its %.0fs budget: %.2fs" % (num, budget, took)
    print("ACCEPTANCE %d PASS - %s (%.2fs < %.0fs)" % (num, detail, took, budget))


def test_criterion_1_anticommutator_obstruction():
    t0 = time.monotonic()
    lhs = symmetrized(X, P) * symmetrized(X, P)       # (1/4)(XP+PX)^2
    rhs = symmetrized(X * X, P * P)                   # (1/2)(X^2P^2+P^2X^2)
    assert (lhs.scalar_part() + _frac(1, 4) * H2).is_zero()
    assert (rhs.scalar_part() + H2).is_zero()
    diff = lhs - rhs
    assert not diff.is_zero()
    assert diff == WeylElement.const(_frac(3, 4) * H2)
    cert = anticommutator_certificate()
    assert cert.verdict == "inconsistent"
    assert (cert.discrepancy - _frac(3, 4) * H2).is_zero()
    _stamp(1, t0, 1.0, "constants -1/4*hbar^2 vs -hbar^2, gap (3/4)*hbar^2*I")


def test_criterion_2_groenewold_obstruction():
    t0 = time.monotonic()
    # the classical identity is exact
    left = bracket_flat(_mono(3, 0), _mono(0, 3)).scale(_frac(1, 9))
    right = bracket_flat(_mono(2, 1), _mono(1, 2)).scale(_frac(1, 3))
    assert left == right
    # quantized along the two routes the difference is a nonzero exact
    # multiple of the identity
    i_over_h = S_I * HBAR.inverse()
    via_cubes = weyl_commutator(
        X * X * X, P * P * P).scale(i_over_h * _frac(1, 9))
    via_mixed = weyl_commutator(
        symmetrized(X * X, P), symmetrized(X, P * P)).scale(i_over_h * _frac(1, 3))
    diff = via_cubes - via_mixed
    assert diff == WeylElement.const(_frac(1, 3) * H2)
    assert not diff.is_zero()
    cert = groenewold_certificate()
    assert cert.verdict == "inconsistent"
    assert (cert.discrepancy - _frac(1, 3) * H2).is_zero()
    assert "2/3" in str(cert.steps[1]["difference"])
    assert "1/3" in str(cert.steps[2]["difference"])
    _stamp(2, t0, 1.0, "normalized constants 2/3 vs 1/3, gap (1/3)*hbar^2*I")


def test_criterion_3_closed_form_rules_degree_five():
    t0 = time.monotonic()
    out = vonneumann_rules_flat(5)
    assert sorted(r["degree"] for r in out["records"]) == [2, 3, 4, 5]
    assert all(r["verdict"] == "unique" for r in out["records"])
    assert all(r["matches_closed_form"] is True for r in out["records"])
    rules = out["rules"]

    # wrap the derived rules as a map and exercise the bracket rule on the
    # degree <= 2 overlap, where brackets stay inside the ruled span
    def rule(f):
        op = WeylElement.const(S_ZERO)
        for exps, c in f.terms.items():
            op = op + rules[exps].scale(c)
        return op

    def member(f):
        missing = [e for e in f.terms if e not in rules]
        if missing:
            return "no closed-form rule for exponents %s" % (missing,)
        return None

    qmap = QuantizationMap("closed-form", "ruled monomial span", rule,
                           bracket_flat, membership=member)
    quad = [_mono(a, b) for a in range(3) for b in range(3) if a + b <= 2]
    pairs = 0
    for i, f in enumerate(quad):
        for g in quad[i + 1:]:
            assert check_q1(qmap, f, g).is_zero()
            pairs += 1
    _stamp(3, t0, 5.0,
           "rules through degree 5 unique + closed-form, bracket rule exact "
           "on %d quadratic pairs" % pairs)


def test_criterion_4_extension_stages():
    t0 = time.monotonic()
    quad = extension_solve(quadratic_extension_problem())
    assert quad.verdict == "unique"
    assert quad.parameters == 0
    assert quad.assignments == [X * X, symmetrized(X, P), P * P]
    cubic = extension_solve(cubic_extension_problem())
    assert cubic.verdict == "inconsistent"
    label, residual = cubic.contradiction
    assert label == "(1/9){q^3,p^3} - (1/3){q^2 p, q p^2}"
    assert (residual + _frac(1, 3) * H2).is_zero()
    _stamp(4, t0, 10.0,
           "quadratic stage unique (symmetrized ops), cubic stage inconsistent")


def test_criterion_5_position_map_and_nonextension():
    t0 = time.monotonic()
    # the invariant subalgebra: momentum-affine elements through degree 4
    elems = [_mono(a, e) for e in (0, 1) for a in range(5 - e)]
    pairs = 0
    for i, f in enumerate(elems):
        for g in elems[i + 1:]:
            assert check_q1(POSITION, f, g).is_zero()
            pairs += 1
    cert = position_nonextension_certificate()
    assert cert.verdict == "inconsistent"
    assert cert.steps[0]["quantum_lhs"] == "dimension 1"
    assert cert.steps[1]["quantum_rhs"] == "forces T = 0"
    assert cert.steps[2]["quantum_lhs"] == "chained certificate: groenewold"
    assert (cert.discrepancy - _frac(1, 3) * H2).is_zero()
    _stamp(5, t0, 5.0,
           "bracket rule exact on %d momentum-affine pairs; extension forces "
           "T = 0 and chains to the cubic obstruction" % pairs)


def test_criterion_6_sphere_certificate_family():
    t0 = time.monotonic()
    # every spin j = 1/2, 1, ..., 10: the no-go result holds for all j
    for j in (Fraction(k, 2) for k in range(1, 21)):
        cert = sphere_certificate(j)
        assert cert.verdict == "inconsistent", "j = %s" % j
        if j == Fraction(1, 2):
            # the first identity degenerates: it forces s^2 = 0 outright
            assert cert.discrepancy == "s^2 = 0 vs s > 0"
            continue
        coef_one = Fraction(j * (j + 1)) - Fraction(3, 4)
        coef_two = Fraction(j * (j + 1)) - Fraction(9, 4)
        want_one = _frac(coef_one.numerator, coef_one.denominator) * A2H2
        want_two = _frac(coef_two.numerator, coef_two.denominator) * A2H2
        assert cert.steps[1]["difference"].startswith(
            "s^2 = %s (target" % want_one)
        assert cert.steps[2]["difference"].startswith(
            "s^2 = %s (target" % want_two)
        assert (cert.discrepancy - _frac(3, 2) * A2H2).is_zero()
    trivial = sphere_certificate(0)
    assert trivial.verdict == "consistent"
    assert str(trivial.steps[0]["quantum_rhs"]) == "1/3*s^2"
    _stamp(6, t0, 30.0,
           "j in {1/2..10} inconsistent with s^2 = a^2*hbar^2*(j(j+1)-3/4) vs "
           "the -9/4 counterpart; j = 0 consistent with Q(S_i^2) = (s^2/3) I")


def test_criterion_7_normalizers_pin_maximal_subalgebras():
    t0 = time.monotonic()
    # affine flat functions normalize to the full quadratic span
    amb = FlatAmbient(1, 4)
    q = FlatElement.coordinate(1, "q1")
    p = FlatElement.coordinate(1, "p1")
    affine = generate_poisson_subalgebra([FlatElement.const(1, S_ONE), q, p], amb)
    norm = normalizer(affine, amb)
    assert affine.dim() == 3
    assert norm.dim() == 6
    for extra in (q * q, q * p, p * p):
        assert not norm.reduce(extra.terms)

    # the distinguished sphere subalgebra is its own normalizer
    samb = SphereAmbient(3)
    gens = [SphereElement.const(S_ONE)] + \
        [SphereElement.coordinate(v) for v in ("S1", "S2", "S3")]
    sub = generate_poisson_subalgebra(gens, samb)
    snorm = normalizer(sub, samb)
    assert sub.dim() == 4
    assert snorm.dim() == 4
    assert all(not snorm.reduce(e.terms) for e in sub.elements())
    _stamp(7, t0, 5.0,
           "flat affine normalizer has dimension 6 (full quadratic span); "
           "sphere span{1, S1, S2, S3} is self-normalizing at dimension 4")


def test_criterion_8_torus_go_result():
    t0 = time.monotonic()
    # (a) the bracket rule holds symbolically on every basic-set pair
    sym_pairs = 0
    for k in (1, 2, 3):
        gens = basic_set(k, S_ONE)
        for i, f in enumerate(gens):
            for g in gens[i + 1:]:
                assert check_q1(TORUS_PREQUANT, f, g).is_zero()
                sym_pairs += 1
    # (b) transformed-operator product identities at truncation 64
    for k in (1, 2):
        ident = torus_transform_identities(k, trunc=64)
        assert ident["error_a_identity"] < 1e-8, "k = %d" % k
        assert ident["error_b_identity"] < 1e-8, "k = %d" % k
    # (c) the numeric commutant is trivial
    for k in (1, 2):
        irr = torus_irreducibility(k, trunc=64)
        assert irr["commutant_dim_estimate"] == 1, "k = %d" % k
        assert irr["verdict"] == "irreducible (numeric)"
    _stamp(8, t0, 60.0,
           "bracket rule exactly zero on %d basic-set pairs (k <= 3); product "
           "identities < 1e-8 and commutant dimension 1 at truncation 64 "
           "(k in {1, 2})" % sym_pairs)


def test_criterion_9_property_battery():
    t0 = time.monotonic()
    rng = random.Random(20260815)
    flat_runs = check_poisson_identities(
        rng, 100, lambda r: random_flat(r), bracket_flat)
    sphere_runs = check_poisson_identities(
        rng, 100, lambda r: random_sphere(r), bracket_sphere)
    torus_runs = check_poisson_identities(
        rng, 100, lambda r: random_torus(r), bracket_torus)
    weyl_runs = check_weyl_associativity(rng, 100)
    rep_runs = check_sphere_representatives(rng, 50)
    assert (flat_runs, sphere_runs, torus_runs) == (100, 100, 100)
    assert weyl_runs == 100
    assert rep_runs == 50
    _stamp(9, t0, 60.0,
           "antisymmetry/Leibniz/Jacobi x100 per algebra, associativity x100, "
           "representative independence x50")
