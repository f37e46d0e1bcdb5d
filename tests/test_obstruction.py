"""Certificates and extension solves: frozen constants for the flat no-go
results, the sphere family, and the torus numeric identities."""

import json
import re
from fractions import Fraction

import pytest
import sympy

from gvh.flat import FlatElement, bracket_flat
from gvh.hermite import MAX_QUAD_ORDER
from gvh.matrices import spin_matrices
from gvh.obstruction import (BracketConstraint, ExtensionProblem,
                             _flat_problem, anticommutator_certificate,
                             cubic_extension_problem, extension_solve,
                             groenewold_certificate,
                             position_nonextension_certificate,
                             quadratic_extension_problem, sphere_certificate,
                             sphere_equivariance_problem,
                             TORUS_IDENTITY_TOL, torus_identity_certificate,
                             torus_irreducibility,
                             torus_irreducibility_certificate,
                             torus_transform_identities, vonneumann_rules_flat)
from gvh.poly import MultiPoly
from gvh.report import Report
from gvh.scalars import HBAR, S_I, S_ONE, Scalar
from gvh.sphere import SVARS
from gvh.subspace import WeylAmbient
from gvh.weyl import WeylElement, symmetrized, weyl_commutant, weyl_commutator

X = WeylElement.x()
P = WeylElement.p()
H2 = HBAR * HBAR
A2H2 = Scalar.param("a") * Scalar.param("a") * H2


def _frac(num, den=1):
    return Scalar.from_fraction(Fraction(num, den))


def _mono(qe, pe):
    return FlatElement.monomial(1, (qe,), (pe,), S_ONE)


# ---------------------------------------------------------------------------
# flat anticommutator obstruction


def test_anticommutator_certificate():
    cert = anticommutator_certificate()
    assert cert.name == "anticommutator"
    assert cert.verdict == "inconsistent"
    assert (cert.discrepancy - _frac(3, 4) * H2).is_zero()
    assert str(cert.steps[0]["difference"]) == "(3/4*hbar^2)*1"
    assert str(cert.steps[1]["quantum_lhs"]) == "-1/4*hbar^2"
    assert str(cert.steps[2]["quantum_lhs"]) == "-hbar^2"


def test_anticommutator_constants_rederived():
    # the two competing quantizations of q^2 p^2, normal ordered by hand
    lhs = symmetrized(X, P) * symmetrized(X, P)            # (1/4)(XP+PX)^2
    rhs = symmetrized(X * X, P * P)                        # (1/2)(X^2P^2+P^2X^2)
    assert (lhs.scalar_part() + _frac(1, 4) * H2).is_zero()
    assert (rhs.scalar_part() + H2).is_zero()
    assert lhs - rhs == WeylElement.const(_frac(3, 4) * H2)


# ---------------------------------------------------------------------------
# Groenewold identity


def test_groenewold_classical_identity():
    # (1/9){q^3, p^3} = (1/3){q^2 p, q p^2}; with {p, q} = +1 both are -q^2 p^2
    q3, p3 = _mono(3, 0), _mono(0, 3)
    q2p, qp2 = _mono(2, 1), _mono(1, 2)
    left = bracket_flat(q3, p3).scale(_frac(1, 9))
    right = bracket_flat(q2p, qp2).scale(_frac(1, 3))
    assert left == right == _mono(2, 2).scale(Scalar.from_int(-1))


def test_groenewold_certificate():
    cert = groenewold_certificate()
    assert cert.verdict == "inconsistent"
    assert (cert.discrepancy - _frac(1, 3) * H2).is_zero()
    assert str(cert.steps[1]["difference"]) == "normalized constant 2/3"
    assert str(cert.steps[2]["difference"]) == "normalized constant 1/3"
    assert str(cert.steps[3]["difference"]) == "(1/3*hbar^2)*1"


def test_groenewold_constants_rederived():
    # route both sides through the unique cubic rules and compare constants
    i_over_h = S_I * HBAR.inverse()
    via_cubes = weyl_commutator(X * X * X, P * P * P).scale(i_over_h * _frac(1, 9))
    via_mixed = weyl_commutator(symmetrized(X * X, P),
                                symmetrized(X, P * P)).scale(i_over_h * _frac(1, 3))
    assert (via_cubes.scalar_part() - _frac(2, 3) * H2).is_zero()
    assert (via_mixed.scalar_part() - _frac(1, 3) * H2).is_zero()
    assert via_cubes - via_mixed == WeylElement.const(_frac(1, 3) * H2)


# A mutant classical side: the certificates still compute the same quantum
# sides, but a premise they stand on is now false, so they may decide nothing.

@pytest.fixture
def fresh_groenewold():
    """Rebuild the cached Groenewold certificate before and after a test."""
    groenewold_certificate.cache_clear()
    yield
    groenewold_certificate.cache_clear()


def _mutate_bracket(monkeypatch, name, f, g, factor):
    """Patch gvh.obstruction's bracket `name` so that {f, g} comes out
    multiplied by `factor`, every other bracket unchanged."""
    from gvh import obstruction

    bracket = getattr(obstruction, name)

    def mutant(a, b):
        out = bracket(a, b)
        return out.scale(factor) if (a, b) == (f, g) else out

    monkeypatch.setattr(obstruction, name, mutant)


def test_false_groenewold_identity_is_undecided(monkeypatch, capsys,
                                                fresh_groenewold):
    # (1/8){q^3, p^3} - (1/3){q^2 p, q p^2} = (-1/8) q^2 p^2, not 0
    from gvh.cli import main

    _mutate_bracket(monkeypatch, "bracket_flat", _mono(3, 0), _mono(0, 3),
                    _frac(9, 8))
    cert = groenewold_certificate()
    assert cert.steps[0]["difference"] == "(-1/8)*q1^2*p1^2"
    assert cert.verdict == "undecided"
    assert position_nonextension_certificate().verdict == "undecided"
    assert main(["verify", "r2n"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# extension problems


def test_quadratic_extension_unique():
    sol = extension_solve(quadratic_extension_problem())
    assert sol.verdict == "unique"
    assert sol.parameters == 0
    assert sol.assignments[0] == X * X
    assert sol.assignments[1] == symmetrized(X, P)
    assert sol.assignments[2] == P * P


def test_cubic_extension_inconsistent():
    sol = extension_solve(cubic_extension_problem())
    assert sol.verdict == "inconsistent"
    label, residual = sol.contradiction
    assert label == "(1/9){q^3,p^3} - (1/3){q^2 p, q p^2}"
    assert (residual + _frac(1, 3) * H2).is_zero()
    assert "contradict" in sol.detail


def _quadratic_cap_problem(qp_known):
    """Knowns 1, q, p (and qp when qp_known); constraints {p, q^2},
    {q, p^2} and the target-target bracket {q^2, p^2}."""
    one = FlatElement.const(1, S_ONE)
    q = FlatElement.coordinate(1, "q1")
    p = FlatElement.coordinate(1, "p1")
    q2, qp, p2 = _mono(2, 0), _mono(1, 1), _mono(0, 2)
    knowns = [(one, WeylElement.identity()), (q, X), (p, P)]
    targets = [q2, p2]
    if qp_known:
        knowns.append((qp, symmetrized(X, P)))
    else:
        targets.append(qp)
    schedule = [BracketConstraint([(1, f, g)], "{%s, %s}" % (f, g))
                for f, g in ((p, q2), (q, p2), (q2, p2))]
    return ExtensionProblem(knowns, targets, WeylAmbient(1, 2), schedule,
                            bracket_flat)


def test_extension_bilinear_stage_over_cap_is_undecided():
    # qp is left free by the linear stage, so the family has 12 parameters
    sol = extension_solve(_quadratic_cap_problem(qp_known=False))
    assert sol.verdict == "undecided"
    assert sol.detail == "bilinear stage dimension 12 exceeds cap 6"


def test_extension_genuinely_quadratic_is_undecided():
    # [Q(q^2), Q(p^2)] is quadratic in the 6 parameters the linear stage leaves
    sol = extension_solve(_quadratic_cap_problem(qp_known=True))
    assert sol.verdict == "undecided"
    assert sol.detail == ("constraint {q1^2, p1^2} is genuinely quadratic "
                          "in the 6 parameters")


def _problem(knowns, targets, schedule=()):
    return ExtensionProblem([(k, WeylElement.identity()) for k in knowns],
                            targets, WeylAmbient(1, 3), schedule, bracket_flat)


@pytest.mark.parametrize("knowns, targets", [
    ([_mono(0, 0)], [_mono(2, 0) + _mono(0, 2)]),         # not a monomial
    ([_mono(0, 0)], [_mono(2, 0).scale(_frac(2))]),       # coefficient 2
    ([_mono(0, 0), _mono(1, 0)], [_mono(1, 0)]),          # a known repeated
    ([_mono(0, 0)], [_mono(2, 0), _mono(2, 0)]),          # a target repeated
])
def test_extension_problem_rejects_non_distinct_monomials(knowns, targets):
    with pytest.raises(ValueError, match="not a distinct monomial of coefficient 1"):
        _problem(knowns, targets)


@pytest.mark.parametrize("operand", [_mono(0, 1), _mono(1, 0).scale(_frac(2))])
def test_extension_solve_rejects_operand_neither_known_nor_target(operand):
    con = BracketConstraint([(1, operand, _mono(2, 0))])
    prob = _problem([_mono(0, 0), _mono(1, 0)], [_mono(2, 0)], [con])
    message = "constraint element %s is neither known nor target" % operand
    with pytest.raises(ValueError, match=re.escape(message)):
        extension_solve(prob)


def test_extension_solve_rejects_bracket_outside_span():
    # {p, q^3} = 3 q^2, and q^2 is neither known nor target
    one, q, p, q3 = _mono(0, 0), _mono(1, 0), _mono(0, 1), _mono(3, 0)
    prob = _problem([one, q, p], [q3], [BracketConstraint([(1, p, q3)])])
    with pytest.raises(ValueError, match=r"bracket result 3\*q1\^2 not in "
                                         r"the known\+target span"):
        extension_solve(prob)


def test_bracket_constraint_rejects_no_terms():
    with pytest.raises(ValueError, match="bracket constraint 'empty' has no terms"):
        BracketConstraint([], "empty")


def test_certificate_serialization():
    d = groenewold_certificate().to_dict()
    assert sorted(d.keys()) == ["assumptions", "discrepancy", "name",
                                "reference", "steps", "verdict"]
    assert d["discrepancy"] == "1/3*hbar^2"
    # the premise and claim flags behind the verdict are not emitted
    assert all(sorted(step) == ["classical", "difference", "quantum_lhs",
                                "quantum_rhs"] for step in d["steps"])
    again = json.loads(json.dumps(d, sort_keys=True))
    assert again == d


# ---------------------------------------------------------------------------
# closed-form rules through degree seven


def test_vonneumann_records_all_unique():
    out = vonneumann_rules_flat(5)
    assert sorted(r["degree"] for r in out["records"]) == [2, 3, 4, 5]
    for rec in out["records"]:
        assert rec["verdict"] == "unique"
        assert rec["matches_closed_form"] is True


def test_vonneumann_rules_match_symmetrization():
    rules = vonneumann_rules_flat(7)["rules"]
    for d in range(2, 8):
        assert rules[(d, 0)] == WeylElement.word((d, 0))
        assert rules[(0, d)] == WeylElement.word((0, d))
    for a in range(1, 7):
        xa = WeylElement.word((a, 0))
        pb = WeylElement.word((0, a))
        assert rules[(a, 1)] == symmetrized(xa, P)
        assert rules[(1, a)] == symmetrized(X, pb)


@pytest.mark.parametrize("e", range(3, 8))
def test_vonneumann_joint_solve_matches_one_target_solves(e):
    # each {k, t} lands in the knowns or in t, so the degree-e problem over
    # all four targets splits into the four one-target problems
    known = vonneumann_rules_flat(e - 1)["rules"]
    targets = [(e, 0), (e - 1, 1), (1, e - 1), (0, e)]
    brackets_with = [(1, 0), (0, 1), (1, 1)]
    joint = extension_solve(_flat_problem(known, targets, brackets_with))
    assert joint.verdict == "unique"
    for i, target in enumerate(targets):
        alone = extension_solve(_flat_problem(known, [target], brackets_with))
        assert alone.verdict == "unique"
        assert joint.assignments[i] == alone.assignments[0]


def test_vonneumann_rules_compute_each_commutator_once_per_stage(monkeypatch):
    # one problem per degree, one shared stage-1 basis and an (i/ħ)-commutator
    # memo per stage; work repeated per target or per constraint shows here
    from gvh import obstruction

    counts = {"commutator": 0, "solve": 0, "solve_affine": 0}
    commutator, solve = WeylElement.ih_commutator, obstruction.extension_solve
    solve_affine = obstruction.solve_affine

    def counting_commutator(self, other):
        counts["commutator"] += 1
        return commutator(self, other)

    def counting_solve(prob):
        counts["solve"] += 1
        return solve(prob)

    def counting_solve_affine(*args):
        counts["solve_affine"] += 1
        return solve_affine(*args)

    monkeypatch.setattr(WeylElement, "ih_commutator", counting_commutator)
    monkeypatch.setattr(obstruction, "extension_solve", counting_solve)
    monkeypatch.setattr(obstruction, "solve_affine", counting_solve_affine)
    vonneumann_rules_flat(6)
    # one affine solve per stage: two for the quadratics, one per degree 3..6
    assert counts == {"commutator": 282, "solve": 5, "solve_affine": 6}


def test_vonneumann_rules_form_few_rational_functions(monkeypatch):
    # the (i/ħ)-brackets of Weyl words are polynomials in ħ, so the stages'
    # rows hold polynomials, and their pivots are constants: a quotient by a
    # constant scales, so no reduction by a gcd is left here (a ratio in ħ
    # formed per bracket coefficient would make over a thousand)
    from gvh import scalars

    calls = []
    reduce = scalars._reduce

    def counting(num, den):
        calls.append(den)
        return reduce(num, den)

    monkeypatch.setattr(scalars, "_reduce", counting)
    vonneumann_rules_flat(6)
    assert calls == []


def test_verify_r2n_builds_the_groenewold_certificate_once(monkeypatch, capsys):
    # verify r2n asks for it directly and through the position certificate
    from gvh import obstruction
    from gvh.cli import main

    degrees = []
    rules = obstruction.vonneumann_rules_flat

    def counting(degree):
        degrees.append(degree)
        return rules(degree)

    groenewold_certificate.cache_clear()
    monkeypatch.setattr(obstruction, "vonneumann_rules_flat", counting)
    assert main(["verify", "r2n"]) == 0
    capsys.readouterr()
    assert degrees == [3]


# ---------------------------------------------------------------------------
# sphere family


def _counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper; returns the list of its calls."""
    calls = []
    fn = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_sphere_certificate_work(monkeypatch):
    # 14 (i/ħ)-commutators make 28 matrix products, and each of Q1², Q2² and
    # the three Q_iQ_k + Q_kQ_i is made once: 2 + 6; a ratio of monomials
    # such as i/ħ scales a polynomial without a gcd
    from gvh import scalars
    from gvh.matrices import ExactMatrix

    products = _counting(monkeypatch, ExactMatrix, "_product")
    gcds = _counting(monkeypatch, scalars, "poly_gcd")
    sphere_certificate(3)
    assert len(products) == 22
    assert len(gcds) <= 2


def test_torus_q1_scales_by_i_over_hbar_without_a_gcd(monkeypatch):
    from gvh import scalars
    from gvh.obstruction import torus_q1_certificate
    from gvh.sparse import TermMap

    inside, gcd_inside = [], []
    gcd, ih_commutator = scalars.poly_gcd, TermMap.ih_commutator

    def counting_gcd(f, g):
        if inside:
            gcd_inside.append((f, g))
        return gcd(f, g)

    def marking(self, other):
        inside.append(self)
        try:
            return ih_commutator(self, other)
        finally:
            inside.pop()

    monkeypatch.setattr(scalars, "poly_gcd", counting_gcd)
    monkeypatch.setattr(TermMap, "ih_commutator", marking)
    assert torus_q1_certificate(S_ONE).verdict == "consistent"
    assert gcd_inside == []


def test_sphere_trivial_spin_consistent():
    cert = sphere_certificate(0)
    assert cert.verdict == "consistent"
    assert cert.discrepancy is None
    assert cert.assumptions == []
    assert str(cert.steps[0]["quantum_rhs"]) == "1/3*s^2"


def test_sphere_half_spin_degenerate():
    cert = sphere_certificate(Fraction(1, 2))
    assert cert.verdict == "inconsistent"
    assert cert.discrepancy == "s^2 = 0 vs s > 0"
    assert "j(j+1) - 3/4 = 0" in cert.steps[2]["classical"]
    assert cert.assumptions == ["a != 0 and c != 0 (nontriviality input)",
                                "s > 0 (sphere radius)"]


SPHERE_TABLE = [
    # j, s^2 from identity one, s^2 from identity two (units of hbar^2 a^2)
    (1, "5/4*hbar^2*a^2", "-1/4*hbar^2*a^2"),
    (Fraction(3, 2), "3*hbar^2*a^2", "3/2*hbar^2*a^2"),
    (2, "21/4*hbar^2*a^2", "15/4*hbar^2*a^2"),
    (Fraction(5, 2), "8*hbar^2*a^2", "13/2*hbar^2*a^2"),
    (3, "45/4*hbar^2*a^2", "39/4*hbar^2*a^2"),
    (10, "437/4*hbar^2*a^2", "431/4*hbar^2*a^2"),
]


@pytest.mark.parametrize("j,s2_one,s2_two", SPHERE_TABLE)
def test_sphere_certificate_table(j, s2_one, s2_two):
    cert = sphere_certificate(j)
    assert cert.verdict == "inconsistent"
    # the two quadratic identities pin incompatible values of s^2 ...
    assert cert.steps[1]["difference"].startswith("s^2 = %s (target" % s2_one)
    assert cert.steps[2]["difference"].startswith("s^2 = %s (target" % s2_two)
    # ... whose gap is (3/2) hbar^2 a^2 independently of j
    assert (cert.discrepancy - _frac(3, 2) * A2H2).is_zero()


def _sympy_spin_triple(j, hbar):
    """The standard Hermitian triple in the basis m = j, j-1, ..., -j, from
    <m+1|J+|m> = hbar sqrt(j(j+1) - m(m+1))."""
    dim = int(2 * j) + 1
    jp = sympy.zeros(dim, dim)
    for r in range(1, dim):
        m = j - r
        jp[r - 1, r] = hbar * sympy.sqrt(j * (j + 1) - m * (m + 1))
    jz = sympy.diag(*[hbar * (j - r) for r in range(dim)])
    return (jp + jp.T) / 2, (jp - jp.T) / (2 * sympy.I), jz


def _sympy_ratio(m, base):
    """lam with m = lam * base, checked entry by entry."""
    k = next(k for k in range(len(base)) if sympy.expand(base[k]) != 0)
    lam = sympy.simplify(m[k] / base[k])
    assert (m - lam * base).applyfunc(sympy.expand).is_zero_matrix
    return lam


@pytest.mark.parametrize("j", [1, Fraction(3, 2), 2])
def test_sphere_gap_rederived_by_sympy(j):
    """Independent oracle: no gvh arithmetic, only sympy on the Hermitian
    spin matrices, whose entries carry square roots."""
    a, c, h = sympy.symbols("a c hbar")
    jr = sympy.Rational(j.numerator, j.denominator)
    herm = _sympy_spin_triple(jr, h)
    dim = herm[0].shape[0]
    # gvh's rational triple is D Q D^-1 with D = diag(w_r^(-1/2))
    w = [sympy.Integer(1)]
    for r in range(1, dim):
        w.append(w[-1] * r * (dim - r))
    d = sympy.diag(*[1 / sympy.sqrt(x) for x in w])
    names = {"i": sympy.I, "hbar": h, "a": a}
    for q_gvh, q in zip(spin_matrices(j), herm):
        got = sympy.Matrix(dim, dim, lambda r, k: sympy.sympify(
            str(q_gvh.entry(r, k)).replace("^", "**"), locals=names))
        assert (got - d * q * d.inv()).applyfunc(sympy.simplify).is_zero_matrix

    # replay the certificate's two identities with Q(S_i^2) = a Q_i^2 + c I
    # and Q(S_i S_k) = (a/2)(Q_i Q_k + Q_k Q_i)
    def sq(i):
        return a * herm[i] * herm[i] + c * sympy.eye(dim)

    def sym(i, k):
        return a / 2 * (herm[i] * herm[k] + herm[k] * herm[i])

    def ih(x, y):
        return sympy.I / h * (x * y - y * x)

    m1 = ih(sq(0), sym(0, 1)) - ih(sq(1), sym(0, 1)) - ih(sym(1, 2), sym(2, 0))
    s2_one = -_sympy_ratio(m1, herm[2])
    m2 = ih(sq(1), ih(sym(0, 1), sym(0, 2))) - \
        sympy.Rational(3, 4) * ih(sq(0), ih(sq(0), sym(1, 2)))
    s2_two = _sympy_ratio(m2, sym(1, 2)) / 2
    jj = jr * (jr + 1)
    assert sympy.simplify(s2_one - a**2 * h**2 * (jj - sympy.Rational(3, 4))) == 0
    assert sympy.simplify(s2_two - a**2 * h**2 * (jj - sympy.Rational(9, 4))) == 0
    gap = sympy.simplify(s2_one - s2_two)
    assert sympy.simplify(gap - sympy.Rational(3, 2) * a**2 * h**2) == 0
    reported = sympy.sympify(str(sphere_certificate(j).discrepancy).replace("^", "**"),
                             locals=names)
    assert sympy.simplify(reported - gap) == 0


@pytest.mark.parametrize("twoj", range(1, 21))
def test_sphere_s2_values_match_the_paper(twoj):
    """Gotay-Grundling-Hurst: identity one forces s^2 = a^2 hbar^2 (j(j+1) -
    3/4), identity two s^2 = a^2 hbar^2 (j(j+1) - 9/4), a gap of (3/2) a^2
    hbar^2; the expected values come from Fractions, read back by sympy."""
    a, h = sympy.symbols("a hbar")
    j = Fraction(twoj, 2)

    def value(text):
        return sympy.sympify(text.replace("^", "**"), locals={"a": a, "hbar": h})

    def paper(shift):
        c = j * (j + 1) - shift
        return a**2 * h**2 * sympy.Rational(c.numerator, c.denominator)

    def derived(step):
        return value(re.match(r"s\^2 = (\S+) \(target",
                              cert.steps[step]["difference"]).group(1))

    cert = sphere_certificate(j)
    assert cert.verdict == "inconsistent"
    assert sympy.expand(derived(1) - paper(Fraction(3, 4))) == 0
    if twoj > 1:
        assert sympy.expand(derived(2) - paper(Fraction(9, 4))) == 0
        gap = value(str(cert.discrepancy))
        assert sympy.expand(gap - sympy.Rational(3, 2) * a**2 * h**2) == 0


@pytest.mark.parametrize("j", [Fraction(1, 2), 1, 10])
def test_false_sphere_identity_is_undecided(monkeypatch, j):
    # {S1^2-S2^2, S1 S2} + {S2 S3, S3 S1} is not -(S.S) S3
    s = [MultiPoly.var(SVARS, v) for v in SVARS]
    _mutate_bracket(monkeypatch, "bracket_raw", s[1] * s[2], s[2] * s[0],
                    Scalar.from_int(-1))
    cert = sphere_certificate(j)
    assert "(exact: False; canonical class -s^2 S3: False)" in \
        cert.steps[1]["classical"]
    assert cert.verdict == "undecided"


def test_sphere_equivariance_family():
    sol = extension_solve(sphere_equivariance_problem(1))
    assert sol.verdict == "family"
    assert sol.parameters == 2


# ---------------------------------------------------------------------------
# position-representation restriction


def test_position_nonextension_certificate():
    cert = position_nonextension_certificate()
    assert cert.name == "position_nonextension"
    assert cert.verdict == "inconsistent"
    assert (cert.discrepancy - _frac(1, 3) * H2).is_zero()
    assert cert.steps[0]["quantum_lhs"] == "dimension 1"
    assert cert.steps[0]["difference"] == "trivial: True"
    assert cert.steps[1]["quantum_rhs"] == "forces T = 0"
    assert cert.steps[2]["quantum_lhs"] == "chained certificate: groenewold"


def test_position_nontrivial_commutant_is_undecided(monkeypatch):
    # a commutant of dimension 2 (here that of X within span{1, X}) leaves
    # T in Q(p^2) = P^2 + T unpinned, whatever the cubic contradiction says
    from gvh import obstruction

    monkeypatch.setattr(obstruction, "weyl_commutant",
                        lambda gens, words: weyl_commutant(gens[:1], [(0, 0), (1, 0)]))
    cert = position_nonextension_certificate()
    assert cert.steps[0]["quantum_lhs"] == "dimension 2"
    assert cert.verdict == "undecided"


# ---------------------------------------------------------------------------
# torus numeric identities (k = 1 here; k = 2 is exercised by the
# acceptance suite, which owns the heavier runs)


def test_torus_transform_identities():
    out = torus_transform_identities(1)
    assert out["k"] == 1 and out["trunc"] == 64
    assert out["interior"] == 32 and out["quad_order"] == 256
    assert out["hbar"] == pytest.approx(1.0 / (2.0 * 3.141592653589793))
    # measured ~1.6e-12 / 4.3e-14; the contract bound is 1e-8
    assert out["error_a_identity"] < 1e-8
    assert out["error_b_identity"] < 1e-8


def test_torus_irreducibility():
    out = torus_irreducibility(1)
    assert out["commutant_dim_estimate"] == 1
    assert out["verdict"] == "irreducible (numeric)"
    tail = out["singular_tail"]
    assert tail[-1] < out["tol"] < tail[-2]
    assert out["singular_gap"] > 1e6


def test_torus_rejects_bad_inputs():
    with pytest.raises(ValueError):
        torus_transform_identities(0)
    with pytest.raises(ValueError):
        torus_transform_identities(1, trunc=2)
    with pytest.raises(ValueError):
        torus_irreducibility(0)


# the verdict rules on synthetic measurements, without any numerics

def test_torus_identity_error_above_tolerance_is_inconsistent():
    ident = {"error_a_identity": 1e-12, "error_b_identity": 2 * TORUS_IDENTITY_TOL}
    cert = torus_identity_certificate(ident)
    assert cert.verdict == "inconsistent"
    assert cert.discrepancy == "identity error above 1e-08"
    assert [s["difference"] for s in cert.steps] == [1e-12, 2e-8]
    ident["error_b_identity"] = TORUS_IDENTITY_TOL / 2
    cert = torus_identity_certificate(ident)
    assert (cert.verdict, cert.discrepancy) == ("consistent", None)


def test_torus_kernel_dimension_two_is_undecided():
    irr = {"commutant_dim_estimate": 2, "singular_tail": [0.5, 1e-9, 1e-12],
           "verdict": "not established (kernel dim 2)"}
    cert = torus_irreducibility_certificate(irr)
    assert cert.verdict == "undecided"
    assert cert.discrepancy == "not established (kernel dim 2)"
    assert cert.steps[0]["quantum_lhs"] == "kernel dimension 2"
    assert cert.steps[0]["difference"] == 1e-9
    rep = Report()
    rep.add_certificate(cert, "consistent")
    assert rep.exit_code() == 2


@pytest.mark.parametrize("tail", [[], [1e-13]])
def test_torus_short_singular_tail_has_no_difference(tail):
    irr = {"commutant_dim_estimate": 1, "singular_tail": tail,
           "verdict": "irreducible (numeric)"}
    cert = torus_irreducibility_certificate(irr)
    assert cert.steps[0]["difference"] is None
    assert (cert.verdict, cert.discrepancy) == ("consistent", None)


def _forbid_matrices(monkeypatch):
    """Make any Hermite-matrix build fail, so a missing bound check shows up
    as a test failure instead of a huge allocation."""
    def refuse(*args, **kwargs):
        raise AssertionError("Hermite matrices built before the memory check")
    monkeypatch.setattr("gvh.qmaps.torus_transformed_ops", refuse)


def test_torus_quadrature_bound_checked_on_entry(monkeypatch):
    _forbid_matrices(monkeypatch)
    # order 4N = 400000 and order 10**7, both far above MAX_QUAD_ORDER
    with pytest.raises(ValueError, match="Gauss-Hermite rule exceeds 740"):
        torus_transform_identities(1, trunc=100000)
    with pytest.raises(ValueError, match="Gauss-Hermite rule exceeds 740"):
        torus_transform_identities(1, trunc=64, quad_order=10 ** 7)
    with pytest.raises(ValueError, match="Gauss-Hermite rule exceeds 740"):
        torus_irreducibility(1, trunc=100000)


def test_torus_commutant_stack_bound_checked_on_entry(monkeypatch):
    _forbid_matrices(monkeypatch)
    # quadrature order MAX_QUAD_ORDER passes; the larger parity sector of the
    # commutant stack, 8·1500⁴ bytes (about 40 TB), does not
    with pytest.raises(ValueError, match="commutant stack.*physical memory"):
        torus_irreducibility(1, trunc=3000, quad_order=MAX_QUAD_ORDER)
