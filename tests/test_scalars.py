import math
import random
from fractions import Fraction

import pytest

from gvh import scalars
from gvh.cli import main
from gvh.scalars import (HBAR, I_OVER_HBAR, NPARAMS, PARAMS, PP_ONE, S_I,
                         S_ONE, S_SPIN, S_ZERO, GaussRational, ParamPoly,
                         Scalar, _prs_gcd, poly_divexact, poly_gcd)
from gvh.sparse import monoid_product

RNG = random.Random(0)
NTRIALS = 100


def _rand_scalar(rng):
    """Random rational function in hbar and s with Gaussian-rational coeffs."""
    def poly(rng, nonzero=False):
        out = S_ZERO
        for _ in range(rng.randint(1, 2)):
            c = Scalar.from_fraction(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
            if rng.random() < 0.4:
                c = c + S_I * rng.randint(-2, 2)
            out = out + c * HBAR ** rng.randint(0, 1) * S_SPIN ** rng.randint(0, 1)
        if nonzero and out.is_zero():
            return S_ONE
        return out
    return poly(rng) / poly(rng, nonzero=True)


def test_gauss_rational_field():
    a = GaussRational(Fraction(2, 3), Fraction(-1, 2))
    assert a * a.inverse() == GaussRational(1)
    assert a.conj().conj() == a
    # i^2 = -1
    i = GaussRational(0, 1)
    assert i * i == GaussRational(-1)


class _PairRef:
    """Reference Q(i) element: the former Fraction-pair GaussRational."""

    def __init__(self, re, im):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, o):
        return _PairRef(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return _PairRef(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return _PairRef(self.re * o.re - self.im * o.im,
                        self.re * o.im + self.im * o.re)

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        return _PairRef(self.re / n, -self.im / n)

    def conj(self):
        return _PairRef(self.re, -self.im)

    def pair(self):
        return (self.re, self.im)

    def hash(self):
        return hash((self.re, self.im))

    def repr(self):
        return "GaussRational(%r, %r)" % (self.re, self.im)

    def str(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return "%s*i" % self.im
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        istr = "i" if mag == 1 else "%s*i" % mag
        return "%s%s%s" % (self.re, sign, istr)


def _rand_part(rng):
    kind = rng.random()
    if kind < 0.2:
        return Fraction(0)
    if kind < 0.3:
        return Fraction(rng.choice((-1, 1)))
    return Fraction(rng.randint(-40, 40), rng.randint(1, 12))


def _check_gauss(g, ref):
    assert (g.re, g.im) == ref.pair()
    assert g.d > 0 and math.gcd(g.a, g.b, g.d) == 1
    assert hash(g) == ref.hash()
    assert str(g) == ref.str()
    assert repr(g) == ref.repr()


def test_gauss_rational_matches_fraction_pair_reference():
    rng = random.Random(7)
    vals = []
    for _ in range(300):
        re, im = _rand_part(rng), _rand_part(rng)
        vals.append((GaussRational(re, im), _PairRef(re, im)))
    for g, ref in vals:
        _check_gauss(g, ref)
        _check_gauss(-g, _PairRef(-ref.re, -ref.im))
        _check_gauss(g.conj(), ref.conj())
    for (g, gr), (h, hr) in zip(vals, vals[1:] + vals[:1]):
        _check_gauss(g + h, gr + hr)
        _check_gauss(g - h, gr - hr)
        _check_gauss(g * h, gr * hr)
        assert (g == h) == (gr.pair() == hr.pair())
        assert g == GaussRational(*gr.pair())
        if hr.pair() != (0, 0):
            _check_gauss(h.inverse(), hr.inverse())
            _check_gauss(g / h, gr * hr.inverse())
        else:
            with pytest.raises(ZeroDivisionError):
                h.inverse()
    # equal values built along different paths share one canonical form
    third = GaussRational(Fraction(1, 3))
    assert third + third + third == GaussRational(1)
    assert (GaussRational(Fraction(1, 6), Fraction(1, 6))
            + GaussRational(Fraction(1, 6), Fraction(-1, 6))) == third


def _monomial(exp, coef=1):
    """coef times the monomial whose leading exponents are exp, the
    remaining parameters at exponent 0."""
    return ParamPoly({tuple(exp) + (0,) * (NPARAMS - len(exp)): GaussRational(coef)})


def _rand_poly(rng, nterms):
    out = ParamPoly({})
    for _ in range(nterms):
        exp = [rng.randint(0, 3) for _ in PARAMS[:3]]
        coef = GaussRational(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                             rng.choice((0, 0, 1, -2)))
        out = out + _monomial(exp, 1) * ParamPoly.const(coef)
    return out


def test_monomial_gcd_matches_prs():
    rng = random.Random(11)
    cases = [
        # monomial over a multi-term polynomial, and the reverse
        (_monomial((2, 1, 0), Fraction(3, 2)),
         _monomial((1, 1, 0)) + _monomial((2, 2, 0), 5)),
        (_monomial((0, 0, 0), 7),
         _monomial((1, 0, 0)) + _monomial((0, 1, 0))),
        (_monomial((0, 0, 3), -1),
         _monomial((0, 0, 1)) + _monomial((1, 0, 0))),
    ]
    for _ in range(40):
        shift = [rng.randint(0, 2) for _ in range(3)]
        mono = _monomial([rng.randint(0, 3) for _ in range(3)],
                         rng.randint(1, 4))
        other = _rand_poly(rng, rng.randint(2, 4)) * _monomial(shift)
        if len(other.terms) > 1:
            cases.append((mono, other))
    for mono, other in cases:
        assert len(mono.terms) == 1 and len(other.terms) > 1
        want = _prs_gcd(mono, other)
        assert poly_gcd(mono, other) == want
        assert poly_gcd(other, mono) == _prs_gcd(other, mono) == want
        _, lc = want.leading()
        assert lc == GaussRational(1) and len(want.terms) == 1


def test_monomial_divexact():
    rng = random.Random(13)
    for _ in range(40):
        q = _rand_poly(rng, rng.randint(1, 4))
        if q.is_zero():
            continue
        exp = [rng.randint(0, 2) for _ in range(3)] + [0] * (NPARAMS - 3)
        d = _monomial(exp, Fraction(rng.randint(1, 5), rng.randint(1, 5)))
        assert poly_divexact(q * d, d) == q
        if min(e[0] for e in (q * d).terms) == exp[0]:
            # one more power of hbar than some term carries
            exp[0] += 1
            assert poly_divexact(q * d, _monomial(exp)) is None


def test_verify_runs_never_reach_the_prs(monkeypatch, capsys):
    """verify r2n and verify sphere reduce only by constant or monomial gcds."""
    calls = []
    prs = scalars._prs_gcd

    def counted(f, g):
        calls.append((f, g))
        return prs(f, g)

    monkeypatch.setattr(scalars, "_prs_gcd", counted)
    # the counter sees a genuine two-term reduction
    assert (HBAR * HBAR - S_SPIN * S_SPIN) / (HBAR - S_SPIN) == HBAR + S_SPIN
    assert calls
    calls.clear()
    assert main(["verify", "r2n"]) == 0
    assert main(["verify", "sphere", "--j", "3"]) == 0
    capsys.readouterr()
    assert calls == []


def test_constants():
    assert (S_I * S_I + S_ONE).is_zero()
    assert str(HBAR) == "hbar"
    assert str(S_SPIN) == "s"
    assert S_ZERO.is_zero() and S_ONE.is_one()


def test_from_rational_and_fraction():
    assert Scalar.from_rational(3, 4) == Scalar.from_fraction(Fraction(3, 4))
    assert Scalar.from_rational(5) == Scalar.from_int(5)
    three_quarters = Scalar.from_rational(3, 4)
    assert (three_quarters.num.terms, three_quarters.den) == \
        ({(0,) * NPARAMS: GaussRational(Fraction(3, 4))}, PP_ONE)


def test_field_axioms_random():
    for _ in range(NTRIALS):
        a, b, c = _rand_scalar(RNG), _rand_scalar(RNG), _rand_scalar(RNG)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        assert a - a == S_ZERO
        if not a.is_zero():
            assert a * a.inverse() == S_ONE
            assert (S_ONE / a) * a == S_ONE


def test_conjugation_random():
    for _ in range(NTRIALS):
        a, b = _rand_scalar(RNG), _rand_scalar(RNG)
        assert a.conj().conj() == a
        assert (a * b).conj() == a.conj() * b.conj()
        assert (a + b).conj() == a.conj() + b.conj()
    assert S_I.conj() == -S_I
    assert HBAR.conj() == HBAR


def test_rational_function_reduction():
    # (hbar^2 - s^2)/(hbar - s) reduces to hbar + s
    num = HBAR * HBAR - S_SPIN * S_SPIN
    den = HBAR - S_SPIN
    assert num / den == HBAR + S_SPIN
    assert str(num / den) in ("hbar+s", "s+hbar")


def test_substitute_and_evalf():
    sympy = pytest.importorskip("sympy")
    expr = (HBAR ** 2 + S_I * S_SPIN) / (S_ONE + HBAR)
    hb, s = sympy.symbols("hbar s")
    names = {"hbar": hb, "s": s, "i": sympy.I}
    at_two = sympy.sympify(str(expr).replace("^", "**"), locals=names).subs(hb, 2)
    assert sympy.simplify(at_two - (4 + sympy.I * s) / 3) == 0
    val = expr.evalf({"hbar": 2.0, "s": 1.0})
    assert abs(val - (4.0 + 1.0j) / 3.0) < 1e-14


def test_evalf_matches_sympy():
    sympy = pytest.importorskip("sympy")
    hb, s = sympy.symbols("hbar s", positive=True)
    pairs = [
        (HBAR ** 3 / (S_ONE + S_SPIN), hb ** 3 / (1 + s)),
        ((S_ONE - S_I * HBAR) * S_SPIN, (1 - sympy.I * hb) * s),
        (Scalar.from_rational(2, 7) * HBAR - S_SPIN ** 2, sympy.Rational(2, 7) * hb - s ** 2),
    ]
    for ours, ref in pairs:
        got = ours.evalf({"hbar": 0.37, "s": 2.25})
        want = complex(ref.subs({hb: sympy.Rational(37, 100), s: sympy.Rational(9, 4)}))
        assert abs(got - want) < 1e-12


def test_pi_stays_formal():
    """pi is a formal parameter: pi^2 is not a rational number."""
    pi = Scalar.param("pi")
    assert not (pi * pi).num.is_const()
    assert abs((pi * pi).evalf({"pi": math.pi}) - math.pi ** 2) < 1e-12


def test_division_errors():
    with pytest.raises(ZeroDivisionError):
        S_ONE / S_ZERO
    with pytest.raises(ZeroDivisionError):
        (S_ONE / (HBAR - HBAR))
    # denominator vanishing only at the substitution point
    with pytest.raises(ZeroDivisionError):
        (S_ONE / HBAR).evalf({"hbar": 0.0})


def test_power_and_negative_power():
    a = (HBAR + S_ONE)
    assert a ** 0 == S_ONE
    assert a ** 3 == a * a * a
    assert a ** -2 == S_ONE / (a * a)


def test_param_poly_degree():
    p = ParamPoly.var("hbar") * ParamPoly.var("s") + ParamPoly.from_int(1)
    assert p.degree_in(0) == 1


def test_power_starts_from_the_base(monkeypatch):
    """x ** n costs n - 1 products: x ** 1 is x itself."""
    a = HBAR + S_ONE
    cube = a * a * a
    calls = []
    real = Scalar.__mul__
    monkeypatch.setattr(Scalar, "__mul__",
                        lambda x, y: calls.append(y) or real(x, y))
    assert a ** 1 is a and not calls
    assert a ** 3 == cube and len(calls) == 2


def _fast_path_operands(rng):
    """Scalars with the unit denominator (plain polynomials, and quotients by
    an integer, which reduce to one), with other denominators, ratios of two
    monomials (i/ħ, s/ħ², (2+3i)/(5ħ), i, a Gaussian rational), and zero."""
    def poly():
        out = S_ZERO
        for _ in range(rng.randint(1, 3)):
            c = Scalar.from_fraction(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            out = out + c * HBAR ** rng.randint(0, 2) * S_SPIN ** rng.randint(0, 1)
        return out
    unit = [poly() for _ in range(6)] + [HBAR + S_ONE]
    by_int = [p / Scalar.from_int(k) for p, k in zip(unit, (2, 3, -6))]
    by_int.append(Scalar(ParamPoly.from_int(4) * HBAR.num, ParamPoly.from_int(4)))
    other = [S_ONE / (HBAR + S_ONE), (HBAR + S_SPIN) / (S_ONE - HBAR),
             _rand_scalar(rng), _rand_scalar(rng)]
    monomial = [I_OVER_HBAR, S_SPIN / (HBAR * HBAR),
                Scalar(ParamPoly.const(GaussRational(2, 3)),
                       ParamPoly.from_int(5) * HBAR.num),
                S_I, Scalar.from_gauss(GaussRational(Fraction(3, 4), Fraction(-1, 2)))]
    return unit + by_int + other + monomial + [S_ZERO, HBAR - HBAR]


def _same(got, want):
    assert list(got.num.terms.items()) == list(want.num.terms.items())
    assert list(got.den.terms.items()) == list(want.den.terms.items())
    assert str(got) == str(want)
    if got.den == PP_ONE:
        assert got.den is PP_ONE


def test_scalar_fast_paths_match_the_general_formula():
    """Sums and products of unit-denominator Scalars, and products by an
    int, skip the reduction; each must give the general formula's canonical
    form with the same term order, and a unit denominator is always PP_ONE."""
    operands = _fast_path_operands(random.Random(7))
    for a in operands:
        assert a.den is PP_ONE or a.den != PP_ONE
        for b in operands + [0, 1, -1, 7, -7]:
            rb = Scalar.from_int(b) if isinstance(b, int) else b
            _same(a * b, Scalar(a.num * rb.num, a.den * rb.den))
            # int * Scalar is Scalar.__rmul__, the product with a on the left
            left, right = (a, rb) if isinstance(b, int) else (rb, a)
            _same(b * a, Scalar(left.num * right.num, left.den * right.den))
            _same(a + b, Scalar(a.num * rb.den + rb.num * a.den, a.den * rb.den))
            _same(a - b, Scalar(a.num * rb.den + (-rb.num) * a.den, a.den * rb.den))


def test_quotients_by_monomial_ratios_match_the_general_formula():
    """A quotient by a ratio of two monomials (a nonzero constant among them)
    multiplies by its inverse; it must give the general quotient's canonical
    form with the same term order."""
    operands = _fast_path_operands(random.Random(7))
    divisors = [c for c in operands + [S_ONE, Scalar.from_int(-7),
                                       Scalar.from_rational(2, 9)]
                if len(c.num.terms) == 1 and len(c.den.terms) == 1]
    assert len([c for c in divisors if c.num.is_const() and c.den.is_const()]) >= 5
    for a in operands:
        for c in divisors:
            _same(a / c, Scalar(a.num * c.den, a.den * c.num))


def test_one_term_polynomial_products_match_the_monoid_product():
    """ParamPoly's product shifts and scales by a one-term factor; it must
    equal monoid_product term for term, in the same order."""
    rng = random.Random(5)
    polys = [_rand_poly(rng, rng.randint(0, 4)) for _ in range(30)]
    polys += [_monomial((0,) * NPARAMS, 1), _monomial((0,) * NPARAMS, -3),
              _monomial((1, 0, 2), Fraction(2, 5))]
    for p in polys:
        for q in polys:
            got, want = p * q, monoid_product(p, q)
            assert list(got.terms.items()) == list(want.terms.items())
