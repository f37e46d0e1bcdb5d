"""Round-trip guarantees and error reporting for the expression grammar."""

import random
import re

import pytest

from gvh.flat import FlatElement, bracket_flat
from gvh.parse import ParseError, _coeff_str, parse_expression, print_expression
from gvh.scalars import HBAR, S_I, S_ONE, S_SPIN, Scalar
from gvh.sphere import bracket_sphere
from gvh.torus import TorusElement, bracket_torus


def _rt(text, algebra, **kw):
    """parse -> print -> parse must reproduce the element exactly."""
    elem = parse_expression(text, algebra, **kw)
    printed = print_expression(elem)
    again = parse_expression(printed, algebra, **kw)
    assert again == elem, "%r -> %r did not round-trip" % (text, printed)
    return elem, printed


# ---------------------------------------------------------------------------
# flat


def test_flat_parse_basic():
    q = FlatElement.coordinate(1, "q1")
    p = FlatElement.coordinate(1, "p1")
    assert parse_expression("q1^2*p1 + 3*q1", "flat") == q * q * p + q.scale(Scalar.from_int(3))
    assert parse_expression("2/3 * p1", "flat") == p.scale(Scalar.from_rational(2, 3))
    assert parse_expression("-q1 + 1", "flat") == FlatElement.const(1, S_ONE) - q
    assert parse_expression("i*q1", "flat") == q.scale(S_I)
    assert parse_expression("q1/2", "flat") == q.scale(Scalar.from_rational(1, 2))


def test_flat_parse_two_dof():
    e = parse_expression("q1*p2 - q2*p1", "flat", n=2)
    assert bracket_flat(e, parse_expression("q1", "flat", n=2)) == \
        parse_expression("-q2", "flat", n=2)


def test_flat_round_trips():
    for text in ("q1", "0", "5", "2/3", "q1^3*p1^2 + p1 - 7",
                 "i*q1*p1 + 3/4", "q1^2 - 2*q1*p1 + p1^2"):
        _rt(text, "flat")
    for text in ("q1*p2 + q2*p1", "q2^4 - p2^2*q1"):
        _rt(text, "flat", n=2)


def test_number_powers_fold():
    assert parse_expression("2^3", "flat") == FlatElement.const(1, Scalar.from_int(8))


def test_work_bound_admits_every_power_of_a_binomial():
    # (q1+p1)^64 forms 2·(1 + 2 + … + 64) = 4160 term products; two of
    # them and their 65 x 65 product would form 12545
    assert len(parse_expression("(q1+p1)^64", "flat").terms) == 65
    with pytest.raises(ParseError, match="at position 10"):
        parse_expression("(q1+p1)^64*(q1+p1)^64", "flat")


def test_work_bound_weighs_wide_flat_keys():
    # at n = 10,000 each product adds two 20,000-slot keys and counts 157
    # times, so this power is refused after a few steps instead of running
    # its 9,520 products
    import time
    start = time.perf_counter()
    with pytest.raises(ParseError, match="term products"):
        parse_expression("(q1+p1+q2+p2)^14", "flat", n=10000)
    assert time.perf_counter() - start < 0.5
    assert len(parse_expression("q1*p2", "flat", n=10000).terms) == 1
    # 5,945 term products: counted once each up to n = 63, twice from 64
    text = "(q1+p1)^64*(q1+p1)^20"
    assert len(parse_expression(text, "flat", n=63).terms) == 85
    with pytest.raises(ParseError, match="at position 10"):
        parse_expression(text, "flat", n=64)


def test_division_after_a_power():
    # a number is an integer and '/' the grammar's division: q1^3/2 = (q1^3)/2
    assert parse_expression("(1+i)*q1^3/2", "flat") == \
        parse_expression("(1+i)/2*q1^3", "flat")
    q = FlatElement.coordinate(1, "q1")
    assert parse_expression("q1^2/3", "flat") == \
        (q * q).scale(Scalar.from_rational(1, 3))


# ---------------------------------------------------------------------------
# sphere


def test_sphere_parse_canonicalizes():
    # the Casimir collapses to the constant s^2 on parse
    casimir = parse_expression("S1^2 + S2^2 + S3^2", "sphere")
    assert casimir == parse_expression("s^2", "sphere")
    lhs = parse_expression("S1*S2", "sphere")
    rhs = parse_expression("S2*S1", "sphere")
    assert lhs == rhs


def test_sphere_bracket_from_text():
    s1 = parse_expression("S1", "sphere")
    s2 = parse_expression("S2", "sphere")
    assert bracket_sphere(s1, s2) == parse_expression("-S3", "sphere")


def test_sphere_round_trips():
    for text in ("S1", "s*S3 + S1*S2", "S3^2", "S1^2 - S2^2",
                 "s^2*S1 - 2*S2*S3 + 5", "(S1 + i*S2)^2"):
        _rt(text, "sphere")


def test_sphere_rational_coefficient_round_trip():
    elem, printed = _rt("S1/(s+1)", "sphere")
    assert elem == parse_expression("S1", "sphere").scale(S_ONE / (S_SPIN + S_ONE))
    assert "s+1" in printed


# ---------------------------------------------------------------------------
# torus


def test_torus_parse_trig():
    sx = parse_expression("sin(2*pi*1*x)", "torus")
    assert sx == TorusElement.sin(1, 0)
    assert parse_expression("sin(2*pi*-1*x)", "torus") == sx.scale(-S_ONE)
    cy2 = parse_expression("cos(2*pi*2*y)", "torus")
    assert cy2 == TorusElement.cos(0, 2)
    assert parse_expression("cos(2*pi*-2*y)", "torus") == cy2


def test_torus_bracket_from_text():
    sx = parse_expression("sin(2*pi*1*x)", "torus")
    sy = parse_expression("sin(2*pi*1*y)", "torus")
    out = bracket_torus(sx, sy)
    # {sin 2pi x, sin 2pi y} lands on the (1,1)/(1,-1) modes
    assert not out.is_zero()
    assert all(abs(m) == 1 and abs(n) == 1 for (m, n) in out.terms)


def test_torus_round_trips():
    texts = ("sin(2*pi*1*x)", "cos(2*pi*3*y) - 2*sin(2*pi*1*x)",
             "sin(2*pi*1*x)*cos(2*pi*2*y)", "1 + cos(2*pi*1*x)^2",
             "i*sin(2*pi*2*x) + 1/3",
             "sin(2*pi*1*x)*sin(2*pi*1*y) - cos(2*pi*2*x)")
    for text in texts:
        _rt(text, "torus")
    b = Scalar.param("b")
    for text in texts:
        _rt(text, "torus", B=b)


def test_torus_magnetic_scale_mismatch():
    sx_b = parse_expression("sin(2*pi*1*x)", "torus", B=Scalar.param("b"))
    sx_h = parse_expression("sin(2*pi*1*x)", "torus")
    with pytest.raises(ValueError):
        sx_b + sx_h


# ---------------------------------------------------------------------------
# errors


def test_unknown_symbol_positions():
    with pytest.raises(ParseError) as err:
        parse_expression("q1 + q2", "flat")
    assert err.value.pos == 5
    with pytest.raises(ParseError):
        parse_expression("S4", "sphere")
    with pytest.raises(ParseError):
        parse_expression("q1", "torus")


def test_malformed_input():
    with pytest.raises(ParseError):
        parse_expression("q1 +", "flat")
    with pytest.raises(ParseError):
        parse_expression("(q1", "flat")
    with pytest.raises(ParseError):
        parse_expression("q1 q1", "flat")
    with pytest.raises(ParseError):
        parse_expression("q1 ^ p1", "flat")
    with pytest.raises(ParseError):
        parse_expression("", "flat")


def test_bad_division():
    with pytest.raises(ParseError) as err:
        parse_expression("1/0", "flat")
    assert "zero denominator" in str(err.value)
    with pytest.raises(ParseError):
        parse_expression("q1/0", "flat")
    with pytest.raises(ParseError):
        parse_expression("q1/p1", "flat")
    with pytest.raises(ParseError):
        parse_expression("S1/(s - s)", "sphere")


def test_bad_trig_arguments():
    for text in ("sin(3*pi*1*x)", "sin(2*pi*1*z)", "sin(2*pi*1/2*x)",
                 "sin(2*pi*x)", "cos(2*pi*1*x"):
        with pytest.raises(ParseError):
            parse_expression(text, "torus")


def test_unknown_algebra():
    with pytest.raises(ValueError):
        parse_expression("q1", "cylinder")


# ---------------------------------------------------------------------------
# coefficient prefixes

# the pattern the printer once matched a coefficient against
_PLAIN = re.compile(r"[0-9/]+(\*[A-Za-z][A-Za-z0-9]*(\^\d+)?)*")


def _coeff_corpus():
    half, two = Scalar.from_rational(1, 2), Scalar.from_int(2)
    scalars = [S_ONE, -S_ONE, half, -half, S_I, two * S_I, S_ONE + S_I,
               HBAR, two * HBAR ** 2 * S_SPIN, HBAR ** -1, two * HBAR ** -2,
               S_ONE / (S_SPIN + S_ONE), HBAR * S_SPIN - S_ONE,
               Scalar.from_rational(3, 7) * Scalar.param("a") ** 2 * HBAR,
               Scalar.from_rational(-5, 3) * HBAR * S_I]
    texts = [str(c) for c in scalars]
    # spellings no Scalar prints, at the edges of the pattern
    texts += ["", "/", "2*", "*hbar", "2**hbar", "2*hbar^", "2*hbar^-1",
              "hbar^-2", "2*hbar^2^3", "2*h1", "2*1h", "2*h_1", "2*é",
              "2*hbar^\u0663", "2*hbar^\u00b2", "\u0663*hbar", "2*hbar\n",
              "1/2*a^2*hbar^10*s", "2*i"]
    rng = random.Random(11)
    alphabet = "0123/*^ahbs-+()i\u0663\u00e9"
    texts += ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 9)))
              for _ in range(3000)]
    return texts


def test_coefficient_prefix_matches_the_old_pattern():
    # _coeff_str reads its coefficient through str(), so a text stands in
    plain = set()
    for text in _coeff_corpus():
        plain.add(bool(_PLAIN.fullmatch(text)))
        want = "" if text == "1" else \
            text if _PLAIN.fullmatch(text) else "(%s)" % text
        assert _coeff_str(text) == want, repr(text)
    assert plain == {True, False}

