"""Round-trip guarantees and error reporting for the expression grammar."""

import pytest

from gvh.flat import FlatElement, bracket_flat
from gvh.parse import ParseError, parse_expression, print_expression
from gvh.scalars import S_I, S_ONE, S_SPIN, Scalar
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
