"""The expression grammar of the three classical algebras.

Grammar
    expr   := ['-'] term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ('^' uint)?          (uint at most MAX_EXPONENT)
    atom   := number | symbol | 'sin(' inner ')' | 'cos(' inner ')' | '(' expr ')'

Flat symbols are q<i> and p<i>; sphere symbols S1, S2, S3 and the radius s;
torus atoms are sin/cos of '2*pi*' int '*' ('x'|'y').  A number is an
unsigned integer; a fraction such as 1/3 is a division.  Division is only by
nonzero constants (it exists so printed rational coefficients like
(1)/(s+1) round-trip), so q1^3/2 is (q1^3)/2.  Parsed sphere
expressions are reduced to their normal form (`sphere`); torus trig input
is normalized immediately to the exponential Fourier basis.

Each algebra prints its own elements in this grammar: str() of a
`MultiPoly`, `SphereElement` (its harmonic form) or `TorusElement` parses
back to the same element when its coefficients use only the symbols above.
`print_expression` is the reports' entry point to that text.
"""

from __future__ import annotations

import re

from .flat import FlatElement, flat_vars
from .poly import MultiPoly
from .scalars import Scalar, S_I, S_ONE, S_SPIN, S_ZERO
from .sphere import SVARS, SphereElement
from .torus import TorusElement


# Largest exponent after '^'; the parser multiplies once per unit of it.
MAX_EXPONENT = 64
# Most term products one parse may form, summed as len(a.terms)·len(b.terms)
# over every '*' and every step of a '^': nesting multiplies the work that
# MAX_EXPONENT bounds for one power.  A product of w-slot keys counts
# 1 + w // 128 times, as adding them costs O(w): flat keys have 2n slots.
MAX_PRODUCT_WORK = 10_000


class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|([-+*/^()]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError("unexpected character %r" % stripped[0],
                             len(text) - len(stripped))
        if m.group(1) is not None:
            tokens.append(("num", m.group(1), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Algebra:
    """One classical algebra for the parser: `const(c)` builds a constant
    element, and `symbols(name, parser)` the element a name stands for, or
    None when the algebra has no such symbol."""

    def __init__(self, label, const, symbols):
        self.label = label
        self.const = const
        self._symbols = symbols

    def symbol(self, name, parser, pos):
        if name == "i":
            return self.const(S_I)
        out = self._symbols(name, parser)
        if out is None:
            raise ParseError("unknown symbol %r for %s" % (name, self.label), pos)
        return out

    def constant_value(self, elem):
        """The element's Scalar value if it is a constant, else None: every
        key of a constant is the key of const(1)."""
        (unit,) = self.const(S_ONE).terms
        if all(k == unit for k in elem.terms):
            return elem.terms.get(unit, S_ZERO)
        return None


class _Parser:
    def __init__(self, tokens, algebra):
        self.tokens = tokens
        self.i = 0
        self.algebra = algebra
        self.work = 0
        (unit,) = algebra.const(S_ONE).terms
        self.key_cost = 1 + len(unit) // 128

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError("expected %r, found %r" % (op, val or "end of input"), pos)

    def product(self, a, b, pos):
        """a * b, refused at pos if it would take the parse past
        MAX_PRODUCT_WORK term products, each weighted by its key width."""
        self.work += len(a.terms) * len(b.terms) * self.key_cost
        if self.work > MAX_PRODUCT_WORK:
            raise ParseError("expression needs more than %d term products"
                             % MAX_PRODUCT_WORK, pos)
        return a * b

    def parse(self):
        out = self.expr()
        kind, val, pos = self.peek()
        if kind != "eof":
            raise ParseError("unexpected trailing %r" % val, pos)
        return out

    def expr(self):
        kind, val, _ = self.peek()
        negate = kind == "op" and val == "-"
        if negate:
            self.next()
        out = self.term()
        if negate:
            out = out.scale(-S_ONE)
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                out = out + rhs if val == "+" else out - rhs
            else:
                return out

    def term(self):
        out = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                _, _, pos = self.next()
                rhs = self.factor()
                if val == "*":
                    out = self.product(out, rhs, pos)
                else:
                    c = self.algebra.constant_value(rhs)
                    if c is None or c.is_zero():
                        raise ParseError("division only by nonzero constants"
                                         if c is None else "zero denominator", pos)
                    out = out.scale(S_ONE / c)
            else:
                return out

    def factor(self):
        base = self.atom()
        kind, val, op_pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
        else:
            return base
        kind, val, pos = self.next()
        if kind != "num":
            raise ParseError("exponent must be an unsigned integer", pos)
        e = int(val)
        if e > MAX_EXPONENT:
            raise ParseError("exponent %d exceeds the limit %d" % (e, MAX_EXPONENT), pos)
        out = self.algebra.const(S_ONE)
        for _ in range(e):
            out = self.product(out, base, op_pos)
        return out

    def atom(self):
        kind, val, pos = self.next()
        if kind == "num":
            return self.algebra.const(Scalar.from_int(int(val)))
        if kind == "name":
            return self.algebra.symbol(val, self, pos)
        if kind == "op" and val == "(":
            out = self.expr()
            self.expect_op(")")
            return out
        raise ParseError("expected a number, symbol, or '('", pos)

    def trig_inner(self):
        """'(' '2*pi*' int '*' ('x'|'y') ')' → frequency pair (m, n)."""
        self.expect_op("(")
        kind, val, pos = self.next()
        if (kind, val) != ("num", "2"):
            raise ParseError("trig argument must start with 2*pi*", pos)
        self.expect_op("*")
        kind, val, pos = self.next()
        if (kind, val) != ("name", "pi"):
            raise ParseError("trig argument must start with 2*pi*", pos)
        self.expect_op("*")
        kind, val, pos = self.peek()
        sign = 1
        if kind == "op" and val == "-":
            sign = -1
            self.next()
        kind, val, pos = self.next()
        if kind != "num":
            raise ParseError("trig frequency must be an integer", pos)
        freq = sign * int(val)
        self.expect_op("*")
        kind, val, pos = self.next()
        if kind != "name" or val not in ("x", "y"):
            raise ParseError("trig variable must be x or y", pos)
        self.expect_op(")")
        return (freq, 0) if val == "x" else (0, freq)


def parse_expression(text, algebra, n=1, B=None):
    """Parse into a FlatElement, SphereElement (normal form) or TorusElement.

    algebra: 'flat' (with n degrees of freedom), 'sphere', or 'torus'.
    """
    if algebra == "flat":
        names = set(flat_vars(n))
        alg = _Algebra("flat(%d)" % n, lambda c: FlatElement.const(n, c),
                       lambda name, parser: FlatElement.coordinate(n, name)
                       if name in names else None)
    elif algebra == "sphere":
        names = {v: MultiPoly.var(SVARS, v) for v in SVARS}
        names["s"] = MultiPoly.const(SVARS, S_SPIN)
        alg = _Algebra("the sphere", lambda c: MultiPoly.const(SVARS, c),
                       lambda name, parser: names.get(name))
    elif algebra == "torus":
        trig = {"sin": TorusElement.sin, "cos": TorusElement.cos}
        alg = _Algebra("the torus", lambda c: TorusElement.const(c, B),
                       lambda name, parser: trig[name](*parser.trig_inner(), B)
                       if name in trig else None)
    else:
        raise ValueError("unknown algebra %r" % (algebra,))
    out = _Parser(_tokenize(text), alg).parse()
    if algebra == "sphere":
        return SphereElement.canonicalize(out)
    return out


def print_expression(elem):
    """The report's text of a classical observable: its grammar-conformant
    str(), so that parse(print(x)) equals x."""
    if not isinstance(elem, (MultiPoly, SphereElement, TorusElement)):
        raise TypeError("cannot print %r" % (elem,))
    return str(elem)
