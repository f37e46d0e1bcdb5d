"""Differential and shift operators on the torus line bundle and the line.

A DiffOp is a finite sum of terms c·x^j·e(m, n)·S_a·∂_x^{α_x}·∂_y^{α_y}
with e(m, n) = e^{2πi(mx+ny)} and (S_a u)(x, y) = u(x + a, y) for an
integer a, keyed (a, α_x, α_y, m, n, j) with an exact Scalar c: a row that
linalg.Echelon can hold.  Composition uses the generalized Leibniz rule
∂^α(b·u) = Σ_{γ≤α} C(α,γ) (∂^γ b)(∂^{α−γ}u) and moves a shift right past a
coefficient as S_a b = b(x + a) S_a; the phase e^{2πima} of e(m, n) is 1
for an integer a, so the algebra is closed over the exact Scalar.  The line-bundle operators have a = 0; the transformed torus
operators A±, B± (qmaps.transformed_harmonic_op) are DiffOps in x alone,
evaluated on the Hermite basis by hermite.hermite_matrix.
Flat-space operators are Weyl elements instead (weyl.py): X ↦ q and
P ↦ −iħ∂ carry the Weyl algebra onto the polynomial-coefficient operators.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .scalars import S_I, S_ONE, TWO_PI
from .sparse import TermMap, accumulate, nonzero_terms

TWO_PI_I = TWO_PI * S_I


class DiffOp(TermMap):
    """Σ c·x^j·e(m, n)·S_a·∂_x^{α_x}·∂_y^{α_y} keyed (a, α_x, α_y, m, n, j):
    c a Scalar, S_a the shift x ↦ x + a by an integer a."""

    __slots__ = ()

    def __init__(self, terms=None):
        self.terms = nonzero_terms(terms or {})

    def order(self):
        return max((dx + dy for _, dx, dy, *_ in self.terms), default=-1)

    def _product(self, other):
        return diffop_compose(self, other)

    def commutator(self, other):
        """[A, B] = AB − BA without the products that cancel: where a term
        f·∂^α of A and a term g·∂^β of B are both unshifted, the part of
        their product with no derivative falling on the other factor is
        f·g·∂^{α+β} in either order.  A shift keeps it: f(x + t) ≠ f(x)."""
        return diffop_compose(self, other, _commutator=True) \
            - diffop_compose(other, self, _commutator=True)

    def groups(self):
        """{(a, α_x, α_y): [((m, n, j), c), …]}, the symbol of each S_a ∂^α."""
        out = {}
        for (a, dx, dy, m, n, j), c in self.terms.items():
            out.setdefault((a, dx, dy), []).append(((m, n, j), c))
        return out

    def __str__(self):
        """Groups lowest order first, each symbol in (m, n, j) order."""
        groups = self.groups()
        bits = []
        for key in sorted(groups, key=lambda t: (t[1] + t[2], t)):
            coef = []
            for (m, n, j), c in sorted(groups[key]):
                factors = (["x" if j == 1 else "x^%d" % j] if j else []) \
                    + (["e(%d,%d)" % (m, n)] if m or n else [])
                coef.append("(%s)*%s" % (c, "*".join(factors) or "1"))
            ds = ["S[%d]" % key[0]] if key[0] else []
            for name, k in zip("xy", key[1:]):
                if k:
                    ds.append("d/d%s" % name if k == 1 else "d^%d/d%s^%d" % (k, name, k))
            bits.append("[%s] %s" % (" + ".join(coef), " ".join(ds) or "1"))
        return " + ".join(bits) or "0"


@lru_cache(maxsize=4096)
def _moved(m, n, j, gx, gy, a):
    """∂_x^{γ_x} ∂_y^{γ_y}(x^j·e(m, n)) at x + a: pairs (i, c) for its terms
    c·x^i·e(m, n), c the object S_ONE where it is 1.  The r of the γ_x
    derivatives that meet x^j bring down C(γ_x, r)·j!/(j − r)!, the others
    2πi·m and each ∂_y 2πi·n; the shift expands (x + a)^{j−r} binomially."""
    out = {}
    for r in range(min(gx, j) + 1):
        k = gx - r + gy
        for i in range(j - r + 1):
            w = m ** (gx - r) * n ** gy * math.comb(gx, r) * math.perm(j, r) \
                * math.comb(j - r, i) * a ** (j - r - i)
            if w:
                accumulate(out, i, TWO_PI_I ** k * w if k or w != 1 else S_ONE)
    return tuple(out.items())


def diffop_compose(A, B, _commutator=False):
    """Operator composition A∘B.  A term a·f·S_s ∂^α meets g·S_t ∂^β, a
    group of B, as Σ_{γ≤α} C(α,γ) a·f·(∂^γ g)(x + s) S_{s+t} ∂^{α−γ+β} by
    the generalized Leibniz rule and one move of the shift.  Each g is moved
    past each (γ, s) once per call and before any product, so the terms
    that cancel there (∂_x of f − x·f_x is −x·f_xx) are never multiplied.
    The phase e^{2πims} the shift leaves out of e(m, n) is 1 only for an
    integer s, so any other shift is refused.  `_commutator` (for
    DiffOp.commutator) leaves out the products with s = t = 0 and γ = 0,
    which BA has too."""
    out = {}
    groups = B.groups()
    moved = {}
    for (s, ax, ay, ma, na, ja), ca in A.terms.items():
        if not isinstance(s, int):
            raise ValueError("shift by %r: only an integer shift leaves "
                             "e^(2 pi i m x) unchanged" % (s,))
        for gx, gy in itertools.product(range(ax + 1), range(ay + 1)):
            binom = math.comb(ax, gx) * math.comb(ay, gy)
            c0 = ca if binom == 1 else ca * binom
            shared = _commutator and not (gx or gy or s)
            for (t, bx, by), group in groups.items():
                if shared and not t:
                    continue
                memo = (t, bx, by, gx, gy, s)
                terms = moved.get(memo) if gx or gy or s else group
                if terms is None:
                    acc = {}
                    for (m, n, j), cb in group:
                        for i, c in _moved(m, n, j, gx, gy, s):
                            accumulate(acc, (m, n, i), cb if c is S_ONE else cb * c)
                    terms = moved[memo] = acc.items()
                head = (s + t, ax - gx + bx, ay - gy + by)
                for (m, n, j), c in terms:
                    accumulate(out, head + (ma + m, na + n, ja + j), c0 * c)
    return A._new(out)
