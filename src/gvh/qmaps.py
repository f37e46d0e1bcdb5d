"""The concrete quantization maps, as evaluable objects with declared
domains, plus the (Q1)/(Q2) residual checkers.

Target algebras: the Weyl algebra for every flat map — on n generators for the
Weyl-ordered maps (schrodinger, metaplectic, position, which differ only in
their domains), on 2n generators for prequantization on phase space
(vanhove); differential operators on the torus line bundle
(torus_prequant); spin matrices over Scalar (sphere); and, for the
transformed torus operators A±, B±, exact shift-differential operators on
the line (DiffOps in x alone), read as truncated Hermite matrices at a
numeric ħ.  A Weyl element reads as a differential operator through
X ↦ q·, P ↦ −iħ∂/∂q.

A map checks its domain each time it quantizes, so `check_q1` checks and
quantizes each of f, g and {f,g} once.
"""

from __future__ import annotations

import functools
import math

from .diffop import DiffOp
from .flat import FlatElement, active_dofs, bracket_flat
from .matrices import ExactMatrix, spin_matrices
from .poly import MultiPoly
from .scalars import A_SYM, C_SYM, HBAR, S_I, S_ONE, TWO_PI, Scalar
from .sparse import accumulate
from .sphere import SVARS, SphereElement, bracket_sphere
from .torus import bracket_torus
from .weyl import WeylElement, contractions

DEFAULT_TORUS_HBAR = 1.0 / (2.0 * math.pi)
_MINUS_IH_HALF = -(S_I * HBAR) * Scalar.from_rational(1, 2)


class DomainError(ValueError):
    """An element lies outside a quantization map's declared domain."""


def _degree_at_most(bound):
    """The membership test of the polynomials of degree <= bound."""
    return lambda f: None if f.degree() <= bound else \
        "degree %d exceeds %d" % (f.degree(), bound)


class QuantizationMap:
    """Named linear rule into an operator algebra, with a domain predicate
    and the classical bracket of its domain."""

    def __init__(self, name, domain, rule, bracket, membership=None):
        self.name = name
        self.domain = domain
        self._rule = rule
        self.bracket = bracket
        self._membership = membership

    def __call__(self, f, label="element"):
        """Q(f); a DomainError names f by `label` outside the domain."""
        reason = self._membership(f) if self._membership else None
        if reason:
            raise DomainError("%s %s outside domain %s of %s: %s"
                              % (label, f, self.domain, self.name, reason))
        return self._rule(f)

    def __repr__(self):
        return "QuantizationMap(%s on %s)" % (self.name, self.domain)


# ---------------------------------------------------------------------------
# Flat maps in the Weyl algebra
# ---------------------------------------------------------------------------

def weyl_map(f):
    """Weyl (symmetrized) ordering: each q^α p^β maps to the average of all
    orderings of its X and P factors, which in normal order is

        Σ_{t ≤ min(α,β)} Π_k C(α_k,t_k) C(β_k,t_k) t_k! (−iħ/2)^{|t|} X^{α−t} P^{β−t}.

    On degree ≤ 1 this is the Schrödinger rule, on degree ≤ 2 the
    metaplectic one, and on Σ f^i(q) p_i + g(q) the position representation
    −iħ Σ (f^i ∂_i + ½ ∂_i f^i) + g."""
    n = f.n
    out = {}
    for e, c in f.terms.items():
        alpha, beta = e[:n], e[n:]
        for t, num in contractions(beta, alpha):
            exps = tuple(a - s for a, s in zip(alpha, t)) + \
                tuple(b - s for b, s in zip(beta, t))
            accumulate(out, exps, c * (_MINUS_IH_HALF ** sum(t)) * num)
    return WeylElement(n, out)


def vanhove_map(f):
    """Full prequantization on phase space, a Weyl element on 2n generators
    (X_k, X_{n+k} multiply by q^k, p_k; P_k, P_{n+k} are −iħ∂ in them):

        Q(f) = Σ_k [f_{p_k}(X) P_k − f_{q^k}(X) P_{n+k}] + (f − Σ_k p_k f_{p_k})(X).

    Every term has at most one P, to the right, so it is already in normal
    order."""
    n = f.n
    av = f.vars

    def unit(i):
        return tuple(int(i == k) for k in range(2 * n))

    zeroth = f
    terms = {}
    for k in active_dofs(f):
        fp = f.partial(av[n + k])
        zeroth = zeroth - FlatElement.coordinate(n, av[n + k]) * fp
        terms.update({e + unit(k): c for e, c in fp.terms.items()})
        terms.update({e + unit(n + k): -c
                      for e, c in f.partial(av[k]).terms.items()})
    terms.update({e + (0,) * (2 * n): c for e, c in zeroth.terms.items()})
    return WeylElement(2 * n, terms)


# ---------------------------------------------------------------------------
# Torus prequantization (symbolic, on the line bundle over T²)
# ---------------------------------------------------------------------------

def torus_prequant_map(f):
    """Q(f) = −iħ[(f_x/B)(∂_y − (i/ħ)Bx) − (f_y/B)∂_x] + f.

    The x-term collapses to −x·f_x for every B, so the operator is
    Q(f) = −iħ(f_x/B)∂_y + iħ(f_y/B)∂_x + M[f − x f_x]; at B = 1 this is
    the printed prequantization formula.
    """
    B = f.B
    fx = f.partial_x()
    fy = f.partial_y()
    ihb = (S_I * HBAR) / B
    terms = {(0, 0, 0, m, n, 0): c for (m, n), c in f.terms.items()}
    for (dx, dy, j), g in (((0, 0, 1), -fx), ((1, 0, 0), fy.scale(ihb)),
                           ((0, 1, 0), fx.scale(-ihb))):
        terms.update({(0, dx, dy, m, n, j): c for (m, n), c in g.terms.items()})
    return DiffOp(terms)


# ---------------------------------------------------------------------------
# Transformed torus operators as Hermite-basis matrices
# ---------------------------------------------------------------------------

def transformed_harmonic_op(m, l):
    """The transformed image of e^{2πi(mx+ly)} as an operator on the line:

        ψ(t) ↦ e^{2πimt}[(1 − 2πim(t + l))ψ(t + l) − 2πħl ψ′(t + l)],

    a DiffOp in x alone, exact in π and ħ, with shift l and x-order ≤ 1.
    (m, 0) with m = ±k gives A±; (0, ±k) gives B±.
    """
    two_pi_im = TWO_PI * S_I * m
    return DiffOp({(l, 0, 0, m, 0, 0): S_ONE - two_pi_im * l,
                   (l, 0, 0, m, 0, 1): -two_pi_im,
                   (l, 1, 0, m, 0, 0): -(TWO_PI * HBAR * l)})


@functools.lru_cache(maxsize=1)
def torus_transformed_ops(k, trunc, hbar=DEFAULT_TORUS_HBAR, quad_order=None):
    """Truncated Hermite matrices (A₊, A₋, B₊, B₋) for frequency k ≥ 1.

    Cached: `verify torus` asks for the same four matrices twice, and no
    caller mutates them."""
    from .hermite import hermite_matrix
    if k < 1:
        raise ValueError("frequency k must be a positive integer, got %r" % (k,))
    return tuple(hermite_matrix(transformed_harmonic_op(m, l), trunc, hbar, quad_order)
                 for m, l in ((k, 0), (-k, 0), (0, k), (0, -k)))


# ---------------------------------------------------------------------------
# Sphere map into exact spin matrices
# ---------------------------------------------------------------------------

def _sphere_rep_poly(f):
    """The polynomial the spin map quantizes: a class's harmonic
    representative, or a plain polynomial as given."""
    if isinstance(f, SphereElement):
        return f.representative()
    if isinstance(f, MultiPoly) and f.vars == SVARS:
        return f
    raise TypeError("expected a sphere polynomial, got %r" % (f,))


def sphere_map(j, a=A_SYM, const_c=C_SYM):
    """Quantization of sphere polynomials of degree ≤ 2 in dimension 2j+1:
    1 ↦ I, S_i ↦ Q_i, S_i² ↦ aQ_i² + cI, S_iS_k ↦ (a/2)(Q_iQ_k + Q_kQ_i)
    on the harmonic representative, whose degree is the normal form's (the
    top-degree harmonic projection is injective on normal forms)."""
    q = spin_matrices(j)
    dim = q[0].dim
    ident = ExactMatrix.identity(dim)
    half_a = a * Scalar.from_rational(1, 2)

    @functools.cache
    def spin_product(i, k):
        # Q_i² or Q_iQ_k + Q_kQ_i, once per map; callers only read it
        return q[i] * q[i] if i == k else q[i] * q[k] + q[k] * q[i]

    def rule(f):
        poly = _sphere_rep_poly(f)
        out = ExactMatrix(dim)
        for e, coeff in poly.terms.items():
            deg = sum(e)
            if deg == 0:
                out = out + ident.scale(coeff)
            elif deg == 1:
                i = e.index(1)
                out = out + q[i].scale(coeff)
            elif deg == 2:
                if 2 in e:
                    i = e.index(2)
                    out = out + spin_product(i, i).scale(a * coeff) + \
                        ident.scale(const_c * coeff)
                else:
                    i = e.index(1)
                    k = i + 1 + e[i + 1:].index(1)
                    out = out + spin_product(i, k).scale(half_a * coeff)
            else:
                raise DomainError("sphere map limited to degree <= 2, got %s" % poly)
        return out

    def bracket(f, g):
        # in normal form; a plain polynomial operand is reduced to its class
        return bracket_sphere(SphereElement.canonicalize(f),
                              SphereElement.canonicalize(g))

    return QuantizationMap(
        name="sphere(j=%s)" % (j,),
        domain="sphere polynomials of degree <= 2",
        rule=rule,
        bracket=bracket,
        membership=_degree_at_most(2),
    )


# ---------------------------------------------------------------------------
# Generic (Q1)/(Q2) residual checks
# ---------------------------------------------------------------------------

SCHRODINGER = QuantizationMap(
    "schrodinger", "flat polynomials of degree <= 1", weyl_map,
    bracket_flat, membership=_degree_at_most(1))

METAPLECTIC = QuantizationMap(
    "metaplectic", "flat polynomials of degree <= 2", weyl_map,
    bracket_flat, membership=_degree_at_most(2))

POSITION = QuantizationMap(
    "position", "flat polynomials affine in momentum", weyl_map,
    bracket_flat,
    membership=lambda f: None if f.momentum_degree() <= 1
    else "momentum degree %d exceeds 1" % f.momentum_degree())

VANHOVE = QuantizationMap(
    "vanhove", "all flat polynomials", vanhove_map, bracket_flat)

TORUS_PREQUANT = QuantizationMap(
    "torus_prequant", "finite Fourier series on the torus", torus_prequant_map,
    bracket_torus)


# The sign conventions every report states; check_q1 tests the rule.
CONVENTION = "bracket {p,q} = +1; commutator [X,P] = i*hbar; rule Q({f,g}) = (i/hbar)[Q(f),Q(g)]"


def check_q1(qmap, f, g):
    """Residual Q({f,g}) − (i/ħ)[Q(f), Q(g)] in the map's operator algebra;
    f, g and {f,g} are each checked against the domain and quantized once."""
    qf, qg = qmap(f, "f"), qmap(g, "g")
    return qmap(qmap.bracket(f, g), "{f,g}") - qf.ih_commutator(qg)
