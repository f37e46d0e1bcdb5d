"""Shared random-element generators and Poisson-algebra property loops.

Every sampler takes an explicit random.Random so the suites stay
deterministic; the property loops assert exact identities (antisymmetry,
Leibniz, Jacobi) and return the number of trials performed.  `weyl_action`
is the sympy oracle for Weyl elements: X_k acts as q_k·, P_k as −iħ ∂/∂q_k.
"""

from fractions import Fraction

from gvh.flat import FlatElement
from gvh.poly import MultiPoly, monomials_upto
from gvh.scalars import S_I, S_ONE, Scalar
from gvh.sphere import SVARS, SphereElement, bracket_raw, bracket_sphere
from gvh.torus import TorusElement
from gvh.weyl import WeylElement


def random_scalar(rng, allow_i=True, allow_zero=True):
    num = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    out = Scalar.from_fraction(num)
    if allow_i and rng.random() < 0.3:
        out = out + S_I * Scalar.from_int(rng.randint(-2, 2))
    if not allow_zero and out.is_zero():
        return S_ONE
    return out


def random_flat(rng, n=1, deg=3, terms=3):
    out = FlatElement(n, {})
    cands = monomials_upto(2 * n, deg)
    for _ in range(terms):
        exps = rng.choice(cands)
        qe, pe = exps[:n], exps[n:]
        out = out + FlatElement.monomial(n, qe, pe, random_scalar(rng))
    return out


def random_sphere_raw(rng, deg=2, terms=3):
    out = MultiPoly.zero(SVARS)
    cands = monomials_upto(3, deg)
    for _ in range(terms):
        out = out + MultiPoly.monomial(SVARS, rng.choice(cands),
                                       random_scalar(rng))
    return out


def random_sphere(rng, deg=2, terms=3):
    return SphereElement.canonicalize(random_sphere_raw(rng, deg, terms))


def random_torus(rng, fmax=2, terms=2, B=None):
    out = TorusElement({}, B)
    for _ in range(terms):
        m = rng.randint(-fmax, fmax)
        n = rng.randint(-fmax, fmax)
        out = out + TorusElement({(m, n): random_scalar(rng)}, B)
    return out


def random_torus_real(rng, fmax=2, terms=2, B=None):
    out = random_torus(rng, fmax, terms, B)
    return out + TorusElement({(-m, -n): c.conj() for (m, n), c in out.terms.items()}, B)


def random_weyl(rng, n=1, deg=3, terms=3):
    out = WeylElement(n, {})
    cands = monomials_upto(2 * n, deg)
    for _ in range(terms):
        out = out + WeylElement.word(rng.choice(cands), random_scalar(rng), n)
    return out


def _sympy_scalar(sympy, c, hb):
    """Exact sympy value of a Scalar that is a polynomial in hbar over Q(i)."""
    # a constant denominator is monic, hence 1; hbar is the first parameter
    assert c.den.is_const() and not any(any(e[1:]) for e in c.num.terms)
    out = 0
    for e, g in c.num.terms.items():
        out += (sympy.Rational(g.re.numerator, g.re.denominator)
                + sympy.I * sympy.Rational(g.im.numerator, g.im.denominator)) * hb ** e[0]
    return out


def weyl_action(sympy, weyl, xs, psi, hb):
    """Weyl element as an operator on psi: X_k -> xs[k] *, P_k -> -i hbar d/dxs[k]."""
    n = len(xs)
    total = 0
    for e, c in weyl.terms.items():
        term = psi
        for var, k in zip(xs, e[n:]):
            term = sympy.diff(term, (var, k)) if k else term
        for var, k in zip(xs, e[:n]):
            term = var ** k * term
        total += _sympy_scalar(sympy, c, hb) * (-sympy.I * hb) ** sum(e[n:]) * term
    return total


def check_poisson_identities(rng, trials, sample, bracket):
    """Antisymmetry, Leibniz and Jacobi on `trials` random triples."""
    done = 0
    for _ in range(trials):
        f, g, h = sample(rng), sample(rng), sample(rng)
        anti = bracket(f, g) + bracket(g, f)
        assert anti.is_zero(), "antisymmetry failed: %s" % anti
        leib = bracket(f, g * h) - (bracket(f, g) * h + g * bracket(f, h))
        assert leib.is_zero(), "Leibniz failed: %s" % leib
        jac = (bracket(f, bracket(g, h)) + bracket(g, bracket(h, f))
               + bracket(h, bracket(f, g)))
        assert jac.is_zero(), "Jacobi failed: %s" % jac
        done += 1
    return done


def check_weyl_associativity(rng, trials, n=1, deg=3):
    done = 0
    for _ in range(trials):
        a = random_weyl(rng, n, deg)
        b = random_weyl(rng, n, deg)
        c = random_weyl(rng, n, deg)
        assert (a * b) * c == a * (b * c)
        done += 1
    return done


def check_sphere_representatives(rng, trials):
    """Canonicalization must not depend on the chosen polynomial lift."""
    s2 = Scalar.param("s") ** 2
    casimir = (MultiPoly.monomial(SVARS, (2, 0, 0)) +
               MultiPoly.monomial(SVARS, (0, 2, 0)) +
               MultiPoly.monomial(SVARS, (0, 0, 2)) -
               MultiPoly.const(SVARS, s2))
    done = 0
    for _ in range(trials):
        f = random_sphere_raw(rng, deg=2)
        g = random_sphere_raw(rng, deg=2)
        hf = random_sphere_raw(rng, deg=1)
        hg = random_sphere_raw(rng, deg=1)
        f_moved = f + casimir * hf
        g_moved = g + casimir * hg
        cf, cg = SphereElement.canonicalize(f), SphereElement.canonicalize(g)
        assert SphereElement.canonicalize(f_moved) == cf
        lhs = SphereElement.canonicalize(bracket_raw(f_moved, g_moved))
        rhs = SphereElement.canonicalize(bracket_raw(f, g))
        assert lhs == rhs, "bracket value depends on representative"
        assert lhs == bracket_sphere(cf, cg)
        done += 1
    return done
