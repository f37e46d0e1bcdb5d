"""Capped spans of an algebra, echelonized subspaces of them, subalgebra
generation, normalizers, and sampled transitivity checks.

An `Ambient` is a capped span of one algebra: its tag, its coordinate keys in
a fixed order (they fix the echelon pivots, hence every printed basis), and
the element constructor from a terms map.  The unit elements of the keys
are a basis, so an ambient is its keys: the sphere's are the normal-form
monomials (`sphere`), not every monomial.  A classical algebra adds its
bracket, a size measure (degree or frequency) with its cap (mandatory, never
defaulted), the dimension of its phase space, and the point sampler and
Hamiltonian field rows of the transitivity check.  The coordinates of an
element are its terms.  Coordinates may extend beyond the cap:
out-of-cap keys can never be matched by in-cap subspaces, which is exactly
the right behaviour for membership tests.  The operator algebras (Weyl,
matrices) are ambients with keys and a constructor only: the extension
solver writes each unknown over their keys, and the Weyl commutant is a
`kernel_span` in them.

A `SubspaceBasis` is the `linalg.Echelon` of a span, its pivots in the
ambient's key order, so its printed basis does not depend on the order in
which elements are added.  `kernel_span` is the one kernel routine: the
span of the combinations of a list of elements that a linear map sends to
zero, which gives normalizers here and Weyl commutants in `weyl`.
"""

from __future__ import annotations

import functools
import math
import random

from .flat import FlatElement, bracket_flat, flat_vars
from .linalg import Echelon, nullspace
from .matrices import ExactMatrix
from .poly import monomials_upto
from .scalars import S_ONE
from .sphere import SVARS, SphereElement, bracket_sphere
from .torus import TorusElement, bracket_torus
from .weyl import WeylElement


class OffManifoldError(ValueError):
    pass


# An ambient lists every key up front, at about 220 bytes and 2 µs a key
# (flat n = 2, cap 60: 635,376 keys in 1.3 s and 138 MiB); a million keys
# is past any span the engine can echelonize.
MAX_KEYS = 10 ** 6


def _check_key_count(tag, count):
    """`tag`, or a ValueError when the ambient it names would have more
    than MAX_KEYS keys; called before any key is listed."""
    if count > MAX_KEYS:
        raise ValueError("the ambient %s has %d keys, more than the limit %d"
                         % (tag, count, MAX_KEYS))
    return tag


class Ambient:
    """A capped span, bounded by `size(elem) <= cap`, whose unit keys are a
    basis.  `sample(rng, params)` draws a point of phase space;
    `field_rows(elems, point, params)` gives each element's Hamiltonian
    field there as one row.  FlatAmbient, SphereAmbient, TorusAmbient,
    WeylAmbient and MatrixAmbient build one."""

    def __init__(self, tag, keys, make, bracket=None, size=None, cap=None,
                 dim_m=None, sample=None, field_rows=None):
        self.tag = tag
        self._keys = keys
        self.from_coords = make
        self.bracket = bracket
        self.size = size
        self.cap = cap
        self.dim_m = dim_m
        self.sample = sample
        self.field_rows = field_rows

    def keys(self):
        return self._keys

    def basis_elements(self):
        return [self.from_coords({k: S_ONE}) for k in self._keys]

    def zero(self):
        return self.from_coords({})

    def within_bound(self, elem):
        return self.size(elem) <= self.cap


def _flat_rows(n, elems, point, params):
    names = flat_vars(n)
    pt = dict(zip(names, point))
    return [[e.partial(v).evalf(pt, params) for v in names[n:]]
            + [-e.partial(v).evalf(pt, params) for v in names[:n]]
            for e in elems]


def FlatAmbient(n, degree_cap):
    tag = _check_key_count("flat(n=%d, deg<=%d)" % (n, degree_cap),
                           math.comb(2 * n + degree_cap, 2 * n))
    return Ambient(tag, monomials_upto(2 * n, degree_cap),
                   functools.partial(FlatElement, n), bracket_flat,
                   FlatElement.degree, degree_cap, 2 * n,
                   lambda rng, params: [rng.gauss(0.0, 1.0) for _ in range(2 * n)],
                   functools.partial(_flat_rows, n))


def _sphere_point(rng, params):
    """A point on the radius-s sphere (s from params, default 1.0)."""
    v = [rng.gauss(0.0, 1.0) for _ in range(3)]
    nv = math.sqrt(sum(x * x for x in v)) or 1.0
    radius = params.get("s", 1.0)
    return [x / nv * radius for x in v]


def _sphere_rows(elems, point, params):
    s_val = params.setdefault("s", 1.0)
    if abs(sum(x * x for x in point) - s_val ** 2) > 1e-9 * max(1.0, abs(s_val) ** 2):
        raise OffManifoldError(
            "point %r does not satisfy S.S = s^2 for s = %r" % (point, s_val))
    pt = dict(zip(SVARS, point))
    coords = [SphereElement.coordinate(v) for v in SVARS]
    return [[bracket_sphere(e, si).poly().evalf(pt, params)
             for si in coords] for e in elems]


def SphereAmbient(degree_cap):
    """Sphere polynomials of degree ≤ cap in normal form, keyed by the (cap+1)²
    monomials of S3-degree ≤ 1 in `poly.monomials_upto`'s order."""
    tag = _check_key_count("sphere(deg<=%d)" % degree_cap, (degree_cap + 1) ** 2)
    return Ambient(tag, [(a, d - a - e, e) for d in range(degree_cap + 1)
                         for a in range(d + 1) for e in (1, 0) if e <= d - a],
                   SphereElement, bracket_sphere, SphereElement.degree,
                   degree_cap, 2, _sphere_point, _sphere_rows)


def _torus_rows(elems, point, params):
    x, y = point
    return [[e.partial_x().evalf(x, y, params), e.partial_y().evalf(x, y, params)]
            for e in elems]


def TorusAmbient(freq_cap, B=None):
    tag = _check_key_count("torus(|freq|<=%d)" % freq_cap,
                           (2 * freq_cap + 1) ** 2)
    return Ambient(tag, [(m, n) for m in range(-freq_cap, freq_cap + 1)
                         for n in range(-freq_cap, freq_cap + 1)],
                   lambda terms: TorusElement(terms, B), bracket_torus,
                   TorusElement.freq_bound, freq_cap, 2,
                   lambda rng, params: (rng.random(), rng.random()), _torus_rows)


def WeylAmbient(n, degree_cap):
    """Normal-ordered Weyl words X^α P^β of degree ≤ cap."""
    tag = _check_key_count("weyl(n=%d, deg<=%d)" % (n, degree_cap),
                           math.comb(2 * n + degree_cap, 2 * n))
    return Ambient(tag, monomials_upto(2 * n, degree_cap),
                   functools.partial(WeylElement, n))


def MatrixAmbient(dim):
    """dim × dim matrices over Scalar, keyed by matrix units in row-major order."""
    tag = _check_key_count("matrix(dim=%d)" % dim, dim * dim)
    return Ambient(tag, [(i, j) for i in range(dim) for j in range(dim)],
                   functools.partial(ExactMatrix, dim))


class SubspaceBasis(Echelon):
    """Echelonized span of elements of one ambient algebra: the echelon
    over the ambient's keys in their order, out-of-cap keys last, by repr."""

    def __init__(self, ambient):
        key_rank = {k: r for r, k in enumerate(ambient.keys())}
        super().__init__(lambda k: (0, key_rank[k]) if k in key_rank
                         else (1, repr(k)))
        self.ambient = ambient

    @classmethod
    def from_elements(cls, ambient, elems):
        basis = cls(ambient)
        for e in elems:
            basis.add(e.terms)
        return basis

    def dim(self):
        return len(self.rows)

    def elements(self):
        return [self.ambient.from_coords(row) for _, row in self.rows]


def kernel_span(ambient, base, image):
    """The echelonized span of the Σ_x c_x·base_x with Σ_x c_x·image(base_x)
    = 0, for `image` a linear map from elements to coordinate maps."""
    rows = {}
    for x, ex in enumerate(base):
        for key, c in image(ex).items():
            rows.setdefault(key, {})[x] = c
    out = SubspaceBasis(ambient)
    for vec in nullspace(list(rows.values()), len(base)):
        out.add(sum((base[x].scale(c) for x, c in vec.items()),
                    ambient.zero()).terms)
    return out


def generate_poisson_subalgebra(gens, ambient):
    """Bracket closure of span(gens) inside the ambient cap (fixed point)."""
    basis = SubspaceBasis.from_elements(ambient, gens)
    while True:
        added = False
        elems = basis.elements()
        for i, f in enumerate(elems):
            for g in elems[i + 1:]:
                h = ambient.bracket(f, g)
                if h.is_zero() or not ambient.within_bound(h):
                    continue
                if basis.add(h.terms):
                    added = True
        if not added:
            return basis


def normalizer(sub, ambient):
    """All g within the ambient cap with {g, sub} contained in span(sub):
    the residuals of {g, s} against sub vanish for every s in sub."""
    sub_elems = sub.elements()
    return kernel_span(
        ambient, ambient.basis_elements(),
        lambda g: {(si, k): c for si, s in enumerate(sub_elems)
                   for k, c in sub.reduce(ambient.bracket(g, s).terms).items()})


# Most sample points one transitivity check takes; the report keeps a rank
# for each.
MAX_NPOINTS = 10_000


def transitivity_check(basis, npoints=8, seed=0, params=None):
    """Rank of the Hamiltonian fields of the basis at sampled points.

    Transitive iff the rank equals dim M at every sampled point.  Points are
    drawn from a deterministic seeded sampler; sphere points are scaled onto
    the radius-s sphere (s taken from params, default 1.0).
    """
    if npoints < 1:
        raise ValueError("npoints must be at least 1, got %d" % npoints)
    if npoints > MAX_NPOINTS:
        raise ValueError("npoints must be at most %d, got %d" % (MAX_NPOINTS, npoints))
    rng = random.Random(seed)
    return [transitivity_at_point(basis, basis.ambient.sample(rng, params or {}),
                                  params)
            for _ in range(npoints)]


def transitivity_at_point(basis, point, params=None):
    """Single-point variant; raises OffManifoldError for bad sphere points."""
    import numpy as np

    ambient = basis.ambient
    params = dict(params or {})
    params.setdefault("pi", math.pi)
    params.setdefault("hbar", 1.0)
    rows = ambient.field_rows(basis.elements(), point, params)
    m = np.array(rows, dtype=complex)
    sv = np.linalg.svd(m, compute_uv=False) if m.size else [0.0]
    rk = int((np.asarray(sv) > 1e-9 * max(1.0, float(sv[0]))).sum()) if m.size else 0
    return {"point": tuple(point), "rank": rk, "dim": ambient.dim_m,
            "transitive": rk == ambient.dim_m}
