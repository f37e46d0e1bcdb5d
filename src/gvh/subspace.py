"""Echelonized subspaces of the classical algebras, with subalgebra
generation, normalizers, and sampled transitivity checks.

An Ambient object fixes the algebra, its bracket, the degree/frequency cap
(mandatory, never defaulted), and a deterministic coordinate key order.
Coordinates of an element are sparse maps that may extend beyond the cap;
out-of-cap keys simply can never be matched by in-cap subspaces, which is
exactly the right behaviour for membership tests.
"""

from __future__ import annotations

import math
import random

from .flat import FlatElement, bracket_flat, flat_vars
from .poly import MultiPoly, monomials_upto
from .scalars import S_ONE
from .sparse import nonzero_terms, sub_scaled
from .sphere import SVARS, SphereElement, bracket_sphere
from .torus import TorusElement, bracket_torus


class FlatAmbient:
    def __init__(self, n, degree_cap):
        self.n = n
        self.degree_cap = degree_cap
        self.tag = "flat(n=%d, deg<=%d)" % (n, degree_cap)

    def keys(self):
        return monomials_upto(2 * self.n, self.degree_cap)

    def basis_elements(self):
        return [self.from_coords({k: S_ONE}) for k in self.keys()]

    def coords(self, elem):
        return elem.terms

    def from_coords(self, coords):
        return FlatElement(self.n, coords)

    def zero(self):
        return FlatElement.zero(self.n)

    def within_bound(self, elem):
        return elem.degree() <= self.degree_cap

    def bracket(self, f, g):
        return bracket_flat(f, g)

    def dim_m(self):
        return 2 * self.n


class SphereAmbient:
    def __init__(self, degree_cap):
        self.degree_cap = degree_cap
        self.tag = "sphere(deg<=%d)" % degree_cap

    def keys(self):
        out = []
        for l in range(self.degree_cap + 1):
            for e in monomials_upto(3, l):
                if sum(e) == l:
                    out.append((l, e))
        return out

    def basis_elements(self):
        """Canonicalized monomials, echelonized: a basis of the canonical
        sphere polynomials of degree ≤ cap (raw monomial keys over-span)."""
        from .poly import MultiPoly as _MP
        seen = SubspaceBasis(self)
        out = []
        for e in monomials_upto(3, self.degree_cap):
            el = SphereElement.canonicalize(_MP(SVARS, {e: S_ONE}))
            if seen.add_element(el):
                out.append(el)
        return out

    def coords(self, elem):
        out = {}
        for l, h in elem.terms.items():
            for e, c in h.terms.items():
                out[(l, e)] = c
        return out

    def from_coords(self, coords):
        buckets = {}
        for (l, e), c in coords.items():
            if c.is_zero():
                continue
            b = buckets.setdefault(l, {})
            b[e] = c
        return SphereElement({l: MultiPoly(SVARS, t) for l, t in buckets.items()})

    def zero(self):
        return SphereElement.zero()

    def within_bound(self, elem):
        return elem.degree() <= self.degree_cap

    def bracket(self, f, g):
        return bracket_sphere(f, g)

    def dim_m(self):
        return 2


class TorusAmbient:
    def __init__(self, freq_cap, B=None):
        self.freq_cap = freq_cap
        self.B = TorusElement.zero(B).B
        self.tag = "torus(|freq|<=%d)" % freq_cap

    def keys(self):
        c = self.freq_cap
        return [(m, n) for m in range(-c, c + 1) for n in range(-c, c + 1)]

    def basis_elements(self):
        return [self.from_coords({k: S_ONE}) for k in self.keys()]

    def coords(self, elem):
        return elem.terms

    def from_coords(self, coords):
        return TorusElement(coords, self.B)

    def zero(self):
        return TorusElement.zero(self.B)

    def within_bound(self, elem):
        return elem.freq_bound() <= self.freq_cap

    def bracket(self, f, g):
        return bracket_torus(f, g)

    def dim_m(self):
        return 2


class SubspaceBasis:
    """Echelonized list of elements of one ambient algebra."""

    def __init__(self, ambient):
        self.ambient = ambient
        self.key_rank = {k: r for r, k in enumerate(ambient.keys())}
        self.rows = []  # list of (pivot_key, coords dict with pivot coeff 1)

    @classmethod
    def from_elements(cls, ambient, elems):
        basis = cls(ambient)
        for e in elems:
            basis.add_element(e)
        return basis

    def _key_order(self, k):
        r = self.key_rank.get(k)
        # out-of-cap keys sort after every in-cap key, deterministically
        return (0, r) if r is not None else (1, repr(k))

    def reduce_coords(self, coords):
        """Residual of coords after elimination against the basis."""
        coords = nonzero_terms(coords)
        for pivot, row in self.rows:
            c = coords.get(pivot)
            if c is not None:
                sub_scaled(coords, c, row)
        return coords

    def add_element(self, elem):
        """Insert an element; returns True when it enlarges the span."""
        res = self.reduce_coords(self.ambient.coords(elem))
        pivot = min(res, key=self._key_order, default=None)
        if pivot is None:
            return False
        pc = res[pivot]
        res = {k: c / pc for k, c in res.items()}
        # back-substitute into existing rows to keep reduced echelon form
        new_rows = []
        for pv, row in self.rows:
            c = row.get(pivot)
            if c is not None:
                row = dict(row)
                sub_scaled(row, c, res)
            new_rows.append((pv, row))
        new_rows.append((pivot, res))
        new_rows.sort(key=lambda t: self._key_order(t[0]))
        self.rows = new_rows
        return True

    def contains(self, elem):
        return not self.reduce_coords(self.ambient.coords(elem))

    def contains_basis(self, other):
        return all(self.contains(e) for e in other.elements())

    def dim(self):
        return len(self.rows)

    def elements(self):
        return [self.ambient.from_coords(row) for _, row in self.rows]

    def is_bracket_closed(self):
        elems = self.elements()
        for f in elems:
            for g in elems:
                if not self.contains(self.ambient.bracket(f, g)):
                    return False
        return True


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
                if basis.add_element(h):
                    added = True
        if not added:
            return basis


def normalizer(sub, ambient):
    """All g within the ambient cap with {g, sub} contained in span(sub)."""
    base = ambient.basis_elements()
    sub_elems = sub.elements()
    # unknown g = Σ_x g_x·base_x; constraints: residual of {base_x, s} is 0,
    # one row per (sub element, residual key)
    rows = {}
    for x, ex in enumerate(base):
        for si, s_el in enumerate(sub_elems):
            res = sub.reduce_coords(ambient.coords(ambient.bracket(ex, s_el)))
            for rk, c in res.items():
                rows.setdefault((si, rk), {})[x] = c
    from .linalg import nullspace
    out = SubspaceBasis(ambient)
    for vec in nullspace(list(rows.values()), len(base)):
        g = ambient.zero()
        for x, c in vec.items():
            g = g + base[x].scale(c)
        out.add_element(g)
    return out


class OffManifoldError(ValueError):
    pass


def _hamiltonian_rows(ambient, elems, point, params):
    rows = []
    if isinstance(ambient, FlatAmbient):
        n = ambient.n
        names = flat_vars(n)
        pt = {name: point[k] for k, name in enumerate(names)}
        for e in elems:
            row = []
            for k in range(1, n + 1):
                row.append(e.poly.partial("p%d" % k).evalf(pt, params))
            for k in range(1, n + 1):
                row.append(-e.poly.partial("q%d" % k).evalf(pt, params))
            rows.append(row)
    elif isinstance(ambient, SphereAmbient):
        r2 = sum(x * x for x in point)
        s_val = params.get("s")
        if s_val is None or abs(r2 - s_val ** 2) > 1e-9 * max(1.0, abs(s_val) ** 2):
            raise OffManifoldError(
                "point %r does not satisfy S.S = s^2 for s = %r" % (point, s_val))
        pt = {name: point[k] for k, name in enumerate(SVARS)}
        coords = [SphereElement.coordinate(v) for v in SVARS]
        for e in elems:
            row = [bracket_sphere(e, si).representative().evalf(pt, params)
                   for si in coords]
            rows.append(row)
    elif isinstance(ambient, TorusAmbient):
        x, y = point
        for e in elems:
            row = [e.partial_x().evalf(x, y, params), e.partial_y().evalf(x, y, params)]
            rows.append(row)
    else:
        raise TypeError("unknown ambient %r" % ambient)
    return rows


def transitivity_check(basis, npoints=8, seed=0, params=None):
    """Rank of the Hamiltonian fields of the basis at sampled points.

    Transitive iff the rank equals dim M at every sampled point.  Points are
    drawn from a deterministic seeded sampler; sphere points are scaled onto
    the radius-s sphere (s taken from params, default 1.0).
    """
    if npoints < 1:
        raise ValueError("npoints must be at least 1, got %d" % npoints)
    ambient = basis.ambient
    radius = (params or {}).get("s", 1.0)
    rng = random.Random(seed)
    reports = []
    for _ in range(npoints):
        if isinstance(ambient, FlatAmbient):
            point = [rng.gauss(0.0, 1.0) for _ in range(2 * ambient.n)]
        elif isinstance(ambient, SphereAmbient):
            v = [rng.gauss(0.0, 1.0) for _ in range(3)]
            nv = math.sqrt(sum(x * x for x in v)) or 1.0
            point = [x / nv * radius for x in v]
        else:
            point = (rng.random(), rng.random())
        reports.append(transitivity_at_point(basis, point, params))
    return reports


def transitivity_at_point(basis, point, params=None):
    """Single-point variant; raises OffManifoldError for bad sphere points."""
    import numpy as np

    ambient = basis.ambient
    params = dict(params or {})
    params.setdefault("pi", math.pi)
    params.setdefault("hbar", 1.0)
    if isinstance(ambient, SphereAmbient):
        params.setdefault("s", 1.0)
    rows = _hamiltonian_rows(ambient, basis.elements(), point, params)
    m = np.array(rows, dtype=complex)
    sv = np.linalg.svd(m, compute_uv=False) if m.size else [0.0]
    rk = int((np.asarray(sv) > 1e-9 * max(1.0, float(sv[0]))).sum()) if m.size else 0
    return {"point": tuple(point), "rank": rk, "dim": ambient.dim_m(),
            "transitive": rk == ambient.dim_m()}
