"""Truncated Hermite-basis matrices for operators on the real line.

The basis is the unit-scale orthonormal Hermite functions h_n (eigenbasis of
the weight e^{−x²}); an operator is a DiffOp in x alone, a finite sum of
terms

    ψ ↦ f(x) · (d^d ψ/dx^d)(x + a)

with a an integer and f = Σ c x^j e^{2πimx}, c exact in π and ħ, the sum
of one (a, d) group of terms.  DiffOps are closed under composition
(diffop.diffop_compose), so composite operators are reduced exactly before
any quadrature happens, and only the matrix entries are floats: a matrix is
a plain N×N complex ndarray.  They come from Gauss–Hermite quadrature of
the order `quadrature_order` gives (4N unless set, at most MAX_QUAD_ORDER).
The nodes are the eigenvalues of the symmetric tridiagonal Jacobi matrix of
the Hermite recurrence (Golub and Welsch, Math. Comp. 23, 1969); the
stabilized weights w_i e^{x_i²} come from the order-(Q−1) Hermite function,
never from exponentiating x_i², and shifted overlaps are centered so the
Gaussian factors recombine exactly.  One generator, `_hermite_rows`, runs
the three-term recurrence for both the rule and the basis values.  The
commutant SVD runs on real stacks: conjugate generator pairs fold into their
real and imaginary parts, pairs swapped by the Hermite parity P = diag((−1)ⁿ)
fold into a P-even and a P-odd block, and pairs swapped by the transposition
τ: h ↦ hᵀ into a symmetric and an antisymmetric block; every fold keeps the
singular values.  With every block of definite parity and transpose sign the
stack splits into four sectors, T even or odd and symmetric or
antisymmetric, factored separately at about a sixteenth of the size.
Dropping the residue off each grade (checked against 64·eps·max|h|) moves
each singular value by at most its norm (Weyl's inequality); a set that is
not P-closed or not τ-closed takes the trivial grading for that involution.
"""

from __future__ import annotations

import math
import os
from functools import lru_cache
from itertools import count, islice

import numpy as np

from .diffop import DiffOp


SQRT_HALF = math.sqrt(0.5)


class QuadratureError(RuntimeError):
    """Raised when a quadrature rule fails its orthonormality self-test."""


def check_memory(nbytes, what):
    """ValueError, before allocating, when `what` needs more bytes than the
    machine has physical memory."""
    phys = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if nbytes > phys:
        raise ValueError("%s needs about %.3g GiB, more than the %.3g GiB of "
                         "physical memory" % (what, nbytes / 2 ** 30, phys / 2 ** 30))


# The largest admitted order.  From order 766 e^{−x²/2} underflows to 0 at
# the outer nodes, the Newton step divides 0 by 0 and the rule fails.
MAX_QUAD_ORDER = 740


def quadrature_order(trunc, quad_order=None):
    """The order Q of the Gauss–Hermite rule at truncation N: 4N unless
    given, bounded before its O(Q³) eigensolve.  Within MAX_QUAD_ORDER the
    Q×Q Jacobi matrix takes at most 8·740² bytes (4.4 MB)."""
    order = 4 * trunc if quad_order is None else quad_order
    if order > MAX_QUAD_ORDER:
        raise ValueError("the order-%d Gauss-Hermite rule exceeds %d, the largest "
                         "order admitted" % (order, MAX_QUAD_ORDER))
    return order


def oversampled_order(trunc, quad_order=None):
    """`quadrature_order`, refused below the 4N oversampling floor that a
    Hermite matrix needs."""
    order = quadrature_order(trunc, quad_order)
    if order < 4 * trunc:
        raise ValueError("quad_order %d below oversampling floor %d"
                         % (order, 4 * trunc))
    return order


def _hermite_rows(xs):
    """h_0, h_1, … at the points xs, by the three-term recurrence
    h_n = √(2/n)·x·h_{n−1} − √((n−1)/n)·h_{n−2} from h_{−1} = 0."""
    prev, last = np.zeros_like(xs), np.pi ** -0.25 * np.exp(-xs * xs / 2.0)
    for n in count(1):
        yield last
        prev, last = last, math.sqrt(2.0 / n) * xs * last \
            - math.sqrt((n - 1) / n) * prev


def hermite_values(xs, nmax):
    """Values of h_0 … h_{nmax−1} at the points xs; shape (nmax, len(xs))."""
    xs = np.asarray(xs, dtype=float)
    return np.array(list(islice(_hermite_rows(xs), nmax))).reshape(nmax, xs.size)


@lru_cache(maxsize=32)
def gauss_hermite_rule(order):
    """Nodes and stabilized weights ŵ_i = w_i e^{x_i²} = 1/(Q·h_{Q−1}(x_i)²).

    ∫ g(x) dx ≈ Σ ŵ_i g(x_i) for g with Gaussian decay built in.  Golub–
    Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    recurrence, zero diagonal and √(k/2) beside it, refined by one Newton
    step x −= h_Q/(√(2Q)·h_{Q−1}) (h_Q′ = √(2Q)·h_{Q−1} − x·h_Q, and h_Q = 0
    at a node) and made exactly symmetric.
    """
    jacobi = np.zeros((order, order))
    jacobi.ravel()[order::order + 1] = np.sqrt(np.arange(1, order) / 2.0)
    xs = np.linalg.eigvalsh(jacobi)
    with np.errstate(all="ignore"):
        h_prev, h_q = islice(_hermite_rows(xs), order - 1, order + 1)
        xs -= h_q / (math.sqrt(2.0 * order) * h_prev)
        xs = (xs - xs[::-1]) / 2.0
        h_prev, = islice(_hermite_rows(xs), order - 1, order)
        wmod = 1.0 / (order * h_prev ** 2)
    if not np.all(np.isfinite(xs)):
        raise QuadratureError("Gauss-Hermite nodes are not finite at order %d" % order)
    if not np.all(np.isfinite(wmod)):
        raise QuadratureError("stabilized weights are not finite at order %d" % order)
    return xs, wmod


def derivative_band(N):
    """Exact matrix of d/dx: h_n' = √(n/2) h_{n−1} − √((n+1)/2) h_{n+1}."""
    D = np.zeros((N, N))
    for n in range(N):
        if n >= 1:
            D[n - 1, n] = math.sqrt(n / 2.0)
        if n + 1 < N:
            D[n + 1, n] = -math.sqrt((n + 1) / 2.0)
    return D


def position_tridiagonal(N):
    """Exact matrix of multiplication by x: entries √((n+1)/2) off-diagonal."""
    X = np.zeros((N, N))
    for n in range(N - 1):
        X[n, n + 1] = X[n + 1, n] = math.sqrt((n + 1) / 2.0)
    return X


@lru_cache(maxsize=32)
def _gram_selftest(order, nmax, tol=1e-10):
    xs, wm = gauss_hermite_rule(order)
    h = hermite_values(xs, nmax)
    gram = (h * wm) @ h.T
    err = float(np.max(np.abs(gram - np.eye(nmax))))
    if err > tol:
        raise QuadratureError(
            "orthonormality self-test failed: order %d, nmax %d, error %.3e"
            % (order, nmax, err))
    return err


def hermite_matrix(op, trunc, hbar, quad_order=None):
    """N×N matrix of a DiffOp in x alone in the Hermite-function basis, with
    its symbols evaluated at π and the numeric ħ.

    quad_order defaults to the 4N oversampling floor and may not go below
    it (`oversampled_order`); the orthonormality self-test runs once per
    rule and size, each node table once per call.  Terms are summed in key
    order, so the float sums have a fixed order.  A ValueError refuses a
    matrix with a non-finite entry.
    """
    if not isinstance(op, DiffOp):
        raise TypeError("expected a DiffOp, got %r" % (op,))
    if any(dy or n for _, _, dy, _, n, _ in op.terms):
        raise ValueError("not an operator on the line: %s acts in y" % op)
    N = int(trunc)
    if N < 2:
        raise ValueError("truncation size must be at least 2")
    quad_order = oversampled_order(N, quad_order)
    nprime = N + max(op.order(), 0)
    _gram_selftest(quad_order, nprime)
    xs, wm = gauss_hermite_rule(quad_order)
    values = {"pi": math.pi, "hbar": hbar}
    tables = {}
    total = np.zeros((N, N), dtype=complex)
    for (a, d, _), group in sorted(op.groups().items()):
        nk = N + d
        # centre the shift: x = u − a/2 recombines the Gaussian tails exactly
        for s in (-a / 2.0, a / 2.0):
            if s not in tables:
                tables[s] = hermite_values(xs + s, nprime)
        x = xs - a / 2.0
        hm, hn = tables[-a / 2.0][:N], tables[a / 2.0][:nk]
        fv = 0j
        for (m, _, j), c in sorted(group):
            v = complex(c.evalf(values))
            if j:
                v = v * x ** j
            if m:
                v = v * np.exp(1j * (2.0 * math.pi * m) * x)
            fv = fv + v
        G = (hm * (wm * fv)) @ hn.T
        if d:
            G = G @ np.linalg.matrix_power(derivative_band(nk), d)[:, :N]
        total += G
    if not np.all(np.isfinite(total)):
        raise ValueError("non-finite matrix entries")
    return total


def _fold(blocks, image, phase, close):
    """Grade the blocks [(h, g)] of a set closed under the involution
    σ = `image` by σ.

    A block with σ(h) = h becomes (h, g + (0,)); one with σ(h) = −h becomes
    (phase·h, g + (1,)); a pair h, h′ = σ(h) of equal grade g becomes
    (h + h′)/√2 and phase·(h − h′)/√2, of grades g + (0,) and g + (1,).  Each
    step is a unitary transform of the rows [K(h); K(h′)] of the commutant
    stack, since K is linear, so the singular values stay.  Returns (graded
    blocks, None), or (None, i) for the first block i that has no partner
    under `close`.
    """
    out, used = [], set()
    for i, (h, g) in enumerate(blocks):
        if i in used:
            continue
        img = image(h)
        if close(img, h):
            out.append((h, g + (0,)))
        elif close(img, -h):
            out.append((phase * h, g + (1,)))
        else:
            j = next((j for j in range(i + 1, len(blocks)) if j not in used
                      and blocks[j][1] == g and close(blocks[j][0], img)), None)
            if j is None:
                return None, i
            used.add(j)
            h2 = blocks[j][0]
            out += [(SQRT_HALF * (h + h2), g + (0,)),
                    (phase * SQRT_HALF * (h - h2), g + (1,))]
    return out, None


def _scatter(stack, rowid, h, cols, ti, tj, w):
    """Add w·K(h)E_{ti,tj} = w·(E_{ti,tj} h − h E_{ti,tj}) to the given
    columns: h[tj, b] lands at row (ti, b) and −h[a, ti] at row (a, tj).
    Rowid −1 is the scratch last row; any other (row, column) pair occurs
    once per call, as buffered updates need."""
    cc, w = cols[:, None], w[:, None]
    flat, n = stack.reshape(-1), stack.shape[1]
    flat[rowid[ti] * n + cc] += w * h[tj]
    flat[rowid.T[tj] * n + cc] -= w * h.T[ti]


def _sector_stacks(graded, parity, mate, flip):
    """Yield the stacked K(h) of each nonempty sector (parity p, sign s).

    `graded` holds blocks (h, (q, t)) of parity q and transpose sign (−1)^t.
    `mate` is the τ-grading's involution on flat entry indices: the
    transposition (i, j) ↦ (j, i), or the identity under the trivial
    grading.  `flip` is 1 when it reverses products (the transposition) and
    0 for the identity, so K(h) maps sign s to sign s + t + flip (mod 2).
    Matrices of one parity and sign are coordinatized at one entry k per
    orbit, k ≤ mate(k), fixed entries only for sign +1: the column basis is
    E_k for a fixed k and (E_k + (−1)^s·E_mate(k))/√2 otherwise, and an
    image R is read off as R_k and √2·R_k respectively; both are isometries.
    Each block is first projected onto its sign, (h + (−1)^t·h[mate])/2,
    which is exact under the identity.  At least as many rows as columns
    (zero rows pad a short stack), so the columns with no rows still show up
    as zero singular values.
    """
    M = parity.shape[0]
    flat = np.arange(M * M).reshape(M, M)
    fixed = mate == flat
    orbit = flat <= mate
    weight = np.where(fixed, 1.0, math.sqrt(2.0))

    def reps(par, sgn):
        return orbit & (parity == par % 2) & ~(fixed & (sgn % 2 == 1))

    for p in (0, 1):
        for s in (0, 1):
            ci, cj = np.nonzero(reps(p, s))
            if not ci.size:
                continue
            pair = ~fixed[ci, cj]
            mi, mj = np.divmod(mate[ci, cj][pair], M)
            keeps = [reps(p + q, s + t + flip) for _, (q, t) in graded]
            counts = [int(np.count_nonzero(k)) for k in keeps]
            rows = max(sum(counts), ci.size)
            check_memory(8 * rows * ci.size, "the commutant stack of %d "
                         "blocks at interior size %d" % (len(graded), M))
            stack = np.zeros((rows + 1, ci.size))
            rweight = np.ones(rows)
            cols = np.arange(ci.size)
            start = 0
            for (h, (_, t)), keep, count in zip(graded, keeps, counts):
                h = 0.5 * (h + (1 - 2 * t) * h.ravel()[mate])
                rowid = np.full((M, M), -1)
                rowid[keep] = np.arange(start, start + count)
                rweight[start:start + count] = weight[keep]
                _scatter(stack, rowid, h, cols, ci, cj,
                         np.where(pair, SQRT_HALF, 1.0))
                _scatter(stack, rowid, h, cols[pair], mi, mj,
                         np.full(mi.size, (1 - 2 * s) * SQRT_HALF))
                start += count
            stack = stack[:-1]
            stack *= rweight[:, None]
            yield stack


def commutant_kernel_dim(mats, tol, interior=None):
    """Estimate dim{T : [T, G] = 0 on the interior block} via stacked SVD.

    T ranges over M×M matrices (M = N/2 unless given); embedding T in the
    upper-left corner makes the interior block of [T_emb, G] equal exactly
    to [T, G[:M,:M]], so the constraint matrix is the stacked
    K(G) = kron(G₁₁ᵀ, I) − kron(I, G₁₁).  Returns (kernel_dim, normalized tail).

    The generator set must be closed under entrywise conjugation of the
    interior blocks: every complex G₁₁ has a partner among the others that
    equals its conjugate exactly, and a ValueError names a complex generator
    without one.  Since K(Ḡ) = conj K(G), the unitary row transform
    (1/√2)[[I, I], [−iI, iI]] maps the pair [K(G); K(Ḡ)] to
    √2·[Re K(G); Im K(G)] = [K(√2 Re G); K(√2 Im G)].  A unitary factor on
    the left leaves the singular values alone, so the real stack of those
    blocks (and K(G) for each real G) has exactly the singular values of the
    complex stack.

    Those real blocks are then graded by the Hermite parity P = diag((−1)ⁿ),
    whose conjugation h ↦ PhP flips the sign of the entries with i + j odd.
    A block fixed by it (up to 64·eps·max|h|) is even, one it negates is odd,
    and a pair h, h′ ≈ PhP folds by the orthogonal (1/√2)[[I, I], [I, −I]]
    into the even (h + h′)/√2 and the odd (h − h′)/√2.  K of a block of
    parity q maps the T of parity p onto [T, h] of parity p + q, so the stack
    splits into two independent sectors, T even and T odd, each a quarter
    of the full stack; the union of their singular values is its spectrum.
    Dropping the off-parity residue E of each block moves every singular
    value by at most ‖K(E)‖₂ (Weyl's inequality), about 1e-13 relative for
    the torus generators, far below `tol`.  A set that is not P-closed gets
    the trivial grading: every index even, every block of grade 0, so the
    even sector is the full real stack and the odd sector is empty.

    The graded blocks are then graded once more by the transposition
    τ: T ↦ Tᵀ, which commutes with P, by the same fold and closeness test:
    hᵀ = h is symmetric, hᵀ = −h antisymmetric, and a pair h, h′ ≈ hᵀ of
    equal parity folds into (h + h′)/√2 and (h − h′)/√2.  If hᵀ = t·h then
    [Tᵀ, h] = −t·[T, h]ᵀ, so K(h) maps the T of transpose sign s onto
    matrices of sign −s·t.  Each parity sector splits in two, on the
    orthonormal columns {E_ii} ∪ {(E_ij + s·E_ji)/√2, i < j}; an image of
    sign u is read off at R_aa and √2·R_ab (a < b), none on the diagonal
    when u = −1, which is an isometry onto that subspace.  Both changes of
    basis are orthogonal, so the four sectors (p, s) have between them the
    singular values of the parity sectors.  Each block is projected onto
    its sign first; the residue dropped, (h − t·hᵀ)/2, moves each singular
    value by at most ‖K(·)‖₂ of it (Weyl's inequality again).  On the torus
    set √2 Re A₊, √2 Im A₊ and (B₊ + B₋)/√2 are symmetric and (B₊ − B₋)/√2
    antisymmetric, since B₋ = B₊ᵀ.  A set that is not τ-closed gets the
    trivial τ-grading: the identity involution, every block of grade 0,
    every entry its own orbit, so each parity sector stays whole and its
    antisymmetric half is empty.
    """
    arrs = [np.asarray(m, dtype=complex) for m in mats]
    if not arrs:
        raise ValueError("need at least one generator")
    N = arrs[0].shape[0]
    M = interior if interior is not None else N // 2
    conj, lone = _fold([(g[:M, :M], ()) for g in arrs], np.conj, -1j,
                       np.array_equal)
    if lone is not None:
        raise ValueError("generator %d is complex and no other generator "
                         "equals its conjugate" % lone)
    real_blocks = [(h.real, ()) for h, _ in conj]  # imaginary parts are exactly 0
    parity = np.add.outer(np.arange(M), np.arange(M)) % 2
    sign = 1.0 - 2.0 * parity
    bound = 64 * np.finfo(float).eps * max(float(np.abs(h).max())
                                           for h, _ in real_blocks)

    def close(a, b):
        return float(np.abs(a - b).max()) <= bound

    graded, lone = _fold(real_blocks, lambda h: sign * h, 1.0, close)
    if lone is not None:
        graded = [(h, (0,)) for h, _ in real_blocks]
        parity = np.zeros_like(parity)
    mate = np.arange(M * M).reshape(M, M)
    tgraded, lone = _fold(graded, np.transpose, 1.0, close)
    if lone is None:
        graded, mate, flip = tgraded, mate.T, 1
    else:
        graded, flip = [(h, g + (0,)) for h, g in graded], 0
    sv = np.sort(np.concatenate(
        [np.linalg.svd(stack, compute_uv=False)
         for stack in _sector_stacks(graded, parity, mate, flip)]))[::-1]
    smax = float(sv[0]) if sv.size else 0.0
    if smax <= 1e-300:
        return M * M, [0.0] * min(6, sv.size)
    kdim = int(np.sum(sv < tol * smax))
    tail = (sv[-6:] / smax).tolist()
    return kdim, tail
