"""Extension solving and obstruction certificates.

The solver treats a quantization-extension question as exact linear algebra.
One affine stage runs twice.  It writes every operand as an affine form
F₀ + Σ x_col F_col, linearizes each bracket constraint into rows keyed by
(constraint, operator key), and makes one exact affine solve.  The first run
takes the constraints that are linear in the unknowns (equivariance), each
target a combination of the keys of an operator `Ambient` (normal-ordered
Weyl words, or matrix units).  The second takes the bracket relations
between two unknowns over the family the first run left — anything
genuinely quadratic there comes back "undecided" rather than risking a
wrong verdict.

Certificates replay the classical-identity schedules that force each no-go:
every step records the classical identity, both quantized sides, and their
exact difference, so a reader can re-check each line independently.
"""

from __future__ import annotations

import fractions

from .flat import FlatElement, bracket_flat
from .linalg import solve_affine
from .matrices import ExactMatrix, _half_integer, spin_matrices
from .poly import MultiPoly
from .qmaps import sphere_map, weyl_map
from .scalars import A_SYM, HBAR, S_I, S_ONE, S_ZERO, S_SPIN, Scalar, as_scalar
from .sparse import accumulate
from .sphere import SVARS, SphereElement, bracket_raw
from .subspace import MatrixAmbient, WeylAmbient
from .weyl import (WeylElement, symmetrized, weyl_commutant, weyl_commutator,
                   weyl_product)

I_OVER_HBAR = S_I / HBAR

CONVENTION = "bracket {p,q} = +1; commutator [X,P] = i*hbar; rule Q({f,g}) = (i/hbar)[Q(f),Q(g)]"


# ---------------------------------------------------------------------------
# Extension problems
# ---------------------------------------------------------------------------

# Largest parameter family the bilinear stage linearizes around.
BILINEAR_CAP = 6


class BracketConstraint:
    """One classical identity Σ c_i {f_i, g_i} = (its span expansion),
    quantized as Σ c_i (i/ħ)[Q(f_i), Q(g_i)] = Σ λ_k K_k + Σ μ_t U_t."""

    def __init__(self, terms, label=""):
        self.terms = [(as_scalar(c), f, g) for c, f, g in terms]
        self.label = label

    def __repr__(self):
        return "BracketConstraint(%s)" % (self.label or len(self.terms))


class ExtensionProblem:
    """known: list of (classical element, operator); targets: the classical
    elements needing assignments; ambient: the capped operator span the
    targets are solved in; schedule: BracketConstraints.  A classical
    element's coordinates are its `terms`."""

    def __init__(self, knowns, targets, ambient, schedule, bracket):
        self.knowns = list(knowns)
        self.targets = list(targets)
        self.ambient = ambient
        self.schedule = list(schedule)
        self.bracket = bracket

    def _classify(self, elem):
        """('known', idx) | ('target', idx); matches by classical equality."""
        for i, t in enumerate(self.targets):
            if t == elem:
                return ("target", i)
        for i, (k, _) in enumerate(self.knowns):
            if k == elem:
                return ("known", i)
        raise ValueError("constraint element %s is neither known nor target" % (elem,))

    def expand_in_span(self, elem):
        """Sparse coefficients (λ over knowns, μ over targets) with
        elem = Σ λ_k known_k + Σ μ_t target_t, required unique."""
        cols = [k.terms for k, _ in self.knowns] + [t.terms for t in self.targets]
        rhs = elem.terms
        rows = {key: {} for key in rhs}
        for j, col in enumerate(cols):
            for key, c in col.items():
                rows.setdefault(key, {})[j] = c
        sol = solve_affine(list(rows.values()),
                           [rhs.get(key, S_ZERO) for key in rows], len(cols))
        if sol is None:
            raise ValueError("bracket result %s not in the known+target span" % (elem,))
        part, null = sol
        if null:
            raise ValueError("ambiguous span expansion for %s" % (elem,))
        nk = len(self.knowns)
        return ({j: v for j, v in part.items() if j < nk},
                {j - nk: v for j, v in part.items() if j >= nk})


class SolutionSpace:
    """verdict: unique | family | inconsistent | undecided."""

    def __init__(self, verdict, assignments=None, family=None, contradiction=None,
                 detail=""):
        self.verdict = verdict
        self.assignments = assignments      # list of operators (particular)
        self.family = family or []          # list of direction lists
        self.contradiction = contradiction  # (constraint label, residual op)
        self.detail = detail

    @property
    def parameters(self):
        return len(self.family)

    def operator_for(self, index):
        return self.assignments[index]

    def __repr__(self):
        return "SolutionSpace(%s, parameters=%d)" % (self.verdict, self.parameters)


def _linearize(prob, con, expansion, form):
    """Residual Σ c(i/ħ)[F, G] − Σ λ_k K_k − Σ μ_t U_t of one constraint,
    every operand an affine form F₀ + Σ_col x_col F_col given by `form` as
    the map {None: F₀, col: F_col} (a missing None means F₀ = 0).

    Returns the residual as {operator key: {col: coefficient}}, col None for
    the constant term, or None when some [F_col, G_col'] is nonzero: then
    the residual is genuinely quadratic in x."""
    terms = {}

    def add(op, col, c):
        for key, v in op.terms.items():
            accumulate(terms.setdefault(key, {}), col, c * v)

    for c, f, g in con.terms:
        c_ih = c * I_OVER_HBAR
        for cf, F in form(f).items():
            for cg, G in form(g).items():
                comm = F.commutator(G)
                if cf is None or cg is None:
                    add(comm, cg if cf is None else cf, c_ih)
                elif not comm.is_zero():
                    return None
    lam, mu = expansion
    for k, l in lam.items():
        add(prob.knowns[k][1], None, -l)
    for t, m in mu.items():
        for col, U in form(prob.targets[t]).items():
            add(U, col, -m)
    return terms


def _affine_stage(prob, cons, expansions, target_forms, ncols):
    """Solve the constraints `cons` (schedule indices) for x, with each
    target t the affine form target_forms[t] (see `_linearize`).

    One solve_affine call over rows keyed (constraint, operator key).
    Returns ("quadratic", ci), ("inconsistent", witness) with witness a
    violated (label, residual) or None, or ("solved", (ops, directions))
    with ops the particular assignment F₀ + Σ x·F_col per target and one
    list Σ x·F_col per null vector."""
    def form(elem):
        kind, i = prob._classify(elem)
        return {None: prob.knowns[i][1]} if kind == "known" else target_forms[i]

    rows, rhs = {}, {}
    for ci in cons:
        terms = _linearize(prob, prob.schedule[ci], expansions[ci], form)
        if terms is None:
            return "quadratic", ci
        for key, coeffs in terms.items():
            rhs[(ci, key)] = -coeffs.pop(None, S_ZERO)
            rows[(ci, key)] = coeffs
    sol = solve_affine(list(rows.values()), [rhs[k] for k in rows], ncols)
    if sol is None:
        k = min((k for k in rows if not rows[k] and not rhs[k].is_zero()),
                key=repr, default=None)
        witness = None if k is None else \
            (prob.schedule[k[0]].label or str(prob.schedule[k[0]]), rhs[k])
        return "inconsistent", witness

    def ops(vec, with_const):
        out = []
        for form_t in target_forms:
            op = form_t[None] if with_const and None in form_t \
                else prob.ambient.zero()
            for col, F in form_t.items():
                if col in vec:
                    op = op + F.scale(vec[col])
            out.append(op)
        return out

    part, null = sol
    return "solved", (ops(part, True), [ops(v, False) for v in null])


def extension_solve(prob):
    """Two-stage exact solve of an ExtensionProblem.

    Stage 1 takes the constraints without a target-target bracket, with
    each target an unknown combination of the ambient's keys.  Stage 2 takes
    the rest over the stage-1 family, each target affine in its parameters."""
    ambient = prob.ambient
    atoms = ambient.keys()
    expansions, linear_cons, bilinear_cons = [], [], []
    for ci, con in enumerate(prob.schedule):
        combo = None
        for c, f, g in con.terms:
            scaled = prob.bracket(f, g).scale(c)
            combo = scaled if combo is None else combo + scaled
        expansions.append(prob.expand_in_span(combo))
        bilinear = any(prob._classify(f)[0] == prob._classify(g)[0] == "target"
                       for _, f, g in con.terms)
        (bilinear_cons if bilinear else linear_cons).append(ci)

    # stage 1: target t is Σ_a x_{t,a} a
    stage1 = [{t * len(atoms) + ai: ambient.from_coords({a: S_ONE})
               for ai, a in enumerate(atoms)}
              for t in range(len(prob.targets))]
    status, out = _affine_stage(prob, linear_cons, expansions, stage1,
                                len(prob.targets) * len(atoms))
    if status == "inconsistent":
        return SolutionSpace("inconsistent",
                             contradiction=("equivariance stage", None),
                             detail="linear constraints are already unsatisfiable")
    part_ops, dir_ops = out
    if not bilinear_cons:
        return SolutionSpace("unique" if not dir_ops else "family",
                             part_ops, dir_ops)

    # stage 2: target t is part_ops[t] + Σ_a y_a dir_ops[a][t]
    P = len(dir_ops)
    if P > BILINEAR_CAP:
        return SolutionSpace("undecided",
                             detail="bilinear stage dimension %d exceeds cap %d"
                                    % (P, BILINEAR_CAP))
    stage2 = [{None: part_ops[t], **{a: d[t] for a, d in enumerate(dir_ops)}}
              for t in range(len(prob.targets))]
    status, out = _affine_stage(prob, bilinear_cons, expansions, stage2, P)
    if status == "quadratic":
        con = prob.schedule[out]
        return SolutionSpace(
            "undecided",
            detail="constraint %s is genuinely quadratic in the %d parameters"
                   % (con.label or out, P))
    if status == "inconsistent":
        return SolutionSpace("inconsistent", contradiction=out,
                             detail="bracket relations contradict the linear stage")
    final, fam = out
    return SolutionSpace("unique" if not fam else "family", final, fam)


# ---------------------------------------------------------------------------
# Concrete problem builders (flat)
# ---------------------------------------------------------------------------

def _flat_mono(qe, pe):
    return FlatElement.monomial(1, (qe,), (pe,))

def weyl_generators():
    X = WeylElement.x()
    P = WeylElement.p()
    return X, P


def quadratic_extension_problem():
    """Extend 1, q, p (Schrödinger generators in the Weyl algebra) to the
    quadratics; bracket relations among the quadratics are the bilinear
    stage that pins the central shifts."""
    X, P = weyl_generators()
    one = FlatElement.const(1, S_ONE)
    q = FlatElement.coordinate(1, "q1")
    p = FlatElement.coordinate(1, "p1")
    q2, qp, p2 = _flat_mono(2, 0), _flat_mono(1, 1), _flat_mono(0, 2)
    knowns = [(one, WeylElement.identity()), (q, X), (p, P)]
    targets = [q2, qp, p2]
    schedule = []
    for t in targets:
        for k in (q, p):
            schedule.append(BracketConstraint([(1, k, t)],
                                              "{%s, %s}" % (k, t)))
    for f, g in ((q2, qp), (p2, qp), (q2, p2)):
        schedule.append(BracketConstraint([(1, f, g)], "{%s, %s}" % (f, g)))
    return ExtensionProblem(knowns, targets, WeylAmbient(1, 2), schedule,
                            bracket_flat)


def cubic_extension_problem():
    """Attempt to extend the degree ≤ 2 rules to the cubics; the bilinear
    stage carries the classical identity (1/9){q³,p³} = (1/3){q²p, qp²}."""
    X, P = weyl_generators()
    one = FlatElement.const(1, S_ONE)
    q = FlatElement.coordinate(1, "q1")
    p = FlatElement.coordinate(1, "p1")
    q2, qp, p2 = _flat_mono(2, 0), _flat_mono(1, 1), _flat_mono(0, 2)
    knowns = [
        (one, WeylElement.identity()), (q, X), (p, P),
        (q2, weyl_product(X, X)), (qp, symmetrized(X, P)),
        (p2, weyl_product(P, P)),
    ]
    q3, q2p, qp2, p3 = _flat_mono(3, 0), _flat_mono(2, 1), _flat_mono(1, 2), _flat_mono(0, 3)
    targets = [q3, q2p, qp2, p3]
    schedule = []
    for t in targets:
        for k in (q, p, qp):
            schedule.append(BracketConstraint([(1, k, t)], "{%s, %s}" % (k, t)))
    schedule.append(BracketConstraint(
        [(fractions.Fraction(1, 9), q3, p3), (fractions.Fraction(-1, 3), q2p, qp2)],
        "(1/9){q^3,p^3} - (1/3){q^2 p, q p^2}"))
    return ExtensionProblem(knowns, targets, WeylAmbient(1, 3), schedule,
                            bracket_flat)


def sphere_equivariance_problem(j):
    """Extend 1, S_i ↦ spin matrices to the raw quadratic monomials under
    rotational equivariance only; the solution is the two-parameter family."""
    q1, q2, q3 = spin_matrices(j)
    dim = q1.dim
    sone = MultiPoly.const(SVARS, S_ONE)
    s = [MultiPoly.var(SVARS, v) for v in SVARS]
    knowns = [(sone, ExactMatrix.identity(dim)),
              (s[0], q1), (s[1], q2), (s[2], q3)]
    targets = []
    for i in range(3):
        for k in range(i, 3):
            targets.append(s[i] * s[k])
    schedule = []
    for si in s:
        for t in targets:
            schedule.append(BracketConstraint([(1, si, t)], "{%s, %s}" % (si, t)))
    return ExtensionProblem(knowns, targets, MatrixAmbient(dim), schedule,
                            bracket_raw)


# ---------------------------------------------------------------------------
# Von Neumann rules, degree by degree
# ---------------------------------------------------------------------------

def _power_op(base, e):
    out = WeylElement.identity()
    for _ in range(e):
        out = weyl_product(out, base)
    return out


def vonneumann_rules_flat(degree):
    """Derived rules Q(q^e) = X^e, Q(p^e) = P^e, and the symmetrized mixed
    rules, for 2 ≤ e ≤ degree, each via a unique linear extension solve."""
    if degree < 2:
        raise ValueError("rule derivation starts at degree 2")
    X, P = weyl_generators()
    one = FlatElement.const(1, S_ONE)
    q = FlatElement.coordinate(1, "q1")
    p = FlatElement.coordinate(1, "p1")

    sol2 = extension_solve(quadratic_extension_problem())
    if sol2.verdict != "unique":
        raise RuntimeError("quadratic extension unexpectedly %s" % sol2.verdict)
    rules = {
        (1, 0): X, (0, 1): P, (0, 0): WeylElement.identity(),
        (2, 0): sol2.operator_for(0), (1, 1): sol2.operator_for(1),
        (0, 2): sol2.operator_for(2),
    }
    records = [{
        "degree": 2,
        "classical": str(_flat_mono(2, 0)) + ", " + str(_flat_mono(1, 1)) +
                     ", " + str(_flat_mono(0, 2)),
        "operator": [str(rules[(2, 0)]), str(rules[(1, 1)]), str(rules[(0, 2)])],
        "verdict": sol2.verdict,
        "matches_closed_form": rules[(2, 0)] == weyl_product(X, X)
            and rules[(1, 1)] == symmetrized(X, P)
            and rules[(0, 2)] == weyl_product(P, P),
    }]

    qp = _flat_mono(1, 1)
    for e in range(3, degree + 1):
        for (qe, pe) in ((e, 0), (e - 1, 1), (1, e - 1), (0, e)):
            target = _flat_mono(qe, pe)
            knowns = [(one, rules[(0, 0)]), (q, X), (p, P), (qp, rules[(1, 1)])]
            for (a, b), op in rules.items():
                if 2 <= a + b < e and (a, b) != (1, 1):
                    knowns.append((_flat_mono(a, b), op))
            schedule = [BracketConstraint([(1, k, target)],
                                          "{%s, %s}" % (k, target))
                        for k in (q, p, qp)]
            prob = ExtensionProblem(knowns, [target], WeylAmbient(1, e),
                                    schedule, bracket_flat)
            sol = extension_solve(prob)
            if sol.verdict != "unique":
                raise RuntimeError("rule for %s came back %s" % (target, sol.verdict))
            rules[(qe, pe)] = sol.operator_for(0)
        closed = {
            (e, 0): _power_op(X, e),
            (0, e): _power_op(P, e),
            (e - 1, 1): symmetrized(_power_op(X, e - 1), P),
            (1, e - 1): symmetrized(X, _power_op(P, e - 1)),
        }
        records.append({
            "degree": e,
            "classical": ", ".join(str(_flat_mono(a, b)) for (a, b) in closed),
            "operator": [str(rules[k]) for k in closed],
            "verdict": "unique",
            "matches_closed_form": all(rules[k] == v for k, v in closed.items()),
        })
    return {"rules": rules, "records": records}


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

class ObstructionCertificate:
    def __init__(self, name, reference, steps, verdict, discrepancy,
                 assumptions=()):
        self.name = name
        self.reference = reference
        self.steps = steps              # list of dicts
        self.verdict = verdict          # "inconsistent" | "consistent"
        self.discrepancy = discrepancy  # Scalar, str, or None
        self.assumptions = list(assumptions)
        self.convention = CONVENTION

    def to_dict(self):
        return {
            "name": self.name,
            "reference": self.reference,
            "steps": [{k: (str(v) if not isinstance(v, (bool, int, float, str, type(None)))
                           else v) for k, v in s.items()} for s in self.steps],
            "verdict": self.verdict,
            "discrepancy": str(self.discrepancy) if self.discrepancy is not None else None,
            "assumptions": list(self.assumptions),
            "convention": self.convention,
        }

    def __repr__(self):
        return "ObstructionCertificate(%s: %s)" % (self.name, self.verdict)


def anticommutator_certificate():
    """The square/anti-commutator rule collision on quadratics: reducing
    ¼(XP+PX)² and ½(X²P²+P²X²) to normal order leaves different constants."""
    X, P = weyl_generators()
    W = symmetrized(X, P)
    lhs = weyl_product(W, W)
    x2, p2 = weyl_product(X, X), weyl_product(P, P)
    rhs = Scalar.from_rational(1, 2) * (weyl_product(x2, p2) + weyl_product(p2, x2))
    diff = lhs - rhs
    lhs_const = lhs.scalar_part()
    rhs_const = rhs.scalar_part()
    steps = [
        {"classical": "(qp)^2 = q^2 * p^2",
         "quantum_lhs": str(lhs), "quantum_rhs": str(rhs),
         "difference": str(diff)},
        {"classical": "normal-ordered constant of (1/4)(XP+PX)^2",
         "quantum_lhs": str(lhs_const), "quantum_rhs": "-1/4*hbar^2",
         "difference": str(lhs_const + Scalar.from_rational(1, 4) * HBAR * HBAR)},
        {"classical": "normal-ordered constant of (1/2)(X^2 P^2 + P^2 X^2)",
         "quantum_lhs": str(rhs_const), "quantum_rhs": "-hbar^2",
         "difference": str(rhs_const + HBAR * HBAR)},
    ]
    discrepancy = diff.scalar_part()
    verdict = "inconsistent" if diff.is_scalar() and not discrepancy.is_zero() \
        else "consistent"
    return ObstructionCertificate(
        "anticommutator", "Groenewold-Van Hove (flat quadratics)",
        steps, verdict, discrepancy)


def groenewold_certificate():
    """The cubic contradiction: both quantizations of q²p² forced by the
    classical identity (1/9){q³,p³} = (1/3){q²p, qp²} differ by a nonzero
    multiple of the identity."""
    X, P = weyl_generators()
    q3 = FlatElement.monomial(1, (3,), (0,))
    p3 = FlatElement.monomial(1, (0,), (3,))
    q2p = FlatElement.monomial(1, (2,), (1,))
    qp2 = FlatElement.monomial(1, (1,), (2,))
    classical = bracket_flat(q3, p3).scale(Scalar.from_rational(1, 9)) - \
        bracket_flat(q2p, qp2).scale(Scalar.from_rational(1, 3))
    rules = vonneumann_rules_flat(3)["rules"]
    ninth = Scalar.from_rational(1, 9) * I_OVER_HBAR
    third = Scalar.from_rational(1, 3) * I_OVER_HBAR
    route1 = ninth * weyl_commutator(rules[(3, 0)], rules[(0, 3)])
    route2 = third * weyl_commutator(rules[(2, 1)], rules[(1, 2)])
    diff = route1 - route2
    disc = diff.scalar_part()
    h2 = HBAR * HBAR
    norm1 = route1.scalar_part() / h2   # constant in units of ħ²
    norm2 = route2.scalar_part() / h2
    steps = [
        {"classical": "(1/9){q^3,p^3} - (1/3){q^2 p, q p^2} = 0",
         "quantum_lhs": str(classical), "quantum_rhs": "0",
         "difference": str(classical)},
        {"classical": "(1/9)(i/hbar)[Q(q^3), Q(p^3)]",
         "quantum_lhs": str(route1),
         "quantum_rhs": "constant term %s = (%s)*hbar^2" % (route1.scalar_part(), norm1),
         "difference": "normalized constant %s" % norm1},
        {"classical": "(1/3)(i/hbar)[Q(q^2 p), Q(q p^2)]",
         "quantum_lhs": str(route2),
         "quantum_rhs": "constant term %s = (%s)*hbar^2" % (route2.scalar_part(), norm2),
         "difference": "normalized constant %s" % norm2},
        {"classical": "difference of the two quantizations of q^2 p^2",
         "quantum_lhs": str(route1), "quantum_rhs": str(route2),
         "difference": str(diff)},
    ]
    verdict = "inconsistent" if diff.is_scalar() and not disc.is_zero() \
        else "consistent"
    return ObstructionCertificate(
        "groenewold", "Groenewold's theorem (no extension past quadratics)",
        steps, verdict, disc)


def _entrywise_ratio(m, base):
    """λ with m = λ·base, if it exists (exact); None otherwise."""
    if base.is_zero():
        return None
    key = min(base.terms)
    lam = m.entry(*key) / base.terms[key]
    if (m - base.scale(lam)).is_zero():
        return lam
    return None


def sphere_certificate(j):
    """Spin-j no-go: the bracket identities on quadratics force two
    incompatible values of s²; j = 0 is the consistent trivial case."""
    twoj = _half_integer(j)
    if twoj == 0:
        third = Scalar.from_rational(1, 3) * S_SPIN * S_SPIN
        steps = [{
            "classical": "Q(f) = f0 (evaluation at the trivial representation)",
            "quantum_lhs": "Q(S_i^2) = (s^2/3) I",
            "quantum_rhs": str(third),
            "difference": "0",
        }]
        return ObstructionCertificate(
            "sphere(j=0)", "spin quantization (trivial case)",
            steps, "consistent", None)

    jj1 = Scalar.from_rational(twoj * (twoj + 2), 4)   # j(j+1)
    a = A_SYM
    s2 = S_SPIN * S_SPIN
    # impose the Casimir consistency  a ħ² j(j+1) + 3c = s²
    const_c = (s2 - a * HBAR * HBAR * jj1) * Scalar.from_rational(1, 3)
    qmap = sphere_map(j, a, const_c)
    s = [MultiPoly.var(SVARS, v) for v in SVARS]
    steps = [{
        "classical": "S.S = s^2 (Casimir), so Q(S.S) = s^2 I fixes c",
        "quantum_lhs": "a*hbar^2*j(j+1) + 3c",
        "quantum_rhs": str(s2),
        "difference": "c = %s" % const_c,
    }]
    assumptions = ["a != 0 and c != 0 (nontriviality input)",
                   "s > 0 (sphere radius)"]

    def Q(poly):
        return qmap(poly)

    def ih(mat):
        return mat.scale(I_OVER_HBAR)

    # identity 1:  {S1²−S2², S1S2} − {S2S3, S3S1} = −(S.S)·S3 ≡ −s² S3
    lhs_cl = bracket_raw(s[0] * s[0] - s[1] * s[1], s[0] * s[1]) - \
        bracket_raw(s[1] * s[2], s[2] * s[0])
    expect_cl = -(s[0] * s[0] + s[1] * s[1] + s[2] * s[2]) * s[2]
    cl_ok = (lhs_cl - expect_cl).is_zero()
    canon = SphereElement.canonicalize(lhs_cl)
    canon_expected = SphereElement.canonicalize(s[2]).scale(-s2)
    m1 = ih(Q(s[0] * s[0]).commutator(Q(s[0] * s[1]))) - \
        ih(Q(s[1] * s[1]).commutator(Q(s[0] * s[1]))) - \
        ih(Q(s[1] * s[2]).commutator(Q(s[2] * s[0])))
    q3mat = Q(s[2])
    lam1 = _entrywise_ratio(m1, q3mat)
    if lam1 is None:
        raise RuntimeError("quantized identity 1 is not a multiple of Q(S3)")
    # (Q1) demands λ₁·Q(S3) = Q(−s² S3), i.e. s² = −λ₁
    s2_value_1 = -lam1
    target1 = a * a * HBAR * HBAR * (jj1 - Scalar.from_rational(3, 4))
    steps.append({
        "classical": "{S1^2-S2^2, S1 S2} - {S2 S3, S3 S1} = -(S.S) S3 "
                     "(exact: %s; canonical class -s^2 S3: %s)"
                     % (cl_ok, canon == canon_expected),
        "quantum_lhs": "(i/hbar)([Q(S1^2)-Q(S2^2), Q(S1 S2)] - [Q(S2 S3), Q(S3 S1)])"
                       " = (%s) Q(S3)" % lam1,
        "quantum_rhs": "Q(-s^2 S3) = -s^2 Q(S3)",
        "difference": "s^2 = %s (target a^2 hbar^2 (j(j+1) - 3/4) = %s)"
                      % (s2_value_1, target1),
    })
    if not (s2_value_1 - target1).is_zero():
        raise RuntimeError("identity 1 derived %s, expected %s"
                           % (s2_value_1, target1))

    if twoj == 1:
        # s² = a²ħ²(3/4 − 3/4) = 0 contradicts s > 0
        steps.append({
            "classical": "j = 1/2: j(j+1) - 3/4 = 0",
            "quantum_lhs": "s^2 = %s" % s2_value_1,
            "quantum_rhs": "s > 0",
            "difference": "s^2 = 0 vs s > 0",
        })
        return ObstructionCertificate(
            "sphere(j=1/2)", "spin quantization no-go",
            steps, "inconsistent", "s^2 = 0 vs s > 0", assumptions)

    # identity 2:  {S2², {S1S2, S1S3}} − (3/4){S1², {S1², S2S3}} = 2 s² S2S3
    inner1 = bracket_raw(s[0] * s[1], s[0] * s[2])
    inner2 = bracket_raw(s[0] * s[0], s[1] * s[2])
    lhs2_cl = bracket_raw(s[1] * s[1], inner1) - \
        bracket_raw(s[0] * s[0], inner2).scale(Scalar.from_rational(3, 4))
    canon2 = SphereElement.canonicalize(lhs2_cl)
    canon2_expected = SphereElement.canonicalize(s[1] * s[2]).scale(
        Scalar.from_rational(2) * s2)
    cl2_ok = canon2 == canon2_expected
    q_inner1 = ih(Q(s[0] * s[1]).commutator(Q(s[0] * s[2])))
    q_inner2 = ih(Q(s[0] * s[0]).commutator(Q(s[1] * s[2])))
    m2 = ih(Q(s[1] * s[1]).commutator(q_inner1)) - \
        ih(Q(s[0] * s[0]).commutator(q_inner2)).scale(Scalar.from_rational(3, 4))
    base2 = Q(s[1] * s[2])          # equals (a/2)(Q2Q3 + Q3Q2)
    lam2 = _entrywise_ratio(m2, base2)
    if lam2 is None:
        raise RuntimeError("quantized identity 2 is not a multiple of Q(S2 S3)")
    # (Q1) twice demands λ₂·Q(S2S3) = Q(2 s² S2S3), i.e. s² = λ₂/2
    s2_value_2 = lam2 * Scalar.from_rational(1, 2)
    target2 = a * a * HBAR * HBAR * (jj1 - Scalar.from_rational(9, 4))
    steps.append({
        "classical": "{S2^2,{S1 S2, S1 S3}} - (3/4){S1^2,{S1^2, S2 S3}} = "
                     "2 s^2 S2 S3 as canonical classes (%s)" % cl2_ok,
        "quantum_lhs": "nested (i/hbar)-commutators = (%s) Q(S2 S3)" % lam2,
        "quantum_rhs": "Q(2 s^2 S2 S3) = 2 s^2 Q(S2 S3)",
        "difference": "s^2 = %s (target a^2 hbar^2 (j(j+1) - 9/4) = %s)"
                      % (s2_value_2, target2),
    })
    if not (s2_value_2 - target2).is_zero():
        raise RuntimeError("identity 2 derived %s, expected %s"
                           % (s2_value_2, target2))

    gap = s2_value_1 - s2_value_2
    steps.append({
        "classical": "both identities must give the same s^2",
        "quantum_lhs": str(s2_value_1),
        "quantum_rhs": str(s2_value_2),
        "difference": str(gap),
    })
    verdict = "inconsistent" if not gap.is_zero() else "consistent"
    return ObstructionCertificate(
        "sphere(j=%s)" % (j,), "spin quantization no-go",
        steps, verdict, gap, assumptions)


def position_nonextension_certificate():
    """The position representation cannot reach p²: T in Q(p²) = P² + T
    must be scalar (trivial commutant), the identity 2p² = {p², qp} pins
    T = 0, and the resulting quadratic rules collide with the cubic
    contradiction."""
    X, P = weyl_generators()
    box = [(m, k) for m in range(4) for k in range(4)]   # X^m P^k, m, k <= 3
    comm_basis = weyl_commutant([X, P], box)
    commutant_scalar = comm_basis.dim() == 1 and \
        comm_basis.elements()[0].is_scalar()
    steps = [{
        "classical": "commutant of {q, -i hbar d/dq} within order <= 3, "
                     "coefficient degree <= 3",
        "quantum_lhs": "dimension %d" % comm_basis.dim(),
        "quantum_rhs": "scalars only",
        "difference": "trivial: %s" % commutant_scalar,
    }]
    # T scalar: Q(p²) = P² + τ with P² = −ħ²d²/dq²; 2p² = {p², qp} forces τ = 0
    p2_main = weyl_product(P, P)
    # residual of  2(P² + τ) − (i/ħ)[P² + τ, Q(qp)]  must vanish
    lhs_op = p2_main.scale(Scalar.from_rational(2))
    rhs_op = weyl_commutator(p2_main, weyl_map(_flat_mono(1, 1))).scale(I_OVER_HBAR)
    resid_noT = lhs_op - rhs_op
    # τ enters as 2τ − (i/ħ)[τI, Q(qp)] = 2τ ⇒ τ = −(residual without T)/2
    tau_coeff = Scalar.from_rational(2)
    tau = None
    if resid_noT.is_zero():
        tau = S_ZERO
    elif resid_noT.is_scalar():
        tau = -(resid_noT.scalar_part()) / tau_coeff
    steps.append({
        "classical": "2 p^2 = {p^2, qp}",
        "quantum_lhs": "2(-hbar^2 d^2/dq^2 + T) vs (i/hbar)[-hbar^2 d^2/dq^2 + T, Q(qp)]",
        "quantum_rhs": "forces T = %s" % tau,
        "difference": str(resid_noT),
    })
    chained = groenewold_certificate()
    steps.append({
        "classical": "with T = 0 the quadratic rules are the symmetrized ones; "
                     "extending past them reruns the cubic contradiction",
        "quantum_lhs": "chained certificate: %s" % chained.name,
        "quantum_rhs": chained.verdict,
        "difference": str(chained.discrepancy),
    })
    verdict = "inconsistent" if (commutant_scalar and tau is not None
                                 and tau.is_zero()
                                 and chained.verdict == "inconsistent") \
        else "consistent"
    return ObstructionCertificate(
        "position_nonextension", "Van Hove restriction (position representation)",
        steps, verdict, chained.discrepancy)


def strong_nogo_record():
    """Corollary record: uniqueness of the quadratic extension plus the cubic
    contradiction; no new computation beyond those two results."""
    sol = extension_solve(quadratic_extension_problem())
    cert = groenewold_certificate()
    steps = [
        {"classical": "extension of the Schrödinger generators to quadratics",
         "quantum_lhs": "verdict %s" % sol.verdict,
         "quantum_rhs": "unique (symmetrized quadratics)",
         "difference": "parameters remaining: %d" % sol.parameters},
        {"classical": "extension beyond the quadratics",
         "quantum_lhs": "verdict %s" % cert.verdict,
         "quantum_rhs": "inconsistent",
         "difference": str(cert.discrepancy)},
    ]
    verdict = "inconsistent" if sol.verdict == "unique" and \
        cert.verdict == "inconsistent" else "consistent"
    return ObstructionCertificate(
        "strong_nogo", "strong no-go corollary (uniqueness + cubic obstruction)",
        steps, verdict, cert.discrepancy)


def torus_transform_identities(k, trunc=64, quad_order=None):
    """Interior-block errors of A₋A₊ = I + 4π²k²x² and
    B₋B₊ = I − 4π²ħ²k² d²/dx² in the truncated Hermite basis.

    The right-hand sides are built from independent band matrices (the
    multiply-by-x tridiagonal and the derivative band) at size N+1 so the
    product picks up the correct one-step coupling before cropping.  The
    A-side product is composed exactly (a DiffOp product) before truncation:
    A± are multiplications by linearly growing symbols, so the product of
    their truncations converges far too slowly in N, while their composite
    is again a single multiplication with exact matrix elements.  The B-side
    uses genuine truncated matrix products (shift/derivative tails decay
    fast enough)."""
    import math

    import numpy as np

    from .hermite import (check_quadrature_size, derivative_band, hermite_matrix,
                          position_tridiagonal)
    from .qmaps import (DEFAULT_TORUS_HBAR, torus_transformed_ops,
                        transformed_harmonic_op)
    if k < 1:
        raise ValueError("k must be a positive integer")
    if trunc < 4:
        raise ValueError("truncation too small")
    check_quadrature_size(trunc, quad_order)
    hbar = DEFAULT_TORUS_HBAR
    N = trunc
    M = N // 2
    mats = torus_transformed_ops(k, N, hbar, quad_order)
    b_plus, b_minus = mats[2], mats[3]
    w = 2.0 * math.pi * k
    eye = np.eye(N)
    xe = position_tridiagonal(N + 1)
    rhs_a = eye + (w * w) * (xe @ xe)[:N, :N]
    de = derivative_band(N + 1)
    rhs_b = eye - (w * hbar) ** 2 * (de @ de)[:N, :N]
    composite_a = transformed_harmonic_op(-k, 0) * transformed_harmonic_op(k, 0)
    mat_a = hermite_matrix(composite_a, N, hbar, quad_order)
    err_a = float(np.max(np.abs(mat_a.entries[:M, :M] - rhs_a[:M, :M])))
    err_b = float(np.max(np.abs(
        (b_minus @ b_plus).entries[:M, :M] - rhs_b[:M, :M])))
    return {
        "k": k, "trunc": N, "hbar": hbar,
        "quad_order": mat_a.provenance.get("quad_order"),
        "interior": M,
        "error_a_identity": err_a,
        "error_b_identity": err_b,
    }


def torus_irreducibility(k, trunc=64, tol=1e-6, quad_order=None):
    """Numeric commutant-kernel estimate for the transformed torus operators."""
    from .hermite import check_memory, check_quadrature_size, commutant_kernel_dim
    from .qmaps import DEFAULT_TORUS_HBAR, torus_transformed_ops
    if k < 1:
        raise ValueError("k must be a positive integer")
    if trunc < 32:
        raise ValueError("truncation must be at least 32")
    check_quadrature_size(trunc, quad_order)
    # the largest sector the commutant stack can take, M = N/2: with the
    # parity grading alone (a set that is not τ-closed) four real slabs of
    # ⌈M²/2⌉ rows by ⌈M²/2⌉ float64 columns (8·M⁴ bytes for even M), plus
    # the O(M³) index arrays its builder holds.  The τ-graded sectors of the
    # torus set are about a quarter of that, but the bound must hold for
    # whichever grading the generators admit.
    M = trunc // 2
    half = (M * M + 1) // 2
    check_memory(32 * half * half + 64 * M ** 3,
                 "the commutant stack at truncation %d" % trunc)
    mats = torus_transformed_ops(k, trunc, DEFAULT_TORUS_HBAR, quad_order)
    kdim, tail = commutant_kernel_dim(mats, tol)
    gap = None
    if len(tail) >= 2:
        below = [t for t in tail if t < tol]
        above = [t for t in tail if t >= tol]
        if below and above:
            gap = min(above) / max(max(below), 1e-300)
    return {
        "k": k,
        "trunc": trunc,
        "tol": tol,
        "hbar": DEFAULT_TORUS_HBAR,
        "quad_order": mats[0].provenance.get("quad_order"),
        "commutant_dim_estimate": kdim,
        "singular_tail": tail,
        "singular_gap": gap,
        "verdict": "irreducible (numeric)" if kdim == 1 else
                   "not established (kernel dim %d)" % kdim,
    }
