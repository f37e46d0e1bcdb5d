"""Extension solving and obstruction certificates.

The solver treats a quantization-extension question as exact linear algebra.
One affine stage runs twice.  It writes every operand as an affine form
F₀ + Σ x_col F_col, linearizes each bracket constraint into rows keyed by
(constraint, operator key), and makes one exact affine solve.  Knowns and
targets are distinct monomials, so a bracket's expansion is its terms.
Within a stage each (i/ħ)-commutator of two operand operators is computed
once, however many constraints and targets share it (for Weyl operands, a
polynomial in ħ).  The first run takes the constraints that are linear in
the unknowns (equivariance), each target a combination of one shared basis
of an operator `Ambient`'s keys (normal-ordered Weyl words, or matrix
units).  The second takes the bracket
relations between two unknowns over the family the first run left —
anything genuinely quadratic there comes back "undecided" rather than
risking a wrong verdict.  The von Neumann rules pose one problem per
degree, over all four of its targets at once.

Certificates replay the classical-identity schedules that force each no-go:
every step records the classical identity, both quantized sides, and their
exact difference, so a reader can re-check each line independently.
"""

from __future__ import annotations

import fractions
import functools
import math

from .flat import FlatElement, bracket_flat
from .hermite import (check_memory, commutant_kernel_dim, derivative_band,
                      hermite_matrix, position_tridiagonal, quadrature_order)
from .linalg import solve_affine
from .matrices import ExactMatrix, _half_integer, spin_matrices
from .poly import MultiPoly
from .qmaps import (DEFAULT_TORUS_HBAR, TORUS_PREQUANT, check_q1, sphere_constant,
                    sphere_map, torus_transformed_ops, transformed_harmonic_op,
                    weyl_map)
from .scalars import A_SYM, HBAR, S_ONE, S_ZERO, S_SPIN, Scalar, as_scalar
from .sparse import accumulate
from .sphere import R2, SVARS, SphereElement, bracket_raw, bracket_sphere
from .subspace import MatrixAmbient, WeylAmbient
from .torus import basic_set
from .weyl import WeylElement, symmetrized, weyl_commutant, weyl_product


# ---------------------------------------------------------------------------
# Extension problems
# ---------------------------------------------------------------------------

# Largest parameter family the bilinear stage linearizes around.
BILINEAR_CAP = 6


class BracketConstraint:
    """One classical identity Σ c_i {f_i, g_i} = Σ m·key over the terms of
    its left side, quantized as Σ c_i (i/ħ)[Q(f_i), Q(g_i)] = Σ m·Q(key)."""

    def __init__(self, terms, label=""):
        self.terms = [(as_scalar(c), f, g) for c, f, g in terms]
        self.label = label
        if not self.terms:
            raise ValueError("bracket constraint %r has no terms" % (label,))

    def __repr__(self):
        return "BracketConstraint(%s)" % (self.label or len(self.terms))


class ExtensionProblem:
    """known: list of (classical element, operator); targets: the classical
    elements needing assignments; ambient: the capped operator span the
    targets are solved in; schedule: BracketConstraints.  Each known and
    target is a distinct monomial of coefficient 1, and `slot` maps its key
    to ('known', i) or ('target', i)."""

    def __init__(self, knowns, targets, ambient, schedule, bracket):
        self.knowns = list(knowns)
        self.targets = list(targets)
        self.ambient = ambient
        self.schedule = list(schedule)
        self.bracket = bracket
        self.slot = {}
        for kind, elems in (("known", [k for k, _ in self.knowns]),
                            ("target", self.targets)):
            for i, elem in enumerate(elems):
                key = next(iter(elem.terms), None)
                if elem.terms != {key: S_ONE} or key in self.slot:
                    raise ValueError("%s %s is not a distinct monomial of "
                                     "coefficient 1" % (kind, elem))
                self.slot[key] = (kind, i)


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

    def __repr__(self):
        return "SolutionSpace(%s, parameters=%d)" % (self.verdict, self.parameters)


def _linearize(terms, combo, form, ih_commutator):
    """Residual Σ c(i/ħ)[F, G] − Σ m·Q(key) of one constraint, given its
    terms (c, key of f, key of g) and its classical side combo {key: m},
    every known or target an affine form F₀ + Σ x_col F_col given by
    `form(key)` as the map {None: F₀, col: F_col} (a missing None means
    F₀ = 0), and `ih_commutator(F, G)` giving (i/ħ)[F, G] for two of their
    operators.

    Returns the residual as {operator key: {col: coefficient}}, col None for
    the constant term, or None when some [F_col, G_col'] is nonzero: then
    the residual is genuinely quadratic in x."""
    out = {}

    def add(op, col, c):
        for key, v in op.terms.items():
            accumulate(out.setdefault(key, {}), col, c * v)

    for c, f, g in terms:
        for cf, F in form(f).items():
            for cg, G in form(g).items():
                comm = ih_commutator(F, G)
                if cf is None or cg is None:
                    add(comm, cg if cf is None else cf, c)
                elif not comm.is_zero():
                    return None
    for key, m in combo.items():
        for col, F in form(key).items():
            add(F, col, -m)
    return out


def _affine_stage(prob, cons, sides, target_forms, ncols):
    """Solve the constraints `cons` (schedule indices) for x, with each
    target t the affine form target_forms[t] and sides[ci] the (terms,
    combo) of constraint ci (see `_linearize`).

    Every (i/ħ)-commutator of two operands is computed once per stage: the
    operators are held by prob.knowns and target_forms for the whole stage,
    so their ids key the memo, which is emptied before the solve.

    One solve_affine call over rows keyed (constraint, operator key).
    Returns ("quadratic", ci), ("inconsistent", witness) with witness a
    violated (label, residual) or None, or ("solved", (ops, directions))
    with ops the particular assignment F₀ + Σ x·F_col per target and one
    list Σ x·F_col per null vector."""
    def form(key):
        kind, i = prob.slot[key]
        return {None: prob.knowns[i][1]} if kind == "known" else target_forms[i]

    comms = {}

    def ih_commutator(F, G):
        key = (id(F), id(G))
        comm = comms.get(key)
        if comm is None:
            comm = comms[key] = F.ih_commutator(G)
        return comm

    rows, rhs = {}, {}
    for ci in cons:
        terms = _linearize(*sides[ci], form, ih_commutator)
        if terms is None:
            return "quadratic", ci
        for key, coeffs in terms.items():
            rhs[(ci, key)] = -coeffs.pop(None, S_ZERO)
            rows[(ci, key)] = coeffs
    comms.clear()
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

    def key(elem):
        k = next(iter(elem.terms), None)
        if k not in prob.slot or elem.terms != {k: S_ONE}:
            raise ValueError("constraint element %s is neither known nor target"
                             % (elem,))
        return k

    sides, linear_cons, bilinear_cons = [], [], []
    for ci, con in enumerate(prob.schedule):
        terms, combo = [], None
        for c, f, g in con.terms:
            terms.append((c, key(f), key(g)))
            scaled = prob.bracket(f, g).scale(c)
            combo = scaled if combo is None else combo + scaled
        if any(k not in prob.slot for k in combo.terms):
            raise ValueError("bracket result %s not in the known+target span"
                             % (combo,))
        sides.append((terms, combo.terms))
        bilinear = any(prob.slot[f][0] == prob.slot[g][0] == "target"
                       for _, f, g in terms)
        (bilinear_cons if bilinear else linear_cons).append(ci)

    # stage 1: target t is Σ_a x_{t,a} a, over one shared basis of atoms
    basis = [ambient.from_coords({a: S_ONE}) for a in atoms]
    stage1 = [{t * len(atoms) + ai: b for ai, b in enumerate(basis)}
              for t in range(len(prob.targets))]
    status, out = _affine_stage(prob, linear_cons, sides, stage1,
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
    status, out = _affine_stage(prob, bilinear_cons, sides, stage2, P)
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


def _bracket_constraint(f, g):
    return BracketConstraint([(1, f, g)], "{%s, %s}" % (f, g))


def _flat_problem(rules, targets, brackets_with, extra=()):
    """Extend `rules`, a map {(a, b): Q(q^a p^b)} on one degree of freedom,
    to the monomials q^a p^b of `targets`, given by their exponent pairs:
    one constraint {k, t} for each target t and each k in `brackets_with`,
    then the constraints `extra`."""
    ks = [_flat_mono(*k) for k in brackets_with]
    ts = [_flat_mono(*t) for t in targets]
    schedule = [_bracket_constraint(k, t) for t in ts for k in ks]
    return ExtensionProblem([(_flat_mono(*k), op) for k, op in rules.items()],
                            ts, WeylAmbient(1, max(map(sum, targets))),
                            schedule + list(extra), bracket_flat)


def _schrodinger_rules():
    """Q(1) = I, Q(q) = X, Q(p) = P."""
    return {(0, 0): WeylElement.identity(), (1, 0): WeylElement.x(),
            (0, 1): WeylElement.p()}


def quadratic_extension_problem():
    """Extend 1, q, p (Schrödinger generators in the Weyl algebra) to the
    quadratics; bracket relations among the quadratics are the bilinear
    stage that pins the central shifts."""
    q2, qp, p2 = _flat_mono(2, 0), _flat_mono(1, 1), _flat_mono(0, 2)
    return _flat_problem(
        _schrodinger_rules(), [(2, 0), (1, 1), (0, 2)], [(1, 0), (0, 1)],
        [_bracket_constraint(f, g) for f, g in ((q2, qp), (p2, qp), (q2, p2))])


def cubic_extension_problem():
    """Attempt to extend the degree ≤ 2 rules to the cubics; the bilinear
    stage carries the classical identity (1/9){q³,p³} = (1/3){q²p, qp²}."""
    rules = _schrodinger_rules()
    X, P = rules[(1, 0)], rules[(0, 1)]
    rules.update({(2, 0): weyl_product(X, X), (1, 1): symmetrized(X, P),
                  (0, 2): weyl_product(P, P)})
    q3, q2p, qp2, p3 = _flat_mono(3, 0), _flat_mono(2, 1), _flat_mono(1, 2), _flat_mono(0, 3)
    return _flat_problem(
        rules, [(3, 0), (2, 1), (1, 2), (0, 3)], [(1, 0), (0, 1), (1, 1)],
        [BracketConstraint([(fractions.Fraction(1, 9), q3, p3),
                            (fractions.Fraction(-1, 3), q2p, qp2)],
                           "(1/9){q^3,p^3} - (1/3){q^2 p, q p^2}")])


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
    schedule = [_bracket_constraint(si, t) for si in s for t in targets]
    return ExtensionProblem(knowns, targets, MatrixAmbient(dim), schedule,
                            bracket_raw)


# ---------------------------------------------------------------------------
# Von Neumann rules, degree by degree
# ---------------------------------------------------------------------------

def vonneumann_rules_flat(degree):
    """Derived rules Q(q^e) = X^e, Q(p^e) = P^e, and the symmetrized mixed
    rules, for 2 ≤ e ≤ degree, each via a unique linear extension solve and
    compared with the Weyl map, the closed form of all four."""
    if degree < 2:
        raise ValueError("rule derivation starts at degree 2")
    rules = _schrodinger_rules()
    records = []

    def record(e, keys):
        records.append({
            "degree": e,
            "classical": ", ".join(str(_flat_mono(*k)) for k in keys),
            "operator": [str(rules[k]) for k in keys],
            "verdict": "unique",
            "matches_closed_form": all(rules[k] == weyl_map(_flat_mono(*k))
                                       for k in keys),
        })

    sol2 = extension_solve(quadratic_extension_problem())
    if sol2.verdict != "unique":
        raise RuntimeError("quadratic extension unexpectedly %s" % sol2.verdict)
    quadratics = [(2, 0), (1, 1), (0, 2)]
    rules.update(zip(quadratics, sol2.assignments))
    record(2, quadratics)
    for e in range(3, degree + 1):
        # {k, t} lands in the knowns or in t itself, so the four targets'
        # constraints are independent blocks of one solve
        targets = [(e, 0), (e - 1, 1), (1, e - 1), (0, e)]
        sol = extension_solve(_flat_problem(rules, targets,
                                            [(1, 0), (0, 1), (1, 1)]))
        if sol.verdict != "unique":
            raise RuntimeError("rules for degree %d came back %s"
                               % (e, sol.verdict))
        rules.update(zip(targets, sol.assignments))
        record(e, [(e, 0), (0, e), (e - 1, 1), (1, e - 1)])
    return {"rules": rules, "records": records}


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

class ObstructionCertificate:
    """Steps (dicts of display values) and the verdict they force.

    Two optional step booleans, never emitted, decide it: a false "premise"
    (a classical identity, a trivial commutant: what the chain stands on)
    makes it undecided; else a false "claim" (a difference that must vanish,
    an error under its tolerance) makes it inconsistent, measured by
    `discrepancy`; else it is consistent, with no discrepancy."""

    def __init__(self, name, reference, steps, discrepancy, assumptions=()):
        self.name = name
        self.reference = reference
        self.steps = steps
        if not all(s.get("premise", True) for s in steps):
            self.verdict = "undecided"
        elif not all(s.get("claim", True) for s in steps):
            self.verdict = "inconsistent"
        else:
            self.verdict, discrepancy = "consistent", None
        self.discrepancy = discrepancy  # Scalar, str, or None
        self.assumptions = list(assumptions)

    def to_dict(self):
        return {
            "name": self.name,
            "reference": self.reference,
            "steps": [{k: (str(v) if not isinstance(v, (bool, int, float, str, type(None)))
                           else v) for k, v in s.items()
                       if k not in ("premise", "claim")} for s in self.steps],
            "verdict": self.verdict,
            "discrepancy": str(self.discrepancy) if self.discrepancy is not None else None,
            "assumptions": list(self.assumptions),
        }

    def __repr__(self):
        return "ObstructionCertificate(%s: %s)" % (self.name, self.verdict)


def anticommutator_certificate():
    """The square/anti-commutator rule collision on quadratics: reducing
    ¼(XP+PX)² and ½(X²P²+P²X²) to normal order leaves different constants."""
    X, P = WeylElement.x(), WeylElement.p()
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
         "difference": str(diff), "claim": diff.is_zero()},
        {"classical": "normal-ordered constant of (1/4)(XP+PX)^2",
         "quantum_lhs": str(lhs_const), "quantum_rhs": "-1/4*hbar^2",
         "difference": str(lhs_const + Scalar.from_rational(1, 4) * HBAR * HBAR)},
        {"classical": "normal-ordered constant of (1/2)(X^2 P^2 + P^2 X^2)",
         "quantum_lhs": str(rhs_const), "quantum_rhs": "-hbar^2",
         "difference": str(rhs_const + HBAR * HBAR)},
    ]
    return ObstructionCertificate(
        "anticommutator", "Groenewold-Van Hove (flat quadratics)",
        steps, diff.scalar_part())


@functools.lru_cache(maxsize=1)
def groenewold_certificate():
    """The cubic contradiction: both quantizations of q²p² forced by the
    classical identity (1/9){q³,p³} = (1/3){q²p, qp²} differ by a nonzero
    multiple of the identity.

    Cached: `verify r2n` asks for it directly and again through
    `position_nonextension_certificate`, and no caller mutates it."""
    q3 = FlatElement.monomial(1, (3,), (0,))
    p3 = FlatElement.monomial(1, (0,), (3,))
    q2p = FlatElement.monomial(1, (2,), (1,))
    qp2 = FlatElement.monomial(1, (1,), (2,))
    classical = bracket_flat(q3, p3).scale(Scalar.from_rational(1, 9)) - \
        bracket_flat(q2p, qp2).scale(Scalar.from_rational(1, 3))
    rules = vonneumann_rules_flat(3)["rules"]
    route1 = Scalar.from_rational(1, 9) * rules[(3, 0)].ih_commutator(rules[(0, 3)])
    route2 = Scalar.from_rational(1, 3) * rules[(2, 1)].ih_commutator(rules[(1, 2)])
    diff = route1 - route2
    h2 = HBAR * HBAR
    norm1 = route1.scalar_part() / h2   # constant in units of ħ²
    norm2 = route2.scalar_part() / h2
    steps = [
        {"classical": "(1/9){q^3,p^3} - (1/3){q^2 p, q p^2} = 0",
         "quantum_lhs": str(classical), "quantum_rhs": "0",
         "difference": str(classical), "premise": classical.is_zero()},
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
         "difference": str(diff), "claim": diff.is_zero()},
    ]
    return ObstructionCertificate(
        "groenewold", "Groenewold's theorem (no extension past quadratics)",
        steps, diff.scalar_part())


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
            "sphere(j=0)", "spin quantization (trivial case)", steps, None)

    jj1 = Scalar.from_rational(twoj * (twoj + 2), 4)   # j(j+1)
    a = A_SYM
    s2 = S_SPIN * S_SPIN
    const_c = sphere_constant(j)
    steps = [{
        "classical": "S.S = s^2 (Casimir), so Q(S.S) = s^2 I fixes c",
        "quantum_lhs": "a*hbar^2*j(j+1) + 3c",
        "quantum_rhs": str(s2),
        "difference": "c = %s" % const_c,
    }]
    assumptions = ["a != 0 and c != 0 (nontriviality input)",
                   "s > 0 (sphere radius)"]
    S1, S2, S3 = (SphereElement.coordinate(v) for v in SVARS)
    s11, s22, s12, s23, s31 = S1 * S1, S2 * S2, S1 * S2, S2 * S3, S3 * S1
    qmap = sphere_map(j)
    q11, q22, q12, q23, q31, q3 = (qmap(f) for f in (s11, s22, s12, s23, s31, S3))

    # identity 1:  {S1²−S2², S1S2} − {S2S3, S3S1} = −(S.S)·S3 ≡ −s² S3
    lhs_cl = bracket_raw((s11 - s22).poly(), s12.poly()) - \
        bracket_raw(s23.poly(), s31.poly())
    cl_ok = lhs_cl == -(R2 * S3.poly())
    canon_ok = SphereElement.canonicalize(lhs_cl) == S3.scale(-s2)
    m1 = q11.ih_commutator(q12) - q22.ih_commutator(q12) - q23.ih_commutator(q31)
    lam1 = _entrywise_ratio(m1, q3)
    if lam1 is None:
        raise RuntimeError("quantized identity 1 is not a multiple of Q(S3)")
    # (Q1) demands λ₁·Q(S3) = Q(−s² S3), i.e. s² = −λ₁
    s2_value_1 = -lam1
    target1 = a * a * HBAR * HBAR * (jj1 - Scalar.from_rational(3, 4))
    steps.append({
        "classical": "{S1^2-S2^2, S1 S2} - {S2 S3, S3 S1} = -(S.S) S3 "
                     "(exact: %s; canonical class -s^2 S3: %s)"
                     % (cl_ok, canon_ok),
        "quantum_lhs": "(i/hbar)([Q(S1^2)-Q(S2^2), Q(S1 S2)] - [Q(S2 S3), Q(S3 S1)])"
                       " = (%s) Q(S3)" % lam1,
        "quantum_rhs": "Q(-s^2 S3) = -s^2 Q(S3)",
        "difference": "s^2 = %s (target a^2 hbar^2 (j(j+1) - 3/4) = %s)"
                      % (s2_value_1, target1),
        "premise": cl_ok and canon_ok,
    })

    if twoj == 1:
        # s² = a²ħ²(3/4 − 3/4) = 0 contradicts s > 0
        steps.append({
            "classical": "j = 1/2: j(j+1) - 3/4 = 0",
            "quantum_lhs": "s^2 = %s" % s2_value_1,
            "quantum_rhs": "s > 0",
            "difference": "s^2 = 0 vs s > 0",
            "claim": not s2_value_1.is_zero(),
        })
        return ObstructionCertificate(
            "sphere(j=1/2)", "spin quantization no-go",
            steps, "s^2 = 0 vs s > 0", assumptions)

    # identity 2:  {S2², {S1S2, S1S3}} − (3/4){S1², {S1², S2S3}} = 2 s² S2S3
    lhs2_cl = bracket_sphere(s22, bracket_sphere(s12, s31)) - \
        bracket_sphere(s11, bracket_sphere(s11, s23)).scale(Scalar.from_rational(3, 4))
    cl2_ok = lhs2_cl == s23.scale(Scalar.from_rational(2) * s2)
    m2 = q22.ih_commutator(q12.ih_commutator(q31)) - \
        q11.ih_commutator(q11.ih_commutator(q23)).scale(Scalar.from_rational(3, 4))
    lam2 = _entrywise_ratio(m2, q23)   # Q(S2 S3) = (a/2)(Q2Q3 + Q3Q2)
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
        "premise": cl2_ok,
    })

    gap = s2_value_1 - s2_value_2
    steps.append({
        "classical": "both identities must give the same s^2",
        "quantum_lhs": str(s2_value_1),
        "quantum_rhs": str(s2_value_2),
        "difference": str(gap),
        "claim": gap.is_zero(),
    })
    return ObstructionCertificate(
        "sphere(j=%s)" % (j,), "spin quantization no-go",
        steps, gap, assumptions)


def position_nonextension_certificate():
    """The position representation cannot reach p²: T in Q(p²) = P² + T
    must be scalar (trivial commutant), the identity 2p² = {p², qp} pins
    T = 0, and the resulting quadratic rules collide with the cubic
    contradiction."""
    X, P = WeylElement.x(), WeylElement.p()
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
        "premise": commutant_scalar,
    }]
    # T scalar: Q(p²) = P² + τ with P² = −ħ²d²/dq²; 2p² = {p², qp} forces τ = 0
    p2_main = weyl_product(P, P)
    # residual of  2(P² + τ) − (i/ħ)[P² + τ, Q(qp)]  must vanish
    lhs_op = p2_main.scale(Scalar.from_rational(2))
    rhs_op = p2_main.ih_commutator(weyl_map(_flat_mono(1, 1)))
    resid_noT = lhs_op - rhs_op
    # τ enters as 2τ − (i/ħ)[τI, Q(qp)] = 2τ ⇒ τ = −(residual without T)/2
    tau = -resid_noT.scalar_part() / 2 if resid_noT.is_scalar() else None
    steps.append({
        "classical": "2 p^2 = {p^2, qp}",
        "quantum_lhs": "2(-hbar^2 d^2/dq^2 + T) vs (i/hbar)[-hbar^2 d^2/dq^2 + T, Q(qp)]",
        "quantum_rhs": "forces T = %s" % tau,
        "difference": str(resid_noT),
        "premise": tau is not None and tau.is_zero(),
    })
    chained = groenewold_certificate()
    steps.append({
        "classical": "with T = 0 the quadratic rules are the symmetrized ones; "
                     "extending past them reruns the cubic contradiction",
        "quantum_lhs": "chained certificate: %s" % chained.name,
        "quantum_rhs": chained.verdict,
        "difference": str(chained.discrepancy),
        "premise": chained.verdict != "undecided",
        "claim": chained.verdict == "consistent",
    })
    return ObstructionCertificate(
        "position_nonextension", "Van Hove restriction (position representation)",
        steps, chained.discrepancy)


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
    import numpy as np
    if k < 1:
        raise ValueError("k must be a positive integer")
    if trunc < 4:
        raise ValueError("truncation too small")
    order = quadrature_order(trunc, quad_order)
    hbar = DEFAULT_TORUS_HBAR
    N = trunc
    M = N // 2
    mats = torus_transformed_ops(k, N, hbar, order)
    b_plus, b_minus = mats[2], mats[3]
    w = 2.0 * math.pi * k
    eye = np.eye(N)
    xe = position_tridiagonal(N + 1)
    rhs_a = eye + (w * w) * (xe @ xe)[:N, :N]
    de = derivative_band(N + 1)
    rhs_b = eye - (w * hbar) ** 2 * (de @ de)[:N, :N]
    composite_a = transformed_harmonic_op(-k, 0) * transformed_harmonic_op(k, 0)
    mat_a = hermite_matrix(composite_a, N, hbar, order)
    err_a = float(np.max(np.abs(mat_a[:M, :M] - rhs_a[:M, :M])))
    err_b = float(np.max(np.abs((b_minus @ b_plus)[:M, :M] - rhs_b[:M, :M])))
    return {
        "k": k, "trunc": N, "hbar": hbar, "quad_order": order,
        "interior": M,
        "error_a_identity": err_a,
        "error_b_identity": err_b,
    }


def torus_irreducibility(k, trunc=64, tol=1e-6, quad_order=None):
    """Numeric commutant-kernel estimate for the transformed torus operators."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    if trunc < 32:
        raise ValueError("truncation must be at least 32")
    order = quadrature_order(trunc, quad_order)
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
    mats = torus_transformed_ops(k, trunc, DEFAULT_TORUS_HBAR, order)
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
        "quad_order": order,
        "commutant_dim_estimate": kdim,
        "singular_tail": tail,
        "singular_gap": gap,
        "verdict": "irreducible (numeric)" if kdim == 1 else
                   "not established (kernel dim %d)" % kdim,
    }


# A transform identity holds when its interior-block error lies below this.
TORUS_IDENTITY_TOL = 1e-8


def torus_q1_certificate(B):
    """Q1 of the prequantization map on each pair of the basic sets, k = 1, 2, 3."""
    steps = []
    for k in (1, 2, 3):
        gens = basic_set(k, B)
        pairs = [(f, g) for i, f in enumerate(gens) for g in gens[i + 1:]]
        zeros = sum(check_q1(TORUS_PREQUANT, f, g).is_zero() for f, g in pairs)
        steps.append({"classical": "basic set pairs, k = %d" % k,
                      "quantum_lhs": "Q({f,g})",
                      "quantum_rhs": "(i/hbar)[Q(f), Q(g)]",
                      "difference": "exactly zero on %d/%d pairs" % (zeros, len(pairs)),
                      "claim": zeros == len(pairs)})
    return ObstructionCertificate(
        "torus_q1_symbolic", "prequantization bracket compatibility", steps,
        "nonzero symbolic residual")


def torus_identity_certificate(ident):
    """Verdict on the errors `torus_transform_identities` measured."""
    err_a, err_b = ident["error_a_identity"], ident["error_b_identity"]
    return ObstructionCertificate(
        "torus_transform_identities", "Weil-transform product identities",
        [{"classical": "A-A+ = I + 4 pi^2 k^2 x^2 (interior block)",
          "quantum_lhs": "composite-symbol matrix",
          "quantum_rhs": "band-matrix right side", "difference": err_a,
          "claim": err_a < TORUS_IDENTITY_TOL},
         {"classical": "B-B+ = I - 4 pi^2 hbar^2 k^2 d^2/dx^2 (interior block)",
          "quantum_lhs": "truncated matrix product",
          "quantum_rhs": "band-matrix right side", "difference": err_b,
          "claim": err_b < TORUS_IDENTITY_TOL}],
        "identity error above %g" % TORUS_IDENTITY_TOL)


def torus_irreducibility_certificate(irr):
    """Verdict on the commutant `torus_irreducibility` measured: a kernel
    other than the scalars is undecided, never inconsistent."""
    kdim, tail = irr["commutant_dim_estimate"], irr["singular_tail"]
    return ObstructionCertificate(
        "torus_irreducibility", "numeric commutant surrogate for irreducibility",
        [{"classical": "commutant kernel of {A+, A-, B+, B-}",
          "quantum_lhs": "kernel dimension %d" % kdim,
          "quantum_rhs": "1 (scalars only)",
          "difference": tail[-2] if len(tail) > 1 else None,
          "premise": kdim == 1}],
        irr["verdict"])
