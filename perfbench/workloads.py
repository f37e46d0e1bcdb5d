"""Workload invocation lists and the correctness check of their outputs.

Each workload is a list of invocations, replayed as a user would run them:
one fresh ``gvh`` process per invocation.  The workload seed shuffles the
order and, for ``explore``, draws the expressions; every draw keeps the
monomial structure of its slot and varies only the coefficients, so the cost
of a replay does not depend on the seed.  (Relabelling variables would: the
torus map treats x and y differently, and the sphere map's S3 is diagonal.)

Why these workloads:
- r2n: ``verify r2n`` plus the degree-6 von Neumann rules.  Weyl products,
  exact ``rref``/``solve_affine`` and the extension solver; univariate
  Scalars in hbar with many zero numerators from dense rows.
- sphere: ``verify sphere`` at j = 1/2 (degenerate branch), 1, 3, 10.  The
  only heavy user of Radical and ExactMatrix; multivariate Scalars in a,
  hbar, s; no linalg.
- torus: ``verify torus`` at k = 2 and 3, truncation 64.  The Hermite
  quadrature matrices and the dense commutant SVD (LAPACK).  k = 3
  currently fails its identity bound; it stays so that the defect shows.
- explore: the non-verify verbs on all three targets.  Many short calls;
  the only workload that measures ``parse`` and ``subspace``.
"""

from __future__ import annotations

import cmath
import json
import math
import random
import re
import shlex

WORKLOADS = ("r2n", "sphere", "torus", "explore")

# Certificate bounds that a torus report must meet (see gvh.cli._verify_torus).
TORUS_IDENTITY_BOUND = 1e-8
TORUS_TRUNC = "64"
FLOAT = "<float>"


def cli(*argv, expect=0, kind=None, pair=None):
    argv = [str(a) for a in argv]
    return {"key": "gvh " + " ".join(shlex.quote(a) for a in argv),
            "argv": argv, "expect_exit": expect,
            "kind": kind or argv[0], "pair": pair}


def api(name, *args):
    return {"key": "%s(%s)" % (name, ", ".join(map(repr, args))),
            "api": name, "args": list(args), "expect_exit": 0,
            "kind": "api", "pair": None}


# -- seeded expression draws ---------------------------------------------------

def _poly(rng, monomials):
    """Sum of the given monomials with drawn coefficients.  The first is
    positive: a leading '-' would read as an option on the command line."""
    out = ""
    for mono in monomials:
        c = rng.choice((1, 2, 3, 4, 5))
        term = ("%d*%s" % (c, mono)) if mono else str(c)
        out += (" %s %s" % (rng.choice("+-"), term)) if out else term
    return out


def _flat(rng, shapes):
    """Flat polynomial from monomial shapes (a, b) = q1^a p1^b."""
    monos = []
    for a, b in shapes:
        parts = [("q1^%d" % a if a > 1 else "q1") if a else "",
                 ("p1^%d" % b if b > 1 else "p1") if b else ""]
        monos.append("*".join(p for p in parts if p))
    return _poly(rng, monos)


def _sphere(rng, shapes):
    """Sphere polynomial; shapes are exponent triples of S1, S2, S3."""
    monos = []
    for e in shapes:
        parts = [("S%d^%d" % (k + 1, d) if d > 1 else "S%d" % (k + 1))
                 for k, d in enumerate(e) if d]
        monos.append("*".join(parts))
    return _poly(rng, monos)


def _torus(rng, shapes):
    """Torus expression; shapes are lists of (trig, freq, var) factors."""
    monos = ["*".join("%s(2*pi*%d*%s)" % f for f in factors) for factors in shapes]
    return _poly(rng, monos)


def _bracket_pair(target, f, g):
    a = cli("bracket", target, f, g)
    b = cli("bracket", target, g, f)
    a["pair"], b["pair"] = b["key"], a["key"]
    return [a, b]


def explore(rng):
    invs = []
    for _ in range(3):
        invs += _bracket_pair("r2n", _flat(rng, [(2, 1), (0, 1)]),
                              _flat(rng, [(0, 2), (1, 0)]))
    for _ in range(2):
        invs += _bracket_pair("sphere", _sphere(rng, [(1, 1, 0), (0, 0, 1)]),
                              _sphere(rng, [(2, 0, 0), (0, 0, 1)]))
    for _ in range(2):
        invs += _bracket_pair(
            "torus",
            _torus(rng, [[("sin", 1, "x")], [("cos", 2, "y")]]),
            _torus(rng, [[("cos", 1, "y"), ("sin", 1, "x")]]))
    sin1x, cos1y = [[("sin", 1, "x")]], [[("cos", 1, "y")]]
    invs += [
        cli("generate", "r2n", _flat(rng, [(2, 0), (1, 1)]),
            _flat(rng, [(0, 2), (1, 1)]), "--degree-cap", 4),
        cli("generate", "sphere", _sphere(rng, [(1, 0, 0), (0, 1, 0)]),
            _sphere(rng, [(0, 0, 1)])),
        cli("generate", "torus", _torus(rng, sin1x), _torus(rng, cos1y),
            "--freq-cap", 2),
        cli("normalizer", "r2n", "--n", 2, "--degree-cap", 3,
            "1", "q1", "p1", "q2", "p2"),
        cli("normalizer", "r2n", "--n", 2, "--degree-cap", 4,
            "1", "q1", "p1", "q2", "p2"),
        cli("normalizer", "sphere", "1", "S1", "S2", "S3"),
        cli("normalizer", "sphere", "--degree-cap", 4, "1", "S1", "S2", "S3"),
        cli("normalizer", "torus", _torus(rng, sin1x),
            _torus(rng, [[("cos", 1, "x")]])),
        cli("transitivity", "r2n", "q1", "p1", _flat(rng, [(2, 1), (0, 0)])),
        cli("transitivity", "r2n", _flat(rng, [(2, 0), (1, 0)]), expect=1),
        cli("transitivity", "sphere", "S1", "S2", "S3",
            _sphere(rng, [(1, 1, 0), (0, 0, 0)])),
        cli("transitivity", "torus", "sin(2*pi*1*x)", "cos(2*pi*1*y)",
            _torus(rng, [[("sin", 2, "x"), ("cos", 1, "y")]])),
        cli("checkq1", "r2n", _flat(rng, [(3, 1), (0, 2)]),
            _flat(rng, [(2, 2), (0, 1)]), "--map", "vanhove"),
        cli("checkq1", "r2n", _flat(rng, [(1, 1), (0, 2)]),
            _flat(rng, [(2, 0), (0, 1)]), "--map", "metaplectic"),
        cli("checkq1", "r2n", _flat(rng, [(1, 1), (0, 1)]),
            _flat(rng, [(3, 0), (0, 1)]), "--map", "position"),
        cli("checkq1", "sphere", _sphere(rng, [(1, 0, 0), (0, 0, 1)]),
            _sphere(rng, [(1, 1, 0), (0, 0, 2)]), "--j", 3),
        cli("checkq1", "torus",
            _torus(rng, [[("sin", 1, "x"), ("cos", 2, "y")], [("cos", 1, "y")]]),
            _torus(rng, [[("sin", 2, "x")], [("cos", 1, "x")]])),
        cli("checkq1", "torus",
            _torus(rng, [[("sin", 2, "x"), ("cos", 2, "y")], [("cos", 1, "y")]]),
            _torus(rng, [[("sin", 2, "x"), ("cos", 1, "y")], [("cos", 1, "x")]])),
    ]
    return invs


def invocations(workload, seed):
    """The workload's invocation list, drawn and shuffled from ``seed``."""
    rng = random.Random(seed)
    if workload == "r2n":
        invs = [cli("verify", "r2n"), api("vonneumann_rules_flat", 6)]
    elif workload == "sphere":
        invs = [cli("verify", "sphere", "--j", j) for j in ("1/2", "1", "3", "10")]
    elif workload == "torus":
        invs = [cli("verify", "torus", "--k", k, "--trunc", TORUS_TRUNC,
                    kind="torus") for k in (2, 3)]
    elif workload == "explore":
        invs = explore(rng)
    else:
        raise ValueError("unknown workload %r" % (workload,))
    rng.shuffle(invs)
    return invs


# -- correctness ---------------------------------------------------------------

_EXPR_CHARS = re.compile(r"^[0-9A-Za-z_+\-*/^(). ]*$")
_EXPR_NAMES = {"sin": cmath.sin, "cos": cmath.cos, "pi": math.pi, "i": 1j}


def evaluate(text, point):
    """Numeric value of a printed gvh expression at ``point`` (name -> float)."""
    if not _EXPR_CHARS.match(text):
        raise ValueError("unexpected character in %r" % text)
    names = set(re.findall(r"[A-Za-z_]\w*", text))
    unknown = names - set(_EXPR_NAMES) - set(point)
    if unknown:
        raise ValueError("unknown names %s in %r" % (sorted(unknown), text))
    scope = dict(_EXPR_NAMES, **point)
    return complex(eval(text.replace("^", "**"), {"__builtins__": {}}, scope))


def _points(target):
    rng = random.Random(12345)
    for _ in range(3):
        if target == "sphere":
            v = [rng.gauss(0, 1) for _ in range(3)]
            s = 1.3
            norm = math.sqrt(sum(x * x for x in v))
            yield dict({"S%d" % (k + 1): s * v[k] / norm for k in range(3)},
                       s=s, hbar=0.7)
        elif target == "torus":
            yield {"x": rng.random(), "y": rng.random(), "hbar": 0.7}
        else:
            yield {"q1": rng.uniform(-2, 2), "p1": rng.uniform(-2, 2), "hbar": 0.7}


def _masked(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return FLOAT
    if isinstance(value, dict):
        return {k: _masked(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_masked(v) for v in value]
    return value


def torus_template(report_text):
    """Float-masked report of a passing torus verify, with k left open."""
    doc = _masked(json.loads(report_text))
    doc["meta"]["provenance"]["k"] = None
    return doc


def _check_torus(inv, doc, template):
    """Non-float fields exactly as the template, floats within bounds."""
    certs = {c["name"]: c for c in doc["certificates"]}
    for step in certs["torus_transform_identities"]["steps"]:
        if not step["difference"] < TORUS_IDENTITY_BOUND:
            return "identity error %r not below %g" % (step["difference"],
                                                      TORUS_IDENTITY_BOUND)
    tol = doc["meta"]["provenance"]["tol"]
    gap = certs["torus_irreducibility"]["steps"][0]["difference"]
    if not gap >= tol:
        return "second-smallest singular value %r below tol %g" % (gap, tol)
    expected = json.loads(json.dumps(template))
    expected["meta"]["provenance"]["k"] = int(inv["argv"][inv["argv"].index("--k") + 1])
    if _masked(doc) != expected:
        return "non-float fields differ from the passing template"
    return None


def _result(doc):
    results = doc.get("results") or [{}]
    return results[0]


def _check_content(inv, rec, by_key, goldens):
    golden = goldens["reports"].get(inv["key"])
    if golden is not None and rec["stdout"] != golden:
        return "report differs from the golden bytes"
    if inv["kind"] in ("api", "verify"):
        return None if golden is not None else "no golden for %s" % inv["key"]
    doc = json.loads(rec["stdout"])
    if inv["kind"] == "torus":
        return _check_torus(inv, doc, goldens["torus_template"])
    res = _result(doc)
    if res.get("name") != inv["kind"]:
        return "result is not a %s result" % inv["kind"]
    if inv["kind"] == "bracket":
        other = by_key.get(inv["pair"])
        if other is None or other["exit"] != 0:
            return "swapped bracket missing"
        mirrored = _result(json.loads(other["stdout"]))["result"]
        target = inv["argv"][1]
        for point in _points(target):
            a = evaluate(res["result"], point)
            b = evaluate(mirrored, point)
            if abs(a + b) > 1e-9 * (1.0 + abs(a) + abs(b)):
                return "bracket(f,g) != -bracket(g,f) at %s" % point
    elif inv["kind"] == "checkq1":
        if res.get("residual_zero") is not True:
            return "nonzero residual on an in-domain pair"
    elif inv["kind"] == "transitivity":
        if res.get("transitive") is not (inv["expect_exit"] == 0):
            return "transitivity verdict disagrees with the expected exit code"
    elif inv["kind"] in ("generate", "normalizer"):
        dim = res.get("dimension", res.get("normalizer_dimension"))
        basis = res.get("basis", res.get("normalizer_basis"))
        if not isinstance(dim, int) or dim < 1 or len(basis) != dim:
            return "basis does not match its dimension"
    return None


def check_replay(invs, records, goldens):
    """One entry per invocation: None when correct, else (kind, message).

    kind is "reported" when the program itself signalled the failure by a
    non-zero exit (a crash, an error, a mismatched or undecided verdict)
    where another exit was expected; "wrong" when it exited as expected, or
    with 0, but the output fails the check.  Both count as
    failed invocations; only "wrong" makes the run incorrect.
    """
    by_key = {inv["key"]: rec for inv, rec in zip(invs, records)}
    out = []
    for inv, rec in zip(invs, records):
        try:
            problem = _check_content(inv, rec, by_key, goldens)
        except (KeyError, TypeError, ValueError) as err:
            problem = "malformed output: %r" % (err,)
        code = rec["exit"]
        if code == inv["expect_exit"]:
            out.append(None if problem is None else ("wrong", problem))
            continue
        detail = "; ".join(x for x in (problem, rec["stderr"].strip()[-300:]) if x)
        out.append(("reported" if code != 0 else "wrong",
                    "exit %r, expected %r: %s" % (code, inv["expect_exit"], detail)))
    return out
