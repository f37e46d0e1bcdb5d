"""Command-line interface.

Verbs: bracket, generate, normalizer, transitivity, checkq1, verify.
Targets, one `_TARGETS` row each: r2n (flat phase space), sphere, torus.
Output is a reproducible JSON or markdown report; exit status is 0 when every
verdict matches the expected one, 2 when any certificate is undecided, 1
otherwise.

Each verb's arguments are rows of the `_VERBS` table.  A well-formed command
line (`verb target EXPR... [options]` or `verb target [options] EXPR...
[options]`, every option spelled out) is read from the rows directly; every
other one, help included, goes to the argparse parser built from the same
rows, which alone writes help, usage and error messages.
"""

from __future__ import annotations

import argparse
import fractions
import sys

from .flat import bracket_flat
from .parse import parse_expression, print_expression
from .qmaps import (METAPLECTIC, POSITION, SCHRODINGER, TORUS_PREQUANT,
                    VANHOVE, DEFAULT_TORUS_HBAR, check_q1,
                    sphere_map)
from .report import Report, emit_report
from .scalars import Scalar
from .sphere import bracket_sphere, harmonic_echelon
from .subspace import (FlatAmbient, SphereAmbient, SubspaceBasis,
                       TorusAmbient, generate_poisson_subalgebra, normalizer,
                       transitivity_check)
from .torus import bracket_torus


def _rational(text):
    try:
        return Scalar.from_fraction(fractions.Fraction(text))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("not a rational number: %r" % text)


def _spin(text):
    try:
        return fractions.Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("not a spin label: %r" % text)


def _check_r2n(args):
    if args.n < 1:
        raise ValueError("--n must be at least 1, got %d" % args.n)
    if args.verb == "verify" and args.n != 1:
        # every r2n certificate is built on the generators of one degree of freedom
        raise ValueError("verify r2n runs on one degree of freedom, got --n %d"
                         % args.n)


def _check_torus(args):
    if args.B.is_zero():
        raise ValueError("--B must be nonzero on the torus")
    if args.verb == "verify":
        # the sizes torus_irreducibility accepts, checked before the symbolic batch
        if args.k < 1:
            raise ValueError("--k must be at least 1, got %d" % args.k)
        if args.trunc < 32:
            raise ValueError("--trunc must be at least 32, got %d" % args.trunc)
        if not 0 < args.tol < 1:
            raise ValueError("--tol must lie strictly between 0 and 1, got %r" % args.tol)
        from .hermite import oversampled_order  # numpy: only verify loads it
        oversampled_order(args.trunc, args.quad_order)


def _check_flags(args):
    """Reject flag values the target cannot work with, before any arithmetic."""
    _TARGETS[args.target]["check"](args)
    for flag in ("degree_cap", "freq_cap"):
        cap = getattr(args, flag, None)
        if cap is not None and cap < 0:
            raise ValueError("--%s must be at least 0, got %d"
                             % (flag.replace("_", "-"), cap))


def _elements(args):
    """The EXPR arguments, parsed in the target's algebra."""
    algebra = _TARGETS[args.target]["algebra"]
    return [parse_expression(t, algebra, n=args.n, B=args.B) for t in args.exprs]


def _generators(args, ambient):
    """The parsed generators, each required to lie within the ambient cap."""
    gens = _elements(args)
    for text, g in zip(args.exprs, gens):
        if not ambient.within_bound(g):
            raise ValueError("generator %s lies outside the ambient %s"
                             % (text, ambient.tag))
    return gens


def _printed_basis(args, basis):
    """A span's basis as the report prints it: the reduced echelon form in
    the keys the target prints in."""
    return [print_expression(e) for e in _TARGETS[args.target]["printed"](basis)]


def _base_report(args, **extra_provenance):
    prov = {"target": args.target, "verb": args.verb,
            **_TARGETS[args.target]["provenance"](args), **extra_provenance}
    return Report(meta={"provenance": prov})


# ---------------------------------------------------------------------------
# verb handlers
# ---------------------------------------------------------------------------

def cmd_bracket(args):
    f, g = _elements(args)
    h = _TARGETS[args.target]["bracket"](f, g)
    rep = _base_report(args)
    rep.add_result({"name": "bracket", "f": print_expression(f),
                    "g": print_expression(g),
                    "result": print_expression(h)})
    return rep, 0


def cmd_generate(args):
    ambient = _TARGETS[args.target]["ambient"](args)
    gens = _generators(args, ambient)
    basis = generate_poisson_subalgebra(gens, ambient)
    rep = _base_report(args)
    rep.add_result({"name": "generate",
                    "generators": [print_expression(g) for g in gens],
                    "dimension": basis.dim(),
                    "basis": _printed_basis(args, basis)})
    return rep, 0


def cmd_normalizer(args):
    ambient = _TARGETS[args.target]["ambient"](args)
    gens = _generators(args, ambient)
    sub = generate_poisson_subalgebra(gens, ambient)
    norm = normalizer(sub, ambient)
    rep = _base_report(args)
    rep.add_result({"name": "normalizer",
                    "generators": [print_expression(g) for g in gens],
                    "subalgebra_dimension": sub.dim(),
                    "normalizer_dimension": norm.dim(),
                    "normalizer_basis": _printed_basis(args, norm)})
    return rep, 0


def cmd_transitivity(args):
    ambient = _TARGETS[args.target]["ambient"](args)
    gens = _generators(args, ambient)
    basis = SubspaceBasis.from_elements(ambient, gens)
    reports = transitivity_check(basis, npoints=args.npoints, seed=args.seed)
    transitive = all(r["transitive"] for r in reports)
    rep = _base_report(args, seed=args.seed, npoints=args.npoints)
    rep.add_result({"name": "transitivity",
                    "generators": [print_expression(g) for g in gens],
                    "dim_manifold": reports[0]["dim"],
                    "ranks": [r["rank"] for r in reports],
                    "transitive": transitive})
    return rep, 0 if transitive else 1


def cmd_checkq1(args):
    qmap = _TARGETS[args.target]["qmap"](args)
    f, g = _elements(args)
    residual = check_q1(qmap, f, g)
    zero = residual.is_zero()
    rep = _base_report(args, map=qmap.name)
    rep.add_result({"name": "checkq1", "map": qmap.name,
                    "f": print_expression(f), "g": print_expression(g),
                    "residual_zero": zero, "residual": str(residual)})
    return rep, 0 if zero else 1


def _verify_r2n(args):
    from .obstruction import (anticommutator_certificate,
                              groenewold_certificate,
                              position_nonextension_certificate)
    rep = _base_report(args)
    rep.add_certificate(anticommutator_certificate(), "inconsistent")
    rep.add_certificate(groenewold_certificate(), "inconsistent")
    rep.add_certificate(position_nonextension_certificate(), "inconsistent")
    return rep


def _verify_sphere(args):
    from .obstruction import sphere_certificate
    rep = _base_report(args, j=str(args.j))
    expected = "consistent" if args.j == 0 else "inconsistent"
    rep.add_certificate(sphere_certificate(args.j), expected)
    return rep


def _verify_torus(args):
    from .obstruction import (torus_identity_certificate, torus_irreducibility,
                              torus_irreducibility_certificate,
                              torus_q1_certificate, torus_transform_identities)
    rep = _base_report(args, k=args.k, trunc=args.trunc, tol=args.tol,
                       hbar_numeric=DEFAULT_TORUS_HBAR)
    rep.meta["hbar"] = "formal symbol (numeric parts at hbar = 1/(2*pi))"
    rep.add_certificate(torus_q1_certificate(args.B), "consistent")
    ident = torus_transform_identities(args.k, args.trunc,
                                       quad_order=args.quad_order)
    rep.add_certificate(torus_identity_certificate(ident), "consistent")
    rep.meta["provenance"]["quad_order"] = ident["quad_order"]
    irr = torus_irreducibility(args.k, args.trunc, args.tol,
                               quad_order=args.quad_order)
    rep.add_certificate(torus_irreducibility_certificate(irr), "consistent")
    return rep


def cmd_verify(args):
    rep = _TARGETS[args.target]["verify"](args)
    return rep, rep.exit_code()


# ---------------------------------------------------------------------------
# phase spaces
# ---------------------------------------------------------------------------

_FLAT_MAPS = {"schrodinger": SCHRODINGER, "metaplectic": METAPLECTIC,
              "position": POSITION, "vanhove": VANHOVE}

# target -> its parse.py algebra, its Poisson bracket (called through the
# module-level name, so that a profiler's wrapper on that name sees it), the
# printed basis of a span (the sphere's in harmonic keys) and functions of
# the parsed arguments: flag check, ambient span, checkq1 map, verify report
# and provenance fields
_TARGETS = {
    "r2n": dict(
        algebra="flat", check=_check_r2n,
        ambient=lambda args: FlatAmbient(
            args.n, 4 if args.degree_cap is None else args.degree_cap),
        bracket=lambda f, g: bracket_flat(f, g),
        printed=SubspaceBasis.elements,
        qmap=lambda args: _FLAT_MAPS[args.map or "vanhove"],
        verify=_verify_r2n, provenance=lambda args: {"n": args.n}),
    "sphere": dict(
        algebra="sphere", check=lambda args: None,
        ambient=lambda args: SphereAmbient(
            3 if args.degree_cap is None else args.degree_cap),
        bracket=lambda f, g: bracket_sphere(f, g),
        printed=lambda basis: harmonic_echelon(basis.elements()),
        qmap=lambda args: sphere_map(args.j),
        verify=_verify_sphere, provenance=lambda args: {}),
    "torus": dict(
        algebra="torus", check=_check_torus,
        ambient=lambda args: TorusAmbient(args.freq_cap, args.B),
        bracket=lambda f, g: bracket_torus(f, g),
        printed=SubspaceBasis.elements,
        qmap=lambda args: TORUS_PREQUANT,
        verify=_verify_torus, provenance=lambda args: {"B": str(args.B)}),
}
TARGETS = tuple(_TARGETS)


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

# option rows: (flag, dest, type, default, choices, help)
_COMMON = (
    ("--n", "n", int, 1, None, "flat degrees of freedom (default 1)"),
    ("--B", "B", _rational, Scalar.from_int(1), None,
     "torus symplectic scale (rational, default 1)"),
    ("--format", "format", str, "json", ("json", "markdown"), None),
)
_SPAN = _COMMON + (
    ("--degree-cap", "degree_cap", int, None, None,
     "ambient degree cap (default: 4 flat, 3 sphere)"),
    ("--freq-cap", "freq_cap", int, 3, None, "torus ambient frequency cap"),
)
_TRANSITIVITY = _COMMON + (
    ("--degree-cap", "degree_cap", int, None, None, None),
    ("--freq-cap", "freq_cap", int, 3, None, None),
    ("--seed", "seed", int, 0, None, None),
    ("--npoints", "npoints", int, 8, None, None),
)
_CHECKQ1 = _COMMON + (
    ("--map", "map", str, None, sorted(_FLAT_MAPS),
     "flat-target map (default vanhove)"),
    ("--j", "j", _spin, fractions.Fraction(1), None,
     "spin label for the sphere map"),
)
_VERIFY = _COMMON + (
    ("--j", "j", _spin, fractions.Fraction(1), None, None),
    ("--k", "k", int, 1, None, None),
    ("--trunc", "trunc", int, 64, None, "Hermite truncation (default 64)"),
    ("--tol", "tol", float, 1e-6, None, None),
    ("--quad-order", "quad_order", int, None, None, None),
)

# verb -> (subcommand help, number of EXPR positionals after the target:
# 0, 2 or "+", option rows, handler)
_VERBS = {
    "bracket": ("Poisson bracket of two expressions", 2, _COMMON, cmd_bracket),
    "generate": ("generate of the generated Poisson subalgebra", "+", _SPAN,
                 cmd_generate),
    "normalizer": ("normalizer of the generated Poisson subalgebra", "+",
                   _SPAN, cmd_normalizer),
    "transitivity": ("sampled Hamiltonian-field rank check", "+",
                     _TRANSITIVITY, cmd_transitivity),
    "checkq1": ("bracket-to-commutator residual of a map", 2, _CHECKQ1,
                cmd_checkq1),
    "verify": ("replay the certificate chain for a target", 0, _VERIFY,
               cmd_verify),
}


def _build_parser():
    """The gvh parser: help, usage, error messages and the command lines
    `_parse_args` declines."""
    parser = argparse.ArgumentParser(
        prog="gvh",
        description="Exact verification of quantization obstruction results "
                    "on flat phase space, the sphere, and the torus.")
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, (help_text, nexprs, options, _) in _VERBS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("target", choices=TARGETS)
        if nexprs:
            sp.add_argument("exprs", nargs=nexprs, metavar="EXPR")
        for flag, dest, type_, default, choices, help_ in options:
            sp.add_argument(flag, dest=dest, type=type_, default=default,
                            choices=choices, help=help_)
    return parser


def _parse_args(argv):
    """The namespace `_build_parser().parse_args(argv)` returns, read from
    the `_VERBS` rows, when argv is well formed (module docstring) and every
    value converts and lies in its choices; None otherwise: help, an unknown,
    abbreviated or --opt=value option, a value starting with '-', a bad value
    or expression count, another layout."""
    if len(argv) < 2 or argv[0] not in _VERBS or argv[1] not in TARGETS:
        return None
    _, nexprs, options, _ = _VERBS[argv[0]]
    rows = {row[0]: row for row in options}
    args = argparse.Namespace(verb=argv[0], target=argv[1],
                              **{row[1]: row[3] for row in options})
    exprs, closed, words = [], False, iter(argv[2:])
    for word in words:
        if not word.startswith("-"):
            if closed:  # expressions on both sides of an option
                return None
            exprs.append(word)
            continue
        value, closed = next(words, "-"), bool(exprs)
        if word not in rows or value.startswith("-"):
            return None
        _, dest, type_, _, choices, _ = rows[word]
        try:
            value = type_(value)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if choices is not None and value not in choices:
            return None
        setattr(args, dest, value)
    if nexprs:
        args.exprs = exprs
    return args if len(exprs) == nexprs or nexprs == "+" and exprs else None


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    # help, errors and the rarer spellings go to argparse
    args = _parse_args(argv) or _build_parser().parse_args(argv)
    try:
        _check_flags(args)
        *_, handler = _VERBS[args.verb]
        report, code = handler(args)
    except (ValueError, RuntimeError, MemoryError, ZeroDivisionError) as err:
        # bad input (ParseError, DomainError), a failed internal invariant
        # (QuadratureError), an allocation the heap could not serve or a
        # denominator that vanishes where a numeric check evaluates it
        print("error: %s" % (str(err) or type(err).__name__), file=sys.stderr)
        return 1
    sys.stdout.write(emit_report(report, args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
