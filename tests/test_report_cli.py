"""Report emission (byte stability, exit codes) and the CLI verbs end to end.

CLI invocations go through main(argv) in process; stdout is parsed back as
JSON wherever the content matters.
"""

import argparse
import json
import pathlib
import sys

import pytest

from gvh import cli
from gvh.cli import main
from gvh.flat import FlatElement
from gvh.obstruction import ObstructionCertificate, groenewold_certificate
from gvh.report import Report, emit_json, emit_markdown, emit_report

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "perfbench"))

import workloads  # noqa: E402


def run_cli(capsys, argv):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# ---------------------------------------------------------------------------
# report object


def test_empty_report():
    rep = Report()
    assert rep.summary() == {"expected": {}, "observed": {}, "pass": True,
                             "verdict": "nothing run"}
    assert rep.exit_code() == 0


def test_report_exit_codes():
    ok = Report()
    ok.add_certificate(
        ObstructionCertificate("a", "", [{"claim": False}], None), "inconsistent")
    assert ok.exit_code() == 0
    assert ok.summary()["verdict"] == "as expected"

    bad = Report()
    bad.add_certificate(ObstructionCertificate("a", "", [], None), "inconsistent")
    assert bad.exit_code() == 1
    assert bad.summary()["verdict"] == "mismatch"

    undecided = Report()
    undecided.add_certificate(
        ObstructionCertificate("a", "", [{"premise": False}], None), "consistent")
    assert undecided.exit_code() == 2


def test_report_byte_stability():
    def build(jitter):
        rep = Report(meta={"provenance": {"k": 1}})
        rep.add_certificate(groenewold_certificate(), "inconsistent")
        rep.add_result({"name": "numbers", "third": 1.0 / 3.0 + jitter,
                        "flag": True})
        return rep
    # emission is reproducible, and jitter far below the 12-digit rounding
    # threshold cannot change the bytes
    one = emit_json(build(0.0))
    two = emit_json(build(1e-18))
    assert one == two
    assert one == emit_json(build(0.0))
    doc = json.loads(one)
    assert doc["results"][0]["third"] == 0.333333333333
    assert doc["results"][0]["flag"] is True
    assert doc["summary"]["pass"] is True


def test_markdown_rendering():
    rep = Report()
    rep.add_certificate(ObstructionCertificate(
        "demo", "ref", [{"classical": "a | b", "quantum_lhs": "L",
                         "quantum_rhs": "R", "difference": "0", "claim": True}],
        None), "consistent")
    text = emit_markdown(rep)
    assert text.startswith("# Verification report")
    assert "## demo" in text and "## Summary" in text
    assert "| a \\| b | L | R | 0 |" in text
    assert "- verdict: **as expected**" in text


def test_emit_report_formats():
    rep = Report()
    assert emit_report(rep, "json") == emit_json(rep)
    assert emit_report(rep, "markdown") == emit_markdown(rep)
    with pytest.raises(ValueError):
        emit_report(rep, "yaml")


# ---------------------------------------------------------------------------
# CLI verbs


def test_cli_bracket_flat(capsys):
    code, out, err = run_cli(capsys, ["bracket", "r2n", "q1", "p1"])
    assert code == 0 and err == ""
    doc = json.loads(out)
    res = doc["results"][0]
    assert res["result"] == "(-1)"
    assert doc["meta"]["provenance"] == {"n": 1, "target": "r2n",
                                         "verb": "bracket"}


def test_cli_bracket_deterministic(capsys):
    _, one, _ = run_cli(capsys, ["bracket", "sphere", "S1", "S2"])
    _, two, _ = run_cli(capsys, ["bracket", "sphere", "S1", "S2"])
    assert one == two
    assert json.loads(one)["results"][0]["result"] == "(-1)*S3"


def test_cli_normalizer(capsys):
    code, out, _ = run_cli(capsys, ["normalizer", "r2n", "1", "q1", "p1",
                                    "--degree-cap", "4"])
    assert code == 0
    res = json.loads(out)["results"][0]
    assert res["subalgebra_dimension"] == 3
    assert res["normalizer_dimension"] == 6


def test_cli_degree_cap_zero_is_kept(capsys):
    code, out, _ = run_cli(capsys, ["normalizer", "r2n", "1",
                                    "--degree-cap", "0"])
    assert code == 0
    res = json.loads(out)["results"][0]
    assert res["normalizer_basis"] == ["1"]


@pytest.mark.parametrize("argv, message", [
    (["normalizer", "r2n", "q1", "--degree-cap", "-1"],
     "error: --degree-cap must be at least 0, got -1"),
    (["generate", "torus", "sin(2*pi*1*x)", "--freq-cap", "-2"],
     "error: --freq-cap must be at least 0, got -2"),
    (["transitivity", "sphere", "S1", "--degree-cap", "-1"],
     "error: --degree-cap must be at least 0, got -1"),
], ids=["negative-degree-cap", "negative-freq-cap", "transitivity-negative-cap"])
def test_cli_rejects_negative_caps(capsys, argv, message):
    code, out, err = run_cli(capsys, argv)
    assert code == 1 and out == ""
    assert err.strip() == message


@pytest.mark.parametrize("argv, message", [
    (["generate", "torus", "sin(2*pi*2*x)", "--freq-cap", "1"],
     "error: generator sin(2*pi*2*x) lies outside the ambient torus(|freq|<=1)"),
    (["transitivity", "r2n", "q1", "p1", "--degree-cap", "0"],
     "error: generator q1 lies outside the ambient flat(n=1, deg<=0)"),
    (["transitivity", "torus", "sin(2*pi*1*x)", "cos(2*pi*1*y)", "--freq-cap", "0"],
     "error: generator sin(2*pi*1*x) lies outside the ambient torus(|freq|<=0)"),
], ids=["torus-freq-cap", "transitivity-degree-cap", "transitivity-freq-cap"])
def test_cli_rejects_generator_outside_cap(capsys, argv, message):
    code, out, err = run_cli(capsys, argv)
    assert code == 1 and out == ""
    assert err.strip() == message


@pytest.mark.parametrize("argv", [
    ["bracket", "torus", "sin(2*pi*1*x)", "cos(2*pi*1*y)", "--B", "0"],
    ["verify", "torus", "--k", "1", "--trunc", "32", "--B", "0"],
], ids=["bracket", "verify"])
def test_cli_torus_rejects_zero_B(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 1 and out == ""
    assert err.strip() == "error: --B must be nonzero on the torus"


def test_cli_zero_B_is_ignored_off_the_torus(capsys):
    for target, f, g in (("r2n", "q1", "p1"), ("sphere", "S1", "S2")):
        code, _, _ = run_cli(capsys, ["bracket", target, f, g, "--B", "0"])
        assert code == 0


@pytest.mark.parametrize("argv, message", [
    (["transitivity", "r2n", "1", "--n", "0"],
     "error: --n must be at least 1, got 0"),
    (["transitivity", "r2n", "1", "--n", "-2"],
     "error: --n must be at least 1, got -2"),
    (["verify", "torus", "--tol", "-1"],
     "error: --tol must lie strictly between 0 and 1, got -1.0"),
    (["verify", "torus", "--tol", "1"],
     "error: --tol must lie strictly between 0 and 1, got 1.0"),
    (["verify", "r2n", "--n", "2"],
     "error: verify r2n runs on one degree of freedom, got --n 2"),
], ids=["n-zero", "n-negative", "tol-negative", "tol-one", "verify-r2n-n-two"])
def test_cli_rejects_bad_n_and_tol(capsys, argv, message):
    code, out, err = run_cli(capsys, argv)
    assert code == 1 and out == ""
    assert err.strip() == message


@pytest.mark.parametrize("argv, message", [
    (["verify", "torus", "--k", "0"], "error: --k must be at least 1, got 0"),
    (["verify", "torus", "--trunc", "16"],
     "error: --trunc must be at least 32, got 16"),
    (["verify", "torus", "--trunc", "186"], "error: the order-744 Gauss-Hermite "
     "rule exceeds 740, the largest order admitted"),
    (["verify", "torus", "--quad-order", "741"], "error: the order-741 "
     "Gauss-Hermite rule exceeds 740, the largest order admitted"),
    (["verify", "torus", "--quad-order", "10"],
     "error: quad_order 10 below oversampling floor 256"),
], ids=["k-zero", "trunc-16", "trunc-186", "quad-order-741", "quad-order-10"])
def test_cli_rejects_torus_sizes_before_arithmetic(capsys, monkeypatch, argv,
                                                   message):
    def refuse(*args, **kwargs):
        raise AssertionError("symbolic Q1 batch ran before the size check")
    monkeypatch.setattr("gvh.obstruction.check_q1", refuse)
    code, out, err = run_cli(capsys, argv)
    assert code == 1 and out == ""
    assert err.strip() == message


def test_cli_transitivity(capsys):
    code, out, _ = run_cli(capsys, ["transitivity", "sphere",
                                    "S1", "S2", "S3"])
    assert code == 0
    res = json.loads(out)["results"][0]
    assert res["transitive"] is True
    assert res["dim_manifold"] == 2 and set(res["ranks"]) == {2}
    # a single generator cannot span the tangent spaces
    code, out, _ = run_cli(capsys, ["transitivity", "r2n", "q1"])
    assert code == 1
    assert json.loads(out)["results"][0]["transitive"] is False


def test_cli_transitivity_rejects_no_points(capsys):
    code, out, err = run_cli(capsys, ["transitivity", "r2n", "q1",
                                      "--npoints", "0"])
    assert code == 1 and out == ""
    assert err.strip() == "error: npoints must be at least 1, got 0"


def test_cli_transitivity_rejects_too_many_points(capsys):
    code, out, err = run_cli(capsys, ["transitivity", "r2n", "q1",
                                      "--npoints", "1000000000"])
    assert code == 1 and out == ""
    assert err.strip() == "error: npoints must be at most 10000, got 1000000000"


def test_cli_transitivity_reports_a_vanishing_denominator(capsys):
    # the sampled field rows are evaluated at the default radius s = 1
    code, out, err = run_cli(capsys, ["transitivity", "sphere", "S2 + S1/(s-1)"])
    assert code == 1 and out == ""
    assert err.startswith("error:")


def test_cli_checkq1(capsys):
    code, out, _ = run_cli(capsys, ["checkq1", "r2n", "q1^2", "p1^2",
                                    "--map", "metaplectic"])
    assert code == 0
    res = json.loads(out)["results"][0]
    assert res["residual_zero"] is True and res["map"] == "metaplectic"
    # prequantization satisfies the bracket rule on everything
    code, out, _ = run_cli(capsys, ["checkq1", "r2n", "q1^3", "p1^3"])
    assert code == 0
    assert json.loads(out)["results"][0]["map"] == "vanhove"


def test_cli_checkq1_domain_error(capsys):
    code, out, err = run_cli(capsys, ["checkq1", "r2n", "q1^2", "p1^2",
                                      "--map", "schrodinger"])
    assert code == 1 and out == ""
    assert err.startswith("error:")


def test_cli_parse_error(capsys):
    code, out, err = run_cli(capsys, ["bracket", "r2n", "q7", "p1"])
    assert code == 1 and out == ""
    assert err.startswith("error:") and "q7" in err


def test_cli_rejects_huge_exponent_before_multiplying(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a product ran before the exponent check")
    monkeypatch.setattr("gvh.flat.FlatElement.__mul__", refuse)
    code, out, err = run_cli(capsys, ["bracket", "r2n", "q1^99999999", "p1"])
    assert code == 1 and out == ""
    assert err.strip() == \
        "error: exponent 99999999 exceeds the limit 64 (at position 3)"
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, ["bracket", "r2n", "q1^64", "p1"])
    assert code == 0
    assert json.loads(out)["results"][0]["result"] == "(-64)*q1^63"


def test_cli_rejects_huge_ambient_before_listing_keys(capsys, monkeypatch):
    # flat n = 3 up to degree 60 has C(66, 6) = 90,858,768 keys
    def refuse(*args, **kwargs):
        raise AssertionError("keys were listed before the size check")
    monkeypatch.setattr("gvh.subspace.monomials_upto", refuse)
    code, out, err = run_cli(capsys, ["generate", "r2n", "q1", "--n", "3",
                                      "--degree-cap", "60"])
    assert code == 1 and out == ""
    assert err.strip() == ("error: the ambient flat(n=3, deg<=60) has 90858768 "
                           "keys, more than the limit 1000000")


@pytest.mark.parametrize("verb", ["bracket", "checkq1"])
def test_cli_rejects_huge_n_before_naming_variables(capsys, verb):
    code, out, err = run_cli(capsys, [verb, "r2n", "q1", "p1",
                                      "--n", "1000000000"])
    assert code == 1 and out == ""
    assert err == "error: 1000000000 degrees of freedom exceed the flat bound 10000\n"


def test_cli_runs_at_the_flat_bound(capsys):
    code, out, _ = run_cli(capsys, ["checkq1", "r2n", "q1", "p1", "--n", "10000"])
    assert code == 0
    assert json.loads(out)["results"][0]["residual_zero"] is True


def test_cli_rejects_nested_powers_before_multiplying(capsys, monkeypatch):
    products = []
    mul = FlatElement.__mul__

    def counting(a, b):
        products.append((len(a.terms), len(b.terms)))
        return mul(a, b)
    monkeypatch.setattr(FlatElement, "__mul__", counting)
    code, out, err = run_cli(capsys, ["bracket", "r2n", "--n", "2",
                                      "((q1+p1+q2+p2)^8)^64", "q1"])
    assert code == 1 and out == ""
    assert err.strip() == ("error: expression needs more than 10000 term "
                           "products (at position 17)")
    # the eight steps of ^8 and the outer power's 1 x 165; its 165 x 165
    # step would pass the bound and is refused before it runs
    assert products[-1] == (1, 165) and len(products) == 9


@pytest.mark.parametrize("argv", [
    ["verify", "sphere", "--j", "1000000000"],
    ["checkq1", "sphere", "S1", "S2", "--j", "1000000000"],
], ids=["verify", "checkq1"])
def test_cli_rejects_spin_dimension_before_building_matrices(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 1 and out == ""
    assert err == "error: spin dimension 2j+1 = 2000000001 exceeds 2001 " \
                  "(j = 1000000000)\n"


def test_cli_rejects_unknown_target(capsys):
    with pytest.raises(SystemExit):
        main(["bracket", "cylinder", "q1", "p1"])
    with pytest.raises(SystemExit):
        main(["frobnicate", "r2n"])


def test_cli_verify_r2n(capsys):
    code, out, _ = run_cli(capsys, ["verify", "r2n"])
    assert code == 0
    doc = json.loads(out)
    assert [c["name"] for c in doc["certificates"]] == \
        ["anticommutator", "groenewold", "position_nonextension"]
    assert all(c["verdict"] == "inconsistent" for c in doc["certificates"])
    assert doc["summary"]["pass"] is True
    assert doc["summary"]["verdict"] == "as expected"


def test_cli_verify_r2n_markdown(capsys):
    code, out, _ = run_cli(capsys, ["verify", "r2n", "--format", "markdown"])
    assert code == 0
    assert out.startswith("# Verification report")
    assert "## anticommutator" in out and "## groenewold" in out
    assert "- verdict: **as expected**" in out


def test_cli_verify_sphere(capsys):
    code, out, _ = run_cli(capsys, ["verify", "sphere", "--j", "0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["certificates"][0]["verdict"] == "consistent"
    code, out, _ = run_cli(capsys, ["verify", "sphere", "--j", "1/2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["certificates"][0]["verdict"] == "inconsistent"
    assert doc["certificates"][0]["discrepancy"] == "s^2 = 0 vs s > 0"


def test_cli_verify_torus_respects_trunc(capsys):
    code, out, _ = run_cli(capsys, ["verify", "torus", "--trunc", "48"])
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["provenance"]["trunc"] == 48
    assert doc["meta"]["hbar"] == \
        "formal symbol (numeric parts at hbar = 1/(2*pi))"
    assert [c["name"] for c in doc["certificates"]] == \
        ["torus_q1_symbolic", "torus_transform_identities",
         "torus_irreducibility"]
    assert doc["summary"]["verdict"] == "as expected"
    sym = doc["certificates"][0]
    assert [s["difference"] for s in sym["steps"]] == \
        ["exactly zero on 10/10 pairs"] * 3


def test_cli_rejects_torus_truncation_beyond_memory(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Hermite matrices built before the order bound")
    monkeypatch.setattr("gvh.qmaps.torus_transformed_ops", refuse)
    code, out, err = run_cli(capsys, ["verify", "torus", "--trunc", "100000"])
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Gauss-Hermite rule exceeds 740" in err


@pytest.mark.parametrize("flags", [["--quad-order", "741"], ["--trunc", "186"]])
def test_cli_rejects_overflowing_quadrature_before_the_eigensolve(capsys, monkeypatch,
                                                                  flags):
    def refuse(*args, **kwargs):
        raise AssertionError("Gauss-Hermite rule computed before the order bound")
    monkeypatch.setattr("gvh.hermite.gauss_hermite_rule", refuse)
    code, out, err = run_cli(capsys, ["verify", "torus", "--k", "1", *flags])
    assert code == 1 and out == ""
    assert err.startswith("error:") and "exceeds 740, the largest order" in err


@pytest.mark.parametrize("target, func, exc", [
    ("sphere", "sphere_certificate", RuntimeError("sphere invariant broken")),
    ("r2n", "vonneumann_rules_flat", RuntimeError("rule invariant broken")),
    ("sphere", "sphere_certificate", MemoryError()),
], ids=["sphere-runtime", "r2n-runtime", "sphere-memory"])
def test_cli_reports_internal_failures(capsys, monkeypatch, target, func, exc):
    def fail(*args, **kwargs):
        raise exc
    groenewold_certificate.cache_clear()  # a cached one hides the patched rules
    monkeypatch.setattr("gvh.obstruction." + func, fail)
    code, out, err = run_cli(capsys, ["verify", target])
    assert code == 1 and out == ""
    assert err == "error: %s\n" % (str(exc) or type(exc).__name__)


# ---------------------------------------------------------------------------
# per-verb parser


def _exit_out_err(capsys, call):
    try:
        code = call()
    except SystemExit as exc:
        code = ("exit", exc.code)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


@pytest.mark.parametrize("argv", [
    ["--help"], [], ["frobnicate", "r2n"], ["verify", "r2n", "--bogus", "1"],
    ["verify", "torus", "--k", "x"], ["checkq1", "r2n", "q1", "p1", "--map", "nope"],
    ["bracket", "r2n", "q1"],
] + [[verb, "--help"] for verb in ("bracket", "generate", "normalizer",
                                    "transitivity", "checkq1", "verify")] + [
    ["checkq1", "sphere", "S1", "S3", "--j", "-1/2"], ["generate", "r2n", "q1", "--f", "2"],
    ["verify", "torus", "--k=x"], ["bracket", "r2n", "q1", "p1", "-h"],
    ["verify", "r2n", "--", "--k", "2"], ["generate", "sphere", "S1", "--bogus", "1"],
    ["generate", "r2n", "q1", "--degree-cap", "4", "p1"], ["checkq1", "sphere", "S1", "--j", "3"],
    ["bracket", "r2n", "q1", "p1", "q1"], ["verify", "r2n", "q1"],
])
def test_cli_parser_bytes_match_the_full_parser(capsys, monkeypatch, argv):
    """Help and malformed command lines: main exits as the full parser does
    alone and writes the same stdout and stderr bytes, so the direct reader
    (`cli._parse_args`) declines each of them and adds no output of its own."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    got = _exit_out_err(capsys, lambda: main(list(argv)))
    full = _exit_out_err(capsys, lambda: cli._build_parser().parse_args(list(argv)))
    assert got == full
    assert got[0] != 0 and (got[1] or got[2])


def test_cli_builds_only_the_named_verb(capsys, monkeypatch):
    """A well-formed command line is parsed without building any argparse
    parser: counted through ArgumentParser.__init__."""
    built = []
    real = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: built.append(a) or real(self, *a, **k))
    for argv in (["bracket", "r2n", "q1", "p1"], ["verify", "r2n"]):
        code, _, _ = run_cli(capsys, argv)
        assert code == 0
    assert built == []


def _command_lines():
    """Every argv of the benchmark workloads at seeds 0-4 and of the CLI goldens."""
    argvs = [inv["argv"] for name in workloads.WORKLOADS for seed in range(5)
             for inv in workloads.invocations(name, seed) if "argv" in inv]
    argvs += [case["argv"] for case in
              json.loads((HERE / "data" / "cli_goldens.json").read_text())]
    return [list(argv) for argv in dict.fromkeys(map(tuple, argvs))]


# variants of a well-formed command line, most of which the direct parser declines
_MUTATIONS = {
    "abbreviated": lambda a: a + ["--form", "markdown"],
    "opt=value": lambda a: a + ["--format=markdown"],
    "negative-cap": lambda a: a + ["--degree-cap", "-1"],
    "negative-j": lambda a: a + ["--j", "-1/2"],
    "double-dash": lambda a: a[:2] + ["--"] + a[2:],
    "help": lambda a: a + ["-h"],
    "repeated": lambda a: a + ["--format", "markdown", "--format", "json"],
    "unknown": lambda a: a + ["--bogus", "1"],
    "option-first": lambda a: a[:1] + ["--format", "json"] + a[1:],
    "positional-after-option": lambda a: a + ["--format", "json", "q1"],
    "missing-expr": lambda a: a[:2] + a[3:],
    "extra-expr": lambda a: a[:2] + ["q1"] + a[2:],
}


def test_direct_parse_agrees_with_argparse():
    """Whenever the direct parser returns a namespace, argparse returns the
    same one; it accepts every workload and golden command line but the
    golden usage errors, which it declines."""
    parser = cli._build_parser()
    accepted = dict.fromkeys(_MUTATIONS, 0)
    for base in _command_lines():
        try:
            want = parser.parse_args(base)
        except SystemExit:  # a golden usage error (exit 2)
            want = None
        assert cli._parse_args(base) == want, base
        for name, mutate in _MUTATIONS.items():
            argv = mutate(list(base))
            direct = cli._parse_args(argv)
            if direct is not None:
                accepted[name] += 1
                assert direct == parser.parse_args(argv), argv
    assert {name for name, n in accepted.items() if n} == \
        {"repeated", "missing-expr", "extra-expr"}


@pytest.mark.parametrize("argv, spelled_out", [
    (["generate", "r2n", "q1", "--deg", "3"], ["generate", "r2n", "q1", "--degree-cap", "3"]),
    (["generate", "r2n", "q1", "--degree-cap=3"], ["generate", "r2n", "q1", "--degree-cap", "3"]),
    (["bracket", "r2n", "--", "q1", "p1"], ["bracket", "r2n", "q1", "p1"]),
    (["verify", "--j", "1/2", "sphere"], ["verify", "sphere", "--j", "1/2"]),
])
def test_cli_argparse_reads_the_lines_the_direct_parser_declines(capsys, argv,
                                                               spelled_out):
    assert cli._parse_args(argv) is None
    assert run_cli(capsys, argv) == run_cli(capsys, spelled_out)
