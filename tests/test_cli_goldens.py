"""CLI invocations replay their recorded bytes.

`tests/data/cli_goldens.json` holds the exit code, stdout and stderr of
bracket, generate, normalizer, transitivity and checkq1 invocations on all
three targets, usage errors among them, and of verify on r2n and the sphere;
`tools/record_cli_goldens.py` re-records it.  Every
invocation runs through main(argv) in process and must match byte for byte.

`verify torus` is checked against `perfbench/goldens.json`'s
`torus_template` instead: every float masked, every other field exact.
"""

import json
import pathlib

import pytest

from gvh.cli import main

HERE = pathlib.Path(__file__).resolve().parent
GOLDENS = json.loads((HERE / "data" / "cli_goldens.json").read_text())
TORUS_TEMPLATE = json.loads((HERE.parent / "perfbench" / "goldens.json")
                            .read_text())["torus_template"]


def test_goldens_cover_every_verb_and_target():
    # verify torus is left out: its floats come from LAPACK
    pairs = {(c["argv"][0], c["argv"][1]) for c in GOLDENS}
    assert pairs == {(verb, target)
                     for verb in ("bracket", "generate", "normalizer",
                                  "transitivity", "checkq1")
                     for target in ("r2n", "sphere", "torus")} \
        | {("verify", "r2n"), ("verify", "sphere")}


@pytest.mark.parametrize("case", GOLDENS, ids=[" ".join(c["argv"]) for c in GOLDENS])
def test_cli_replays_golden_bytes(case, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    try:
        code = main(list(case["argv"]))
    except SystemExit as exc:  # a usage error, written by argparse
        code = exc.code
    cap = capsys.readouterr()
    assert (code, cap.out, cap.err) == (case["exit"], case["stdout"], case["stderr"])


def _masked(value):
    if isinstance(value, float):
        return "<float>"
    if isinstance(value, dict):
        return {k: _masked(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_masked(v) for v in value]
    return value


@pytest.mark.parametrize("k", [2, 3])
def test_verify_torus_matches_the_masked_template(k, capsys):
    code = main(["verify", "torus", "--k", str(k)])
    doc = json.loads(capsys.readouterr().out)
    expected = json.loads(json.dumps(TORUS_TEMPLATE))
    expected["meta"]["provenance"]["k"] = k
    if k == 2:
        assert code == 0
        assert _masked(doc) == expected
        return
    # at truncation 64 the B-identity error of k = 3 is far above tolerance
    assert code == 1
    got = {c["name"]: c for c in _masked(doc["certificates"])}
    want = {c["name"]: c for c in expected["certificates"]}
    ident = got.pop("torus_transform_identities")
    assert (ident["verdict"], ident["discrepancy"]) == \
        ("inconsistent", "identity error above 1e-08")
    assert ident["steps"] == want.pop("torus_transform_identities")["steps"]
    assert got == want
