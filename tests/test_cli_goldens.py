"""CLI invocations replay their recorded bytes.

`tests/data/cli_goldens.json` holds the exit code, stdout and stderr of
bracket, generate, normalizer, transitivity and checkq1 invocations on all
three targets, and of verify on r2n and the sphere;
`tools/record_cli_goldens.py` re-records it.  Every
invocation runs through main(argv) in process and must match byte for byte.
"""

import json
import pathlib

import pytest

from gvh.cli import main

GOLDENS = json.loads((pathlib.Path(__file__).resolve().parent / "data"
                      / "cli_goldens.json").read_text())


def test_goldens_cover_every_verb_and_target():
    # verify torus is left out: its floats come from LAPACK
    pairs = {(c["argv"][0], c["argv"][1]) for c in GOLDENS}
    assert pairs == {(verb, target)
                     for verb in ("bracket", "generate", "normalizer",
                                  "transitivity", "checkq1")
                     for target in ("r2n", "sphere", "torus")} \
        | {("verify", "r2n"), ("verify", "sphere")}


@pytest.mark.parametrize("case", GOLDENS, ids=[" ".join(c["argv"]) for c in GOLDENS])
def test_cli_replays_golden_bytes(case, capsys):
    code = main(list(case["argv"]))
    cap = capsys.readouterr()
    assert (code, cap.out, cap.err) == (case["exit"], case["stdout"], case["stderr"])
