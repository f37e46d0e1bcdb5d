"""Record the bytes of CLI invocations into tests/data/cli_goldens.json.

    python3 tools/record_cli_goldens.py

Runs each invocation in CASES through `gvh.cli.main(argv)` in process, as
`tests/test_cli_goldens.py` replays it, and stores its exit code, stdout and
stderr.  Run it from a checkout whose outputs are known to be right: the
test then pins every later change to those bytes.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "tests" / "data" / "cli_goldens.json"

# bracket, generate, normalizer, transitivity and checkq1 on every target,
# with --n 2, --B, a markdown report, failing checks (exit 1) and bad input;
# then verify on r2n and the sphere.  verify torus is left out: its floats
# come from LAPACK, so its bytes may differ between machines.
CASES = [
    ["bracket", "r2n", "q1^2*p1", "p1^2"],
    ["bracket", "r2n", "--n", "2", "q1*p2 + 1/2*q2^2", "p1*p2 - q1^3"],
    ["bracket", "r2n", "(1+i)/2*q1^3", "1/3*p1 - i*q1*p1"],
    ["bracket", "sphere", "S1", "S2"],
    ["bracket", "sphere", "S1^2*S2 + s*S3", "S1*S3 - 2/3*S2^2"],
    ["bracket", "sphere", "S1/(s+1)", "S2^2 + S1^2 + S3^2"],
    ["bracket", "torus", "sin(2*pi*1*x)", "cos(2*pi*1*y)"],
    ["bracket", "torus", "--B", "1/2", "sin(2*pi*2*x)*cos(2*pi*1*y) + 1/2",
     "cos(2*pi*1*x)"],
    ["generate", "r2n", "q1^2", "p1^2", "--degree-cap", "4"],
    ["generate", "r2n", "q1", "p1^2", "--degree-cap", "3"],
    ["generate", "sphere", "S1", "S2"],
    ["generate", "sphere", "S1^2", "S2", "--degree-cap", "3"],
    ["generate", "sphere", "S1", "S2", "--format", "markdown"],
    ["generate", "torus", "sin(2*pi*1*x)", "cos(2*pi*1*y)", "--freq-cap", "2"],
    ["normalizer", "r2n", "1", "q1", "p1", "--degree-cap", "4"],
    ["normalizer", "r2n", "--n", "2", "--degree-cap", "3",
     "1", "q1", "p1", "q2", "p2"],
    ["normalizer", "sphere", "1", "S1", "S2", "S3"],
    ["normalizer", "sphere", "S3", "--degree-cap", "2"],
    ["normalizer", "torus", "sin(2*pi*1*x)", "cos(2*pi*1*x)"],
    ["transitivity", "r2n", "q1", "p1", "q1^2*p1"],
    ["transitivity", "r2n", "q1^2"],
    ["transitivity", "sphere", "S1", "S2", "S3"],
    ["transitivity", "sphere", "S3", "S1*S2"],
    ["transitivity", "torus", "sin(2*pi*1*x)", "cos(2*pi*1*y)"],
    ["checkq1", "r2n", "q1^2", "p1^2", "--map", "metaplectic"],
    ["checkq1", "r2n", "q1^3", "p1^3", "--map", "vanhove"],
    ["checkq1", "r2n", "q1^2*p1", "q1*p1", "--map", "position"],
    ["checkq1", "r2n", "q1^3", "p1^3", "--map", "metaplectic"],
    ["checkq1", "r2n", "--n", "2", "q1*p2", "q2^2*p1"],
    ["checkq1", "sphere", "S1", "S2", "--j", "1"],
    ["checkq1", "sphere", "S1^2", "S2", "--j", "1/2"],
    ["checkq1", "sphere", "S1*S2", "S3^2", "--j", "1"],
    ["checkq1", "torus", "sin(2*pi*1*x)", "sin(2*pi*1*y)"],
    ["bracket", "r2n", "q2", "p1"],
    ["bracket", "sphere", "S4", "S1"],
    ["bracket", "sphere", "S1/S2", "S1"],
    ["bracket", "torus", "x", "cos(2*pi*1*x)"],
    ["bracket", "torus", "sin(2*pi*1*z)", "1"],
    ["verify", "r2n"],
    ["verify", "sphere", "--j", "0"],
    ["verify", "sphere", "--j", "1/2"],
    ["verify", "sphere", "--j", "1"],
    ["verify", "sphere", "--j", "10"],
    ["verify", "sphere", "--j", "3/2", "--format", "markdown"],
]


def record(argv):
    from gvh.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def main():
    sys.path.insert(0, str(ROOT / "src"))
    cases = [record(argv) for argv in CASES]
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(cases, indent=1) + "\n")
    print("wrote %d invocations to %s" % (len(cases), OUT))


if __name__ == "__main__":
    main()
