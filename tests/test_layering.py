"""Each verb loads only what it runs: the exact verbs never import numpy,
the Hermite numerics or the extension solver.

The probe runs in a fresh interpreter, since this test session has long since
imported all three."""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

EXACT = [
    ["bracket", "r2n", "q1^2*p1", "p1^2"],
    ["bracket", "sphere", "S1", "S2"],
    ["bracket", "torus", "sin(2*pi*1*x)", "cos(2*pi*1*y)"],
    ["generate", "r2n", "q1^2", "p1^2", "--degree-cap", "4"],
    ["generate", "sphere", "S1", "S2"],
    ["generate", "torus", "sin(2*pi*1*x)", "cos(2*pi*1*y)", "--freq-cap", "2"],
    ["normalizer", "r2n", "1", "q1", "p1", "--degree-cap", "4"],
    ["normalizer", "sphere", "1", "S1", "S2", "S3"],
    ["normalizer", "torus", "sin(2*pi*1*x)", "cos(2*pi*1*x)"],
    ["checkq1", "r2n", "q1^2", "p1^2", "--map", "metaplectic"],
    ["checkq1", "sphere", "S1", "S2", "--j", "1"],
    ["checkq1", "torus", "sin(2*pi*1*x)", "sin(2*pi*1*y)"],
]

HEAVY = ("numpy", "gvh.hermite", "gvh.obstruction")

PROBE = """
import contextlib, io, json, sys
from gvh.cli import main

def loaded():
    return [m for m in %r if m in sys.modules]

codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
exact = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    main(["verify", "r2n"])
print(json.dumps({"codes": codes, "exact": exact, "verify": loaded()}))
""" % (HEAVY,)


def test_exact_verbs_load_no_numerics():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", PROBE, json.dumps(EXACT)],
                         env=env, capture_output=True, text=True, check=True)
    got = json.loads(out.stdout)
    assert got["codes"] == [0] * len(EXACT)
    assert got["exact"] == []
    # the probe sees a heavy import when one happens: verify loads all three
    assert got["verify"] == list(HEAVY)


def test_torus_verify_leaves_numpy_polynomial_unloaded():
    # the Gauss–Hermite rule is gvh's own; numpy.polynomial is a lazy
    # submodule that would add its import to every torus run
    probe = ("import contextlib, io, sys\n"
             "from gvh.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = main(['verify', 'torus', '--k', '1', '--trunc', '32'])\n"
             "print(code, 'numpy' in sys.modules, 'numpy.polynomial' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0", "True", "False"]
