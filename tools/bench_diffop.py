"""Time the work of `diffop_compose` in the torus and explore workloads, each
call in a fresh interpreter.

Command line, children and rounds: see `tools/benchtool.py`.  The cases are
`obstruction.torus_q1_certificate(1)` (every Q1 residual of the
prequantization map on the basic sets, k = 1, 2, 3), the composites A₋A₊ and
B₋B₊ of the transformed torus operators at k = 2 and 3, and the two
`gvh checkq1 torus` invocations of the explore workload at seed 0.  Caches
live for the life of a process, so the child imports gvh and builds the
operands untimed, then times one call (a `gvh` invocation through `cli.main`
with stdout discarded) and reports its wall and CPU time.  Over SAMPLES
rounds the script reports the median and quartiles per case and tree.  One
more child per case and tree counts the `Scalar.__mul__` and
`diffop_compose` calls of that call, through wrappers that are never
installed while timing.
"""

from __future__ import annotations

import json
import sys

import benchtool

CHECKQ1 = (
    ("checkq1", "torus", "2*sin(2*pi*1*x)*cos(2*pi*2*y) + 2*cos(2*pi*1*y)",
     "1*sin(2*pi*2*x) - 5*cos(2*pi*1*x)"),
    ("checkq1", "torus", "5*sin(2*pi*2*x)*cos(2*pi*2*y) + 3*cos(2*pi*1*y)",
     "2*sin(2*pi*2*x)*cos(2*pi*1*y) - 5*cos(2*pi*1*x)"),
)
CASES = ("torus_q1_certificate(1)", "A-A+ k=2", "B-B+ k=2", "A-A+ k=3",
         "B-B+ k=3") + tuple("gvh " + " ".join(argv) for argv in CHECKQ1)
SAMPLES = 11

CHILD = r"""
import contextlib, json, os, sys, time
from gvh import diffop, obstruction, qmaps, scalars
from gvh.cli import main

case, count = sys.argv[1], sys.argv[2] == "count"
if case == "torus_q1_certificate(1)":
    call = lambda: obstruction.torus_q1_certificate(scalars.S_ONE)
elif case.startswith("gvh "):
    argv = json.loads(sys.argv[3])

    def call():
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            assert main(argv) == 0
else:
    k = int(case[-1])
    m, l = (k, 0) if case[0] == "A" else (0, k)
    plus, minus = (qmaps.transformed_harmonic_op(m, l),
                   qmaps.transformed_harmonic_op(-m, -l))
    call = lambda: minus * plus

counts = {"scalar_mul": 0, "compose": 0}


def counting(key, fn):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


if count:
    scalars.Scalar.__mul__ = scalars.Scalar.__rmul__ = \
        counting("scalar_mul", scalars.Scalar.__mul__)
    diffop.diffop_compose = counting("compose", diffop.diffop_compose)

wall, cpu = time.perf_counter(), time.process_time()
call()
wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
print(json.dumps(dict(counts, wall_s=wall, cpu_s=cpu)))
"""


def _child(src, case, mode):
    argv = next((list(a) for a in CHECKQ1 if case == "gvh " + " ".join(a)), [])
    return benchtool.child_json(src, CHILD, case, mode, json.dumps(argv))


def bench(trees):
    runs = benchtool.rounds(trees, CASES, SAMPLES,
                            lambda src, case: _child(src, case, "time"))
    out = {}
    for label, by_case in runs.items():
        out[label] = {"samples": SAMPLES, "cases": []}
        for case, recs in zip(CASES, by_case):
            counts = _child(trees[label], case, "count")
            wall = [r["wall_s"] for r in recs]
            out[label]["cases"].append({
                "case": case, "wall_s": benchtool.quartiles(wall),
                "cpu_s": benchtool.quartiles([r["cpu_s"] for r in recs]),
                "scalar_mul": counts["scalar_mul"], "compose": counts["compose"],
                "samples": wall})
            print("%s %s: %.5f s median wall of %d, %d Scalar.__mul__, %d "
                  "compose" % (label, case, benchtool.quartiles(wall)["median"],
                               SAMPLES, counts["scalar_mul"], counts["compose"]),
                  file=sys.stderr)
    return out


if __name__ == "__main__":
    sys.exit(benchtool.main(__doc__, bench))
