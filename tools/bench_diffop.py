"""Time the work of `diffop_compose` in the torus and explore workloads, each
call in a fresh interpreter.

    python3 tools/bench_diffop.py [--src DIR] [--base DIR] [--out FILE]

The cases are `obstruction.torus_q1_certificate(1)` (every Q1 residual of
the prequantization map on the basic sets, k = 1, 2, 3), the composites
A₋A₊ and B₋B₊ of the transformed torus operators at k = 2 and 3, and the
two `gvh checkq1 torus` invocations of the explore workload at seed 0.
Caches live for the life of a process, so every sample runs in a new
interpreter: the child imports gvh and builds the operands untimed, then
times one call (a `gvh` invocation through `cli.main` with stdout
discarded) and reports its wall and CPU time.  The cases alternate,
SAMPLES times each, and the script reports the median and quartiles per
case.  With `--base`, every case also runs on that tree, alternating with
`--src` and in the other order every round, and the two runs are labelled
"parent" (`--base`) and "change" (`--src`).  One more child per case and
tree counts the `Scalar.__mul__` and `diffop_compose` calls of that call,
through wrappers that are never installed while timing.  The children
import numpy (through gvh) with one BLAS thread, as in `perfbench/run.py`.

`--src` selects the `src` tree to import gvh from (default: this
checkout's), so one copy of the script can time another checkout.  With
`--out`, the runs are stored in FILE, keeping the runs stored under other
labels; without it they are printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
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
sys.path.insert(0, sys.argv[1])
from gvh import diffop, obstruction, qmaps, scalars
from gvh.cli import main

case, count = sys.argv[2], sys.argv[3] == "count"
if case == "torus_q1_certificate(1)":
    call = lambda: obstruction.torus_q1_certificate(scalars.S_ONE)
elif case.startswith("gvh "):
    argv = json.loads(sys.argv[4])

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
if count:
    mul, compose = scalars.Scalar.__mul__, diffop.diffop_compose

    def counting_mul(self, other):
        counts["scalar_mul"] += 1
        return mul(self, other)

    def counting_compose(a, b):
        counts["compose"] += 1
        return compose(a, b)

    scalars.Scalar.__mul__ = scalars.Scalar.__rmul__ = counting_mul
    diffop.diffop_compose = counting_compose

wall, cpu = time.perf_counter(), time.process_time()
call()
wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
print(json.dumps(dict(counts, wall_s=wall, cpu_s=cpu)))
"""


def _quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def _child(src, case, mode):
    argv = next((list(a) for a in CHECKQ1 if case == "gvh " + " ".join(a)), [])
    out = subprocess.run([sys.executable, "-c", CHILD, src, case, mode,
                          json.dumps(argv)],
                         check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def bench(trees):
    """{label: cases} for the {label: src} trees, run alternately."""
    samples = {label: {case: [] for case in CASES} for label in trees}
    order = list(trees)
    for _ in range(SAMPLES):
        for case in CASES:
            for label in order:
                samples[label][case].append(_child(trees[label], case, "time"))
        order.reverse()
    out = {}
    for label, by_case in samples.items():
        out[label] = cases = []
        for case, runs in by_case.items():
            counts = _child(trees[label], case, "count")
            wall = [r["wall_s"] for r in runs]
            cases.append({"case": case, "wall_s": _quartiles(wall),
                          "cpu_s": _quartiles([r["cpu_s"] for r in runs]),
                          "scalar_mul": counts["scalar_mul"],
                          "compose": counts["compose"], "samples": wall})
            print("%s %s: %.5f s median wall of %d, %d Scalar.__mul__, %d "
                  "compose" % (label, case, cases[-1]["wall_s"]["median"],
                               SAMPLES, counts["scalar_mul"], counts["compose"]),
                  file=sys.stderr)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"))
    ap.add_argument("--base", default=None)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    trees = {"change": str(Path(args.src).resolve())}
    if args.base:
        trees["parent"] = str(Path(args.base).resolve())
    machine = {"nproc": len(os.sched_getaffinity(0)),
               "processor": platform.processor() or platform.machine(),
               "python": platform.python_version()}
    runs = {label: {"samples": SAMPLES, "machine": machine, "cases": cases}
            for label, cases in bench(trees).items()}
    if args.out is None:
        print(json.dumps(runs, indent=1))
        return 0
    out = Path(args.out)
    stored = json.loads(out.read_text()) if out.exists() else {}
    stored.update(runs)
    out.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
