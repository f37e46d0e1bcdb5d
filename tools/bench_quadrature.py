"""Time the Hermite quadrature matrices of `verify torus`: the four matrices
of `qmaps.torus_transformed_ops` (A₊, A₋, B₊, B₋) plus the matrix of the
composite A₋A₊ that `obstruction.torus_transform_identities` checks.

    python3 tools/bench_quadrature.py [--src DIR] [--label NAME] [--out FILE]

For each frequency k = 2, 3 and truncation N = 64, 96, 128 the script starts
REPEATS fresh interpreters.  Each builds the exact composite DiffOp untimed,
then times its first `torus_transformed_ops(k, N)` and its first
`hermite_matrix(composite, N, ħ)`, so the Gauss–Hermite rule, its self-test
and every node table are built cold, as in one `verify torus` process.  The
report gives the median and quartiles of the wall time of both together and
of each part, and the Frobenius norm of each of the five matrices, so the
runs of two trees can be checked for the same output.

BLAS runs on one thread, as in `perfbench/run.py`: the thread count is set in
the environment every child inherits.  `--src` selects the `src` tree to
import gvh from (default: this checkout's), so one copy of the script can
time another checkout.  With `--out`, the run is stored in FILE under
`--label`, keeping the runs stored under other labels; without it the run is
printed.
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
KS = (2, 3)
TRUNCS = (64, 96, 128)
REPEATS = 9

CHILD = r"""
import json, sys, time
sys.path.insert(0, sys.argv[1])
import numpy as np
from gvh.hermite import hermite_matrix
from gvh.qmaps import (DEFAULT_TORUS_HBAR, torus_transformed_ops,
                       transformed_harmonic_op)
k, trunc = int(sys.argv[2]), int(sys.argv[3])
composite = transformed_harmonic_op(-k, 0) * transformed_harmonic_op(k, 0)
start = time.perf_counter()
mats = torus_transformed_ops(k, trunc)
mid = time.perf_counter()
mats += (hermite_matrix(composite, trunc, DEFAULT_TORUS_HBAR),)
end = time.perf_counter()
print(json.dumps({"ops_s": mid - start, "composite_s": end - mid,
                  "fro": [float(np.linalg.norm(m.entries)) for m in mats]}))
"""


def _quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def _child(src, k, trunc):
    out = subprocess.run([sys.executable, "-c", CHILD, src, str(k), str(trunc)],
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def bench(src):
    cases = []
    for trunc in TRUNCS:
        for k in KS:
            runs = [_child(src, k, trunc) for _ in range(REPEATS)]
            totals = [r["ops_s"] + r["composite_s"] for r in runs]
            cases.append({"k": k, "trunc": trunc,
                          "seconds": _quartiles(totals), "samples": totals,
                          "ops_s": _quartiles([r["ops_s"] for r in runs]),
                          "composite_s": _quartiles([r["composite_s"] for r in runs]),
                          "fro": runs[0]["fro"]})
            print("k=%d N=%d: %.4f s median of %d (ops %.4f, composite %.4f)"
                  % (k, trunc, cases[-1]["seconds"]["median"], REPEATS,
                     cases[-1]["ops_s"]["median"],
                     cases[-1]["composite_s"]["median"]), file=sys.stderr)
    return cases


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"))
    ap.add_argument("--label", default="change")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    run = {"repeats": REPEATS, "blas_threads": 1,
           "machine": {"nproc": len(os.sched_getaffinity(0)),
                       "processor": platform.processor() or platform.machine(),
                       "python": platform.python_version()},
           "cases": bench(str(Path(args.src).resolve()))}
    if args.out is None:
        print(json.dumps(run, indent=1))
        return 0
    out = Path(args.out)
    runs = json.loads(out.read_text()) if out.exists() else {}
    runs[args.label] = run
    out.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
