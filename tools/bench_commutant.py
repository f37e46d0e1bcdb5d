"""Time the commutant SVD of `verify torus`: `hermite.commutant_kernel_dim`
on the transformed torus operators (A₊, A₋, B₊, B₋).

    python3 tools/bench_commutant.py [--src DIR] [--label NAME] [--out FILE]

For each frequency k = 2, 3 and truncation N = 64, 96, 128 the script builds
the four Hermite matrices once, calls `commutant_kernel_dim(mats, 1e-6)` once
untimed, then five more times, and reports the median and quartiles of the
wall time per call.  The untimed call records the shape of every matrix
handed to `np.linalg.svd`, the kernel dimension and tail[-2], the normalized
singular value that `verify torus` prints as the gap of its irreducibility
step.

BLAS runs on one thread, as in `perfbench/run.py`: the thread count is set
before numpy is imported.  `--src` selects the `src` tree to import gvh from
(default: this checkout's), so one copy of the script can time another
checkout.  With `--out`, the run is stored in FILE under `--label`, keeping
the runs stored under other labels; without it the run is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
KS = (2, 3)
TRUNCS = (64, 96, 128)
REPEATS = 5


def _quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def bench():
    import numpy as np

    from gvh.hermite import commutant_kernel_dim
    from gvh.qmaps import torus_transformed_ops

    shapes = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        shapes.append(list(np.shape(a)))
        return svd(a, *args, **kwargs)

    cases = []
    for trunc in TRUNCS:
        for k in KS:
            mats = torus_transformed_ops(k, trunc)
            shapes.clear()
            np.linalg.svd = recording
            try:
                kdim, tail = commutant_kernel_dim(mats, 1e-6)
            finally:
                np.linalg.svd = svd
            times = []
            for _ in range(REPEATS):
                start = time.perf_counter()
                commutant_kernel_dim(mats, 1e-6)
                times.append(time.perf_counter() - start)
            cases.append({"k": k, "trunc": trunc, "svd_shapes": list(shapes),
                          "kdim": kdim, "tail_2": tail[-2],
                          "seconds": _quartiles(times), "samples": times})
            print("k=%d N=%d: %.4f s median of %d, kdim %d, tail[-2] %.12g, svd %s"
                  % (k, trunc, cases[-1]["seconds"]["median"], REPEATS, kdim,
                     tail[-2], shapes), file=sys.stderr)
    return cases


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"))
    ap.add_argument("--label", default="change")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    run = {"repeats": REPEATS, "blas_threads": 1,
           "machine": {"nproc": len(os.sched_getaffinity(0)),
                       "processor": platform.processor() or platform.machine(),
                       "python": platform.python_version()},
           "cases": bench()}
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
