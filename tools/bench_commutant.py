"""Time the commutant SVD of `verify torus`: `hermite.commutant_kernel_dim`
on the transformed torus operators (A₊, A₋, B₊, B₋).

Command line and children: see `tools/benchtool.py`.  For each frequency
k = 2, 3 and truncation N = 64, 96, 128, one child per tree, the trees in
turn, builds the four Hermite matrices once, calls
`commutant_kernel_dim(mats, 1e-6)` once untimed, then REPEATS more times;
the script reports the median and quartiles of the wall time per call.  The
untimed call records the shape of every matrix handed to `np.linalg.svd`,
the kernel dimension and tail[-2], the normalized singular value that
`verify torus` prints as the gap of its irreducibility step.
"""

from __future__ import annotations

import sys

import benchtool

KS = (2, 3)
TRUNCS = (64, 96, 128)
REPEATS = 5

CHILD = r"""
import json, sys, time
import numpy as np
from gvh.hermite import commutant_kernel_dim
from gvh.qmaps import torus_transformed_ops

k, trunc, repeats = map(int, sys.argv[1:])
mats = torus_transformed_ops(k, trunc)
shapes, svd = [], np.linalg.svd


def recording(a, *args, **kwargs):
    shapes.append(list(np.shape(a)))
    return svd(a, *args, **kwargs)


np.linalg.svd = recording
kdim, tail = commutant_kernel_dim(mats, 1e-6)
np.linalg.svd = svd
times = []
for _ in range(repeats):
    start = time.perf_counter()
    commutant_kernel_dim(mats, 1e-6)
    times.append(time.perf_counter() - start)
print(json.dumps({"svd_shapes": shapes, "kdim": kdim, "tail_2": tail[-2],
                  "samples": times}))
"""


def bench(trees):
    cases = [(k, trunc) for trunc in TRUNCS for k in KS]
    runs = benchtool.rounds(trees, cases, 1, lambda src, case:
                            benchtool.child_json(src, CHILD, *case, REPEATS))
    out = {}
    for label, by_case in runs.items():
        out[label] = {"repeats": REPEATS, "cases": []}
        for (k, trunc), [rec] in zip(cases, by_case):
            case = dict(rec, k=k, trunc=trunc, seconds=benchtool.quartiles(rec["samples"]))
            out[label]["cases"].append(case)
            print("%s k=%d N=%d: %.4f s median of %d, kdim %d, tail[-2] %.12g, svd %s" % (
                label, k, trunc, case["seconds"]["median"], REPEATS, case["kdim"],
                case["tail_2"], case["svd_shapes"]), file=sys.stderr)
    return out


if __name__ == "__main__":
    sys.exit(benchtool.main(__doc__, bench))
