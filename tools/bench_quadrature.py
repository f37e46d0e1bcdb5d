"""Time the Hermite quadrature matrices of `verify torus`: the four matrices
of `qmaps.torus_transformed_ops` (A₊, A₋, B₊, B₋) plus the matrix of the
composite A₋A₊ that `obstruction.torus_transform_identities` checks.

Command line, children and rounds: see `tools/benchtool.py`.  Each sample,
for a frequency k = 2, 3 and truncation N = 64, 96, 128, is a fresh
interpreter that builds the exact composite DiffOp untimed, then times its
first `torus_transformed_ops(k, N)` and its first
`hermite_matrix(composite, N, ħ)`, so the Gauss–Hermite rule, its self-test
and every node table are built cold, as in one `verify torus` process.  Over
REPEATS rounds the script reports the median and quartiles of the wall time
of both together and of each part, and the Frobenius norm of each of the
five matrices, so the runs of two trees can be checked for the same output.
"""

from __future__ import annotations

import sys

import benchtool

KS = (2, 3)
TRUNCS = (64, 96, 128)
REPEATS = 9

CHILD = r"""
import json, sys, time
import numpy as np
from gvh.hermite import hermite_matrix
from gvh.qmaps import (DEFAULT_TORUS_HBAR, torus_transformed_ops,
                       transformed_harmonic_op)
k, trunc = int(sys.argv[1]), int(sys.argv[2])
composite = transformed_harmonic_op(-k, 0) * transformed_harmonic_op(k, 0)
start = time.perf_counter()
mats = torus_transformed_ops(k, trunc)
mid = time.perf_counter()
mats += (hermite_matrix(composite, trunc, DEFAULT_TORUS_HBAR),)
end = time.perf_counter()
print(json.dumps({"ops_s": mid - start, "composite_s": end - mid,
                  "fro": [float(np.linalg.norm(m)) for m in mats]}))
"""


def bench(trees):
    cases = [(k, trunc) for trunc in TRUNCS for k in KS]
    runs = benchtool.rounds(trees, cases, REPEATS, lambda src, case:
                            benchtool.child_json(src, CHILD, *case))
    out = {}
    for label, by_case in runs.items():
        out[label] = {"repeats": REPEATS, "cases": []}
        for (k, trunc), recs in zip(cases, by_case):
            totals = [r["ops_s"] + r["composite_s"] for r in recs]
            case = {"k": k, "trunc": trunc, "fro": recs[0]["fro"],
                    "seconds": benchtool.quartiles(totals), "samples": totals,
                    "ops_s": benchtool.quartiles([r["ops_s"] for r in recs]),
                    "composite_s": benchtool.quartiles([r["composite_s"] for r in recs])}
            out[label]["cases"].append(case)
            print("%s k=%d N=%d: %.4f s median of %d (ops %.4f, composite %.4f)"
                  % (label, k, trunc, case["seconds"]["median"], REPEATS,
                     case["ops_s"]["median"], case["composite_s"]["median"]),
                  file=sys.stderr)
    return out


if __name__ == "__main__":
    sys.exit(benchtool.main(__doc__, bench))
