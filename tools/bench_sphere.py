"""Time `obstruction.sphere_certificate(j)` at j = 3, 10 and 100, each call in
a fresh interpreter.

Command line, children and rounds: see `tools/benchtool.py`.  The
certificate is the exact replay of the S² obstruction that `gvh verify
sphere --j J` reports: (i/ħ)-commutators of spin matrices over `Scalar`.  A
child imports gvh untimed, then times one call and reports its wall and CPU
time.  Over SAMPLES rounds the script reports the median and quartiles per
case and tree.  One more child per case and tree counts the call's
`ExactMatrix` products (`ExactMatrix._product`), `Scalar` products
(`Scalar.__mul__`) and gcd reductions (`scalars._reduce`), through wrappers
that are never installed while timing.
"""

from __future__ import annotations

import sys

import benchtool

SPINS = (3, 10, 100)
CASES = tuple("sphere_certificate(%d)" % j for j in SPINS)
SAMPLES = 9

CHILD = r"""
import json, sys, time
from gvh import matrices, obstruction, scalars

j, count = int(sys.argv[1]), sys.argv[2] == "count"
counts = {"matrix_products": 0, "scalar_mul": 0, "reduce": 0}


def counting(key, fn):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


if count:
    matrices.ExactMatrix._product = counting(
        "matrix_products", matrices.ExactMatrix._product)
    scalars.Scalar.__mul__ = scalars.Scalar.__rmul__ = \
        counting("scalar_mul", scalars.Scalar.__mul__)
    scalars._reduce = counting("reduce", scalars._reduce)

wall, cpu = time.perf_counter(), time.process_time()
obstruction.sphere_certificate(j)
wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
print(json.dumps(dict(counts, wall_s=wall, cpu_s=cpu)))
"""


def _child(src, j, mode):
    return benchtool.child_json(src, CHILD, j, mode)


def bench(trees):
    runs = benchtool.rounds(trees, SPINS, SAMPLES,
                            lambda src, j: _child(src, j, "time"))
    out = {}
    for label, by_case in runs.items():
        out[label] = {"samples": SAMPLES, "cases": []}
        for case, j, recs in zip(CASES, SPINS, by_case):
            counts = _child(trees[label], j, "count")
            wall = [r["wall_s"] for r in recs]
            out[label]["cases"].append(dict(
                {key: counts[key] for key in ("matrix_products", "scalar_mul", "reduce")},
                case=case, wall_s=benchtool.quartiles(wall),
                cpu_s=benchtool.quartiles([r["cpu_s"] for r in recs]),
                samples=wall))
            print("%s %s: %.5f s median wall of %d, %d ExactMatrix products, "
                  "%d Scalar.__mul__, %d _reduce"
                  % (label, case, benchtool.quartiles(wall)["median"], SAMPLES,
                     counts["matrix_products"], counts["scalar_mul"],
                     counts["reduce"]), file=sys.stderr)
    return out


if __name__ == "__main__":
    sys.exit(benchtool.main(__doc__, bench))
