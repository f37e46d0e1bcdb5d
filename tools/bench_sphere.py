"""Time the sphere: `obstruction.sphere_certificate(j)` at j = 3, 10 and
100, and the span commands `generate sphere S1^2 S1 S2 S3` at degree caps
4, 6 and 8, `normalizer sphere --degree-cap 4 1 S1 S2 S3` and `generate
sphere S1 --degree-cap 179` (an ambient of (179+1)² keys around a
one-element span), each call in a fresh interpreter.

Command line, children and rounds: see `tools/benchtool.py`.  The
certificate is the exact replay of the S² obstruction that `gvh verify
sphere --j J` reports: (i/ħ)-commutators of spin matrices over `Scalar`.
The span commands run `gvh.cli.main` with stdout captured: brackets and
echelon steps of sphere polynomials.  A child imports gvh untimed, then
times one call and reports its wall and CPU time.  Over SAMPLES rounds the
script reports the median and quartiles per case and tree.  One more child
per case and tree counts the call's `ExactMatrix` products
(`ExactMatrix._product`), `Scalar` products (`Scalar.__mul__`), gcd
reductions (`scalars._reduce`) and `sphere.harmonic_decompose` calls
(recursive calls included), through wrappers that are never installed while
timing; it also hashes the command's stdout, which must agree across trees.
"""

from __future__ import annotations

import json
import sys

import benchtool

SPAN = ("generate sphere S1^2 S1 S2 S3 --degree-cap 4",
        "generate sphere S1^2 S1 S2 S3 --degree-cap 6",
        "generate sphere S1^2 S1 S2 S3 --degree-cap 8",
        "normalizer sphere --degree-cap 4 1 S1 S2 S3",
        "generate sphere S1 --degree-cap 179")
# a spin j, or the argv of a span command
CALLS = (3, 10, 100) + tuple(case.split() for case in SPAN)
CASES = tuple("sphere_certificate(%d)" % j for j in CALLS[:3]) + SPAN
SAMPLES = 9
COUNTS = ("matrix_products", "scalar_mul", "reduce", "harmonic_decompose")

CHILD = r"""
import contextlib, hashlib, io, json, sys, time
from gvh import cli, matrices, obstruction, scalars, sphere

call, count = json.loads(sys.argv[1]), sys.argv[2] == "count"
counts = dict.fromkeys(%r, 0)


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
    sphere.harmonic_decompose = counting("harmonic_decompose",
                                         sphere.harmonic_decompose)

out = io.StringIO()
wall, cpu = time.perf_counter(), time.process_time()
if isinstance(call, int):
    obstruction.sphere_certificate(call)
else:
    with contextlib.redirect_stdout(out):
        cli.main(call)
wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
print(json.dumps(dict(counts, wall_s=wall, cpu_s=cpu,
                      stdout_sha256=hashlib.sha256(out.getvalue().encode()).hexdigest())))
""" % (COUNTS,)


def _child(src, call, mode):
    return benchtool.child_json(src, CHILD, json.dumps(call), mode)


def bench(trees):
    runs = benchtool.rounds(trees, CALLS, SAMPLES,
                            lambda src, call: _child(src, call, "time"))
    out, digests = {}, {}
    for label, by_case in runs.items():
        out[label] = {"samples": SAMPLES, "cases": []}
        for case, call, recs in zip(CASES, CALLS, by_case):
            counts = _child(trees[label], call, "count")
            digest = digests.setdefault(case, counts["stdout_sha256"])
            if counts["stdout_sha256"] != digest:
                raise RuntimeError("%s: the output of %s differs between trees"
                                   % (label, case))
            wall = [r["wall_s"] for r in recs]
            out[label]["cases"].append(dict(
                {key: counts[key] for key in COUNTS + ("stdout_sha256",)},
                case=case, wall_s=benchtool.quartiles(wall),
                cpu_s=benchtool.quartiles([r["cpu_s"] for r in recs]),
                samples=wall))
            print("%s %s: %.5f s median wall of %d, %d ExactMatrix products, "
                  "%d Scalar.__mul__, %d _reduce, %d harmonic_decompose"
                  % (label, case, benchtool.quartiles(wall)["median"], SAMPLES,
                     counts["matrix_products"], counts["scalar_mul"],
                     counts["reduce"], counts["harmonic_decompose"]),
                  file=sys.stderr)
    return out


if __name__ == "__main__":
    sys.exit(benchtool.main(__doc__, bench))
