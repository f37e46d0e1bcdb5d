"""Time the Weyl-algebra work of the r2n workload: `vonneumann_rules_flat(6)`
and `gvh verify r2n`, each in a fresh interpreter.

    python3 tools/bench_weyl.py [--src DIR] [--label NAME] [--out FILE]

`weyl.word_product` caches the normal-ordered product of each pair of words
for the life of a process, so every sample runs in a new interpreter: the
child imports gvh untimed, then times one call (for `verify r2n`,
`cli.main(["verify", "r2n"])` with stdout discarded), and reports its wall
and CPU time, its numbers of `TermMap.commutator` and
`obstruction.solve_affine` calls (counted by wrappers the child installs)
and, where the tree has the cache, its hits and misses.  The cases
alternate, SAMPLES times each, and the script reports the median and
quartiles per case.  The children import numpy (through gvh) with one BLAS
thread, as in `perfbench/run.py`.

`--src` selects the `src` tree to import gvh from (default: this
checkout's), so one copy of the script can time another checkout.  With
`--out`, the run is stored in FILE under `--label`, keeping the runs stored
under other labels; without it the run is printed.
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
CASES = ("vonneumann_rules_flat(6)", "gvh verify r2n")
SAMPLES = 15

CHILD = r"""
import contextlib, json, os, sys, time
sys.path.insert(0, sys.argv[1])
from gvh import obstruction, sparse, weyl
from gvh.cli import main

commutators = solves = 0
commutator, solve_affine = sparse.TermMap.commutator, obstruction.solve_affine


def counting(self, other):
    global commutators
    commutators += 1
    return commutator(self, other)


def counting_solve(*args):
    global solves
    solves += 1
    return solve_affine(*args)


sparse.TermMap.commutator = counting
obstruction.solve_affine = counting_solve

wall, cpu = time.perf_counter(), time.process_time()
if sys.argv[2] == "gvh verify r2n":
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        code = main(["verify", "r2n"])
    assert code == 0, code
else:
    obstruction.vonneumann_rules_flat(6)
wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
cache = getattr(weyl, "word_product", None)
info = cache and cache.cache_info()
print(json.dumps({"wall_s": wall, "cpu_s": cpu, "commutators": commutators,
                  "solve_affine": solves,
                  "cache": info and {"hits": info.hits, "misses": info.misses}}))
"""


def _quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def bench(src):
    samples = {case: [] for case in CASES}
    for _ in range(SAMPLES):
        for case in CASES:
            out = subprocess.run([sys.executable, "-c", CHILD, src, case],
                                 check=True, capture_output=True, text=True)
            samples[case].append(json.loads(out.stdout))
    cases = []
    for case, runs in samples.items():
        wall = [r["wall_s"] for r in runs]
        cpu = [r["cpu_s"] for r in runs]
        counts = {json.dumps([r["cache"], r["commutators"], r["solve_affine"]])
                  for r in runs}
        assert len(counts) == 1, counts
        cases.append({"case": case, "wall_s": _quartiles(wall),
                      "cpu_s": _quartiles(cpu), "cache": runs[0]["cache"],
                      "commutators": runs[0]["commutators"],
                      "solve_affine": runs[0]["solve_affine"], "samples": wall})
        print("%s: %.4f s median wall of %d, %d commutators, %d solve_affine, "
              "cache %s" % (case, cases[-1]["wall_s"]["median"], SAMPLES,
                            runs[0]["commutators"], runs[0]["solve_affine"],
                            runs[0]["cache"]),
              file=sys.stderr)
    return cases


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"))
    ap.add_argument("--label", default="change")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    run = {"samples": SAMPLES,
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
