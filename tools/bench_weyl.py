"""Time the exact solves of the r2n workload, `vonneumann_rules_flat(6)` and
`(8)` and `gvh verify r2n`, each sample in a fresh interpreter, for one or
more source trees at once.

    python3 tools/bench_weyl.py [LABEL=SRC ...] [--out FILE]

Each LABEL=SRC names a `src` tree to import gvh from (default: this
checkout's, as `change`), so one copy of the script compares two checkouts:
`parent=../parent/src change=src`.  The Weyl word caches live for the life of
a process, so every sample runs in a new interpreter: the child imports gvh
untimed, then times one call (for `verify r2n`, `cli.main(["verify", "r2n"])`
with stdout discarded).  It reports its wall and CPU time and counts, through
wrappers it installs:

- `commutators`: calls of the (i/ħ)-commutator entry point `ih_commutator`
  (of `TermMap.commutator` in a tree without it);
- `solve_affine`: calls of `obstruction.solve_affine`;
- `reductions`: calls of `scalars._reduce`, each a gcd reduction of a ratio;
- `row_lookups`: stored rows that `linalg.Echelon.reduce` reads out of the
  echelon's row list or pivot map;
- `caches`: hits and misses of `weyl.word_product` and `weyl.word_bracket`.

Every round runs each case once per tree, the trees in turn and the first
tree alternating between rounds, SAMPLES rounds in all; the script reports
the median and quartiles per tree and case.  The children import numpy
(through gvh) with one BLAS thread, as in `perfbench/run.py`.  With `--out`,
each tree's run is stored in FILE under its label, keeping the runs stored
under other labels; without it the runs are printed.
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
CASES = ("vonneumann_rules_flat(6)", "vonneumann_rules_flat(8)", "gvh verify r2n")
SAMPLES = 15

CHILD = r"""
import contextlib, json, os, sys, time
sys.path.insert(0, sys.argv[1])
from gvh import linalg, obstruction, scalars, sparse, weyl
from gvh.cli import main

counts = dict.fromkeys(("commutators", "solve_affine", "reductions",
                        "row_lookups"), 0)


def counting(key, fn):
    def wrapper(*args):
        counts[key] += 1
        return fn(*args)
    return wrapper


entry = "ih_commutator" if hasattr(sparse.TermMap, "ih_commutator") else "commutator"
for cls in (sparse.TermMap, weyl.WeylElement):
    if entry in vars(cls):
        setattr(cls, entry, counting("commutators", vars(cls)[entry]))
obstruction.solve_affine = counting("solve_affine", obstruction.solve_affine)
scalars._reduce = counting("reductions", scalars._reduce)

in_reduce = [False]


class Rows(list):
    def __iter__(self):
        for item in list.__iter__(self):
            counts["row_lookups"] += in_reduce[0]
            yield item


class Map(dict):
    def __getitem__(self, key):
        counts["row_lookups"] += in_reduce[0]
        return dict.__getitem__(self, key)

    def get(self, key, default=None):
        counts["row_lookups"] += in_reduce[0]
        return dict.get(self, key, default)


init, reduce = linalg.Echelon.__init__, linalg.Echelon.reduce


def counting_init(self, *args):
    init(self, *args)
    for name, value in list(vars(self).items()):
        if type(value) in (list, dict):
            setattr(self, name, (Rows if type(value) is list else Map)(value))


def counting_reduce(self, coords):
    in_reduce[0] = True
    try:
        return reduce(self, coords)
    finally:
        in_reduce[0] = False


linalg.Echelon.__init__, linalg.Echelon.reduce = counting_init, counting_reduce

wall, cpu = time.perf_counter(), time.process_time()
if sys.argv[2] == "gvh verify r2n":
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        code = main(["verify", "r2n"])
    assert code == 0, code
else:
    obstruction.vonneumann_rules_flat(int(sys.argv[2].strip("vonneumann_rules_flat()")))
wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
caches = {}
for name in ("word_product", "word_bracket"):
    cache = getattr(weyl, name, None)
    if cache is not None:
        info = cache.cache_info()
        caches[name] = {"hits": info.hits, "misses": info.misses}
print(json.dumps({"wall_s": wall, "cpu_s": cpu, "caches": caches, **counts}))
"""

COUNTS = ("commutators", "solve_affine", "reductions", "row_lookups", "caches")


def _quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def bench(trees):
    samples = {(label, case): [] for label in trees for case in CASES}
    labels = list(trees)
    for k in range(SAMPLES):
        order = labels if k % 2 == 0 else labels[::-1]
        for case in CASES:
            for label in order:
                out = subprocess.run([sys.executable, "-c", CHILD, trees[label], case],
                                     check=True, capture_output=True, text=True)
                samples[(label, case)].append(json.loads(out.stdout))
    runs = {}
    for (label, case), recs in samples.items():
        counts = {json.dumps([r[k] for k in COUNTS]) for r in recs}
        assert len(counts) == 1, counts
        wall = [r["wall_s"] for r in recs]
        entry = {"case": case, "wall_s": _quartiles(wall),
                 "cpu_s": _quartiles([r["cpu_s"] for r in recs]),
                 **{k: recs[0][k] for k in COUNTS}, "samples": wall}
        runs.setdefault(label, []).append(entry)
        print("%s %s: %.4f s median wall of %d, %d commutators, %d reductions, "
              "%d row lookups" % (label, case, entry["wall_s"]["median"], SAMPLES,
                                  entry["commutators"], entry["reductions"],
                                  entry["row_lookups"]), file=sys.stderr)
    return runs


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trees", nargs="*", metavar="LABEL=SRC",
                    default=["change=%s" % (ROOT / "src")])
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    trees = {}
    for spec in args.trees:
        label, sep, src = spec.partition("=")
        if not sep or not label or label in trees:
            ap.error("expected distinct LABEL=SRC pairs, got %r" % spec)
        trees[label] = str(Path(src).resolve())
    machine = {"nproc": len(os.sched_getaffinity(0)),
               "processor": platform.processor() or platform.machine(),
               "python": platform.python_version()}
    runs = {label: {"samples": SAMPLES, "machine": machine, "alternated_with":
                    sorted(set(trees) - {label}), "cases": cases}
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
