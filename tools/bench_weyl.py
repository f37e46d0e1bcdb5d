"""Time the exact solves of the r2n workload, `vonneumann_rules_flat(6)` and
`(8)` and `gvh verify r2n`, each sample in a fresh interpreter.

Command line, children and rounds: see `tools/benchtool.py`.  The Weyl word
caches live for the life of a process, so every sample runs in a new
interpreter: the child imports gvh untimed, then times one call (for
`verify r2n`, `cli.main(["verify", "r2n"])` with stdout discarded).  It
reports its wall and CPU time and counts, through wrappers it installs:

- `commutators`: calls of the (i/ħ)-commutator entry point `ih_commutator`;
- `solve_affine`: calls of `obstruction.solve_affine`;
- `reductions`: calls of `scalars._reduce`, each a gcd reduction of a ratio;
- `row_lookups`: stored rows that `linalg.Echelon.reduce` reads out of the
  echelon's pivot map;
- `caches`: hits and misses of `weyl.word_product` and `weyl.word_bracket`.

Over SAMPLES rounds the script reports the median and quartiles per tree and
case; a tree's counts must agree across its samples.
"""

from __future__ import annotations

import json
import sys

import benchtool

CASES = ("vonneumann_rules_flat(6)", "vonneumann_rules_flat(8)", "gvh verify r2n")
SAMPLES = 15

CHILD = r"""
import contextlib, json, os, sys, time
from gvh import linalg, obstruction, scalars, sparse, weyl
from gvh.cli import main

counts = dict.fromkeys(("commutators", "solve_affine", "reductions", "row_lookups"), 0)


def counting(key, fn):
    def wrapper(*args):
        counts[key] += 1
        return fn(*args)
    return wrapper


for cls in (sparse.TermMap, weyl.WeylElement):
    if "ih_commutator" in vars(cls):
        setattr(cls, "ih_commutator", counting("commutators", vars(cls)["ih_commutator"]))
obstruction.solve_affine = counting("solve_affine", obstruction.solve_affine)
scalars._reduce = counting("reductions", scalars._reduce)

in_reduce = [False]


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
    self._by_pivot = Map(self._by_pivot)


def counting_reduce(self, coords):
    in_reduce[0] = True
    try:
        return reduce(self, coords)
    finally:
        in_reduce[0] = False


linalg.Echelon.__init__, linalg.Echelon.reduce = counting_init, counting_reduce

wall, cpu = time.perf_counter(), time.process_time()
if sys.argv[1] == "gvh verify r2n":
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        assert main(["verify", "r2n"]) == 0
else:
    obstruction.vonneumann_rules_flat(int(sys.argv[1].strip("vonneumann_rules_flat()")))
wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
caches = {name: {"hits": info.hits, "misses": info.misses}
          for name, info in (("word_product", weyl.word_product.cache_info()),
                             ("word_bracket", weyl.word_bracket.cache_info()))}
print(json.dumps({"wall_s": wall, "cpu_s": cpu, "caches": caches, **counts}))
"""

COUNTS = ("commutators", "solve_affine", "reductions", "row_lookups", "caches")


def bench(trees):
    samples = benchtool.rounds(trees, CASES, SAMPLES, lambda src, case:
                               benchtool.child_json(src, CHILD, case))
    out = {}
    for label, by_case in samples.items():
        out[label] = {"samples": SAMPLES, "cases": []}
        for case, recs in zip(CASES, by_case):
            counts = {json.dumps([r[k] for k in COUNTS]) for r in recs}
            assert len(counts) == 1, counts
            wall = [r["wall_s"] for r in recs]
            entry = {"case": case, "wall_s": benchtool.quartiles(wall),
                     "cpu_s": benchtool.quartiles([r["cpu_s"] for r in recs]),
                     **{k: recs[0][k] for k in COUNTS}, "samples": wall}
            out[label]["cases"].append(entry)
            print("%s %s: %.4f s median wall of %d, %d commutators, %d reductions, %d row "
                  "lookups" % (label, case, entry["wall_s"]["median"], SAMPLES,
                               entry["commutators"], entry["reductions"],
                               entry["row_lookups"]), file=sys.stderr)
    return out


if __name__ == "__main__":
    sys.exit(benchtool.main(__doc__, bench))
