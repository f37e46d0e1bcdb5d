"""Time `gvh.cli.main` alone on every invocation of the explore workload,
each in a fresh interpreter.

Command line, children and rounds: see `tools/benchtool.py`.  The
invocations are `perfbench.workloads.invocations("explore", 0)`: the short
bracket, generate, normalizer, transitivity and checkq1 calls.  The child
imports numpy and `gvh.cli` untimed (as the benchmark's child does), then
times `main(argv)` with stdout and stderr captured, and the share of it
spent reading the command line: in `cli._parse_args` (absent before the
direct parser), `cli._build_parser` and `argparse.ArgumentParser.parse_args`.
Over SAMPLES rounds the script reports the median and quartiles of the
per-round sums per verb and in total.  One more child per invocation and
tree counts the `scalars._reduce`, `Scalar.from_int`, `MultiPoly.partial` and
`sparse.monoid_product` calls of that call (the last under every name and
class attribute gvh binds it to), through wrappers that are never installed
while timing.  Stdout, stderr and exit code of each invocation
must agree across samples and trees.
"""

from __future__ import annotations

import json
import sys

import benchtool
import workloads  # perfbench/workloads.py, on the path that benchtool sets

SAMPLES = 11
SEED = 0

CHILD = r"""
import argparse, contextlib, hashlib, io, json, sys, time
import numpy  # imported before the clock starts, as in perfbench/child.py
import gvh.cli
from gvh import poly, scalars, sparse

argv, count = json.loads(sys.argv[1]), sys.argv[2] == "count"
args_s = [0.0]


def timed(fn):
    def wrapper(*args):
        t0 = time.perf_counter()
        result = fn(*args)
        args_s[0] += time.perf_counter() - t0
        return result
    return wrapper


for owner, name in ((gvh.cli, "_parse_args"), (gvh.cli, "_build_parser"),
                    (argparse.ArgumentParser, "parse_args")):
    if hasattr(owner, name):
        setattr(owner, name, timed(getattr(owner, name)))
counts = {"reduce": 0, "from_int": 0, "partial": 0, "monoid_product": 0}


def counting(key, fn):
    def wrapper(*args):
        counts[key] += 1
        return fn(*args)
    return wrapper


if count:
    scalars._reduce = counting("reduce", scalars._reduce)
    scalars.Scalar.from_int = classmethod(
        counting("from_int", scalars.Scalar.from_int.__func__))
    poly.MultiPoly.partial = counting("partial", poly.MultiPoly.partial)
    product, wrapped = sparse.monoid_product, counting("monoid_product", sparse.monoid_product)
    for module in [m for name, m in sys.modules.items() if name.startswith("gvh.")]:
        for owner in [module] + [c for c in vars(module).values() if isinstance(c, type)]:
            for name, value in list(vars(owner).items()):
                if value is product:
                    setattr(owner, name, wrapped)

out, err = io.StringIO(), io.StringIO()
t0 = time.perf_counter()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = gvh.cli.main(argv)
wall = time.perf_counter() - t0
digest = hashlib.sha256((out.getvalue() + "\0" + err.getvalue()).encode())
print(json.dumps(dict(counts, wall_s=wall, args_s=args_s[0], exit=code,
                      output=digest.hexdigest())))
"""


def bench(trees):
    argvs = [inv["argv"] for inv in workloads.invocations("explore", SEED)]
    samples = benchtool.rounds(trees, argvs, SAMPLES, lambda src, argv:
                               benchtool.child_json(src, CHILD, json.dumps(argv), "time"))
    for k, argv in enumerate(argvs):
        seen = {(r["exit"], r["output"]) for runs in samples.values() for r in runs[k]}
        assert len(seen) == 1, ("outputs differ", argv, seen)
    out = {}
    for label, runs in samples.items():
        counts = [benchtool.child_json(trees[label], CHILD, json.dumps(argv), "count")
                  for argv in argvs]

        def per_round(key, keep=lambda argv: True):
            return [sum(runs[k][r][key] for k, argv in enumerate(argvs) if keep(argv))
                    for r in range(SAMPLES)]
        out[label] = run = {
            "samples": SAMPLES, "workload": "explore", "seed": SEED,
            "main_s": benchtool.quartiles(per_round("wall_s")),
            "argument_step_s": benchtool.quartiles(per_round("args_s")),
            "per_verb_main_s": {
                v: benchtool.quartiles(per_round("wall_s", lambda a, v=v: a[0] == v))
                for v in sorted({argv[0] for argv in argvs})},
            "reduce_calls": sum(c["reduce"] for c in counts),
            "from_int_calls": sum(c["from_int"] for c in counts),
            "partial_calls": sum(c["partial"] for c in counts),
            "monoid_product_calls": sum(c["monoid_product"] for c in counts),
            "main_s_samples": per_round("wall_s"),
        }
        print("%s: main %.4f s, argument step %.4f s (medians of %d), %d _reduce, "
              "%d from_int, %d partial, %d monoid_product"
              % (label, run["main_s"]["median"], run["argument_step_s"]["median"],
                 SAMPLES, run["reduce_calls"], run["from_int_calls"],
                 run["partial_calls"], run["monoid_product_calls"]), file=sys.stderr)
    return out


if __name__ == "__main__":
    sys.exit(benchtool.main(__doc__, bench))
