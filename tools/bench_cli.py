"""Time `gvh.cli.main` alone on every invocation of the explore workload,
each in a fresh interpreter.

    python3 tools/bench_cli.py [--src DIR] [--base DIR] [--out FILE]

The invocations are `perfbench.workloads.invocations("explore", 0)`: the
short bracket, generate, normalizer, transitivity and checkq1 calls.
Every sample runs in a new interpreter with `PYTHONDONTWRITEBYTECODE=1`,
so gvh compiles from source as in a fresh checkout; the child imports
numpy and `gvh.cli` untimed (as the benchmark's child does), then times
`main(argv)` with stdout and stderr captured, and the share of it spent in
`cli._build_parser`.  Rounds repeat SAMPLES times; within a round every
invocation runs on each tree in turn.  The script reports the median and
quartiles of the per-round sums per verb and in total.  One more child per
invocation and tree counts the `scalars._reduce` and `Scalar.from_int`
calls of that call, through wrappers that are never installed while
timing.

`--src` selects the `src` tree to time (default: this checkout's); with
`--base`, every invocation also runs on that tree, and the two are labelled
"parent" (`--base`) and "change" (`--src`).  Their stdout, stderr and exit
code must agree.  With `--out`, the run is written to FILE; without it, it
is printed.
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

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

SAMPLES = 11
SEED = 0

CHILD = r"""
import contextlib, hashlib, io, json, sys, time
import numpy  # imported before the clock starts, as in perfbench/child.py
import gvh.cli
from gvh import scalars

argv, count = json.loads(sys.argv[1]), sys.argv[2] == "count"
build, parser_s = gvh.cli._build_parser, [0.0]


def timed_build(*args):
    t0 = time.perf_counter()
    parser = build(*args)
    parser_s[0] += time.perf_counter() - t0
    return parser


gvh.cli._build_parser = timed_build
counts = {"reduce": 0, "from_int": 0}
if count:
    reduce, from_int = scalars._reduce, scalars.Scalar.from_int.__func__

    def counting_reduce(num, den):
        counts["reduce"] += 1
        return reduce(num, den)

    def counting_from_int(cls, n):
        counts["from_int"] += 1
        return from_int(cls, n)

    scalars._reduce = counting_reduce
    scalars.Scalar.from_int = classmethod(counting_from_int)

out, err = io.StringIO(), io.StringIO()
t0 = time.perf_counter()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = gvh.cli.main(argv)
wall = time.perf_counter() - t0
digest = hashlib.sha256((out.getvalue() + "\0" + err.getvalue()).encode())
print(json.dumps(dict(counts, wall_s=wall, parser_s=parser_s[0], exit=code,
                      output=digest.hexdigest())))
"""


def _child(src, argv, mode):
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argv), mode],
                         env=env, check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def _quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def bench(trees):
    """{label: run} for the {label: src} trees, run alternately."""
    argvs = [inv["argv"] for inv in workloads.invocations("explore", SEED)]
    verbs = sorted({argv[0] for argv in argvs})
    samples = {label: [[] for _ in argvs] for label in trees}
    order = list(trees)
    for _ in range(SAMPLES):
        for k, argv in enumerate(argvs):
            for label in order:
                samples[label][k].append(_child(trees[label], argv, "time"))
        order.reverse()
    counts = {label: [_child(src, argv, "count") for argv in argvs]
              for label, src in trees.items()}
    for k, argv in enumerate(argvs):
        seen = {(r["exit"], r["output"]) for runs in samples.values() for r in runs[k]}
        assert len(seen) == 1, ("outputs differ", argv, seen)
    out = {}
    for label, runs in samples.items():
        def rounds(key, keep=lambda argv: True):
            return [sum(runs[k][r][key] for k, argv in enumerate(argvs) if keep(argv))
                    for r in range(SAMPLES)]
        out[label] = {
            "main_s": _quartiles(rounds("wall_s")),
            "build_parser_s": _quartiles(rounds("parser_s")),
            "per_verb_main_s": {v: _quartiles(rounds("wall_s", lambda a, v=v: a[0] == v))
                                for v in verbs},
            "reduce_calls": sum(c["reduce"] for c in counts[label]),
            "from_int_calls": sum(c["from_int"] for c in counts[label]),
            "main_s_samples": rounds("wall_s"),
        }
        print("%s: main %.4f s, _build_parser %.4f s (medians of %d), "
              "%d _reduce, %d from_int" % (
                  label, out[label]["main_s"]["median"],
                  out[label]["build_parser_s"]["median"], SAMPLES,
                  out[label]["reduce_calls"], out[label]["from_int_calls"]),
              file=sys.stderr)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"))
    ap.add_argument("--base", default=None)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    trees = {"change": str(Path(args.src).resolve())}
    if args.base:
        trees = {"parent": str(Path(args.base).resolve()), **trees}
    run = {"samples": SAMPLES, "workload": "explore", "seed": SEED,
           "machine": {"nproc": len(os.sched_getaffinity(0)),
                       "processor": platform.processor() or platform.machine(),
                       "python": platform.python_version()},
           "trees": bench(trees)}
    text = json.dumps(run, indent=1, sort_keys=True) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
