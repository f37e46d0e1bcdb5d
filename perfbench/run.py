"""Replay benchmark for gvh.

    python3 perfbench/run.py --workload r2n --seed 0 --seconds 25 --trace 0
    for w in r2n sphere torus explore; do python3 perfbench/run.py --workload $w; done

Run from the root of a checkout.  One driver process replays the workload's
invocation list as a user would: each invocation in a fresh child
interpreter, one at a time (a closed loop with one client).  Replays repeat
for about ``--seconds``: no replay starts that would end more than half a
replay after them.  Every output is checked (see
workloads.check_replay).  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  Times are given at a fixed
reference speed.  A shared host changes the speed it gives a process by up
to about 1.8x for minutes at a time; raw times would follow the host, not
gvh.  Each child times a small exact-arithmetic probe before, every 50 ms
during and after its invocation, and converts the invocation's wall time to
a machine on which the probe takes 1 ms; time spent inside one long C call
(LAPACK) keeps its wall time (child.py).  Set-up times are scaled by the
set-up of a reference interpreter that imports numpy only (ref_setup.py),
spawned before each replay.  Neither reference runs gvh code, so any change
in gvh shows in full.  The raw wall-clock figures are printed beside them
and kept in the details file.
  setup_s        median time from child spawn until numpy and gvh are
                 imported, over a reference set-up of REF_SETUP_S
  replay_s       median time of one replay, summed over its invocations,
                 each timed from main(argv) (or the API call) until the report
                 is written; imports and probes excluded
  replay_tail_s  highest percentile of replay_s with at least ten samples
                 beyond it; with fewer than 11 replays, the maximum
  cpu_s          median child user+sys CPU per replay (BLAS thread included,
                 probes excluded), scaled by each invocation's reference/wall
                 ratio
  peak_rss_mib   median over replays of the largest child ru_maxrss
  fail_frac      failed / attempted invocations (printed; in the JSON it is
                 carried by "failed" and "attempted")

``--trace 1`` alternates untraced and traced replays and reports the
per-layer metrics of the traced ones (tracer.py) plus trace.overhead_frac.
Details (per-invocation samples, span tables, kernel shapes, environment) are
written to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

NPROC = len(os.sched_getaffinity(0))
# One BLAS thread: with two on a 2-vCPU VM the torus SVD shared its cores
# with the driver and the host, and its time spread more (per-invocation
# relative SD 0.11 against 0.08 with one thread).
BLAS_THREADS = 1
HARD_LIMIT_S = 170.0
# Set-up times are given for a machine on which ref_setup.py (a fresh
# interpreter importing numpy) is ready in this many seconds.
REF_SETUP_S = 0.15

END_TO_END = [("setup_s", "s"), ("replay_s", "s"), ("replay_tail_s", "s"),
              ("cpu_s", "s"), ("peak_rss_mib", "MiB")]

# Per-layer metrics derived from call arguments (shapes), not measured.
COMPUTED = ("linalg.rref_cells", "matrices.max_dim",
            "hermite.commutant_stack_mib", "hermite.commutant_gflop")

# tracer group -> (calls metric, self-time metric)
GROUP_METRICS = {
    "scalars.ops": ("scalars.ops", "scalars.self_s"),
    "scalars.gcd": ("scalars.gcd_calls", "scalars.gcd_self_s"),
    "weyl.product": ("weyl.product_calls", "weyl.product_self_s"),
    "diffop.compose": ("diffop.compose_calls", "diffop.compose_self_s"),
    "radicals.ops": ("radicals.ops", "radicals.self_s"),
    "matrices.mul": ("matrices.mul_calls", "matrices.mul_self_s"),
    "linalg.solve": ("linalg.solve_calls", None),
    "linalg.rref": ("linalg.rref_calls", "linalg.rref_self_s"),
    "hermite.matrix": ("hermite.matrix_calls", "hermite.matrix_self_s"),
    "hermite.commutant": (None, "hermite.commutant_self_s"),
    "qmaps.check_q1": ("qmaps.check_q1_calls", "qmaps.check_q1_self_s"),
    "obstruction.solve": ("obstruction.solve_calls", "obstruction.solve_self_s"),
    "obstruction.cert": ("obstruction.cert_calls", "obstruction.cert_self_s"),
    "subspace": ("subspace.calls", "subspace.self_s"),
    "parse": ("parse.calls", "parse.self_s"),
    "report.emit": (None, "report.emit_self_s"),
    "cli": (None, "cli.self_s"),
}


def child_env():
    """Pinned child environment: BLAS threads fixed, GVH_TRUNC cleared."""
    env = {k: v for k, v in os.environ.items() if k != "GVH_TRUNC"}
    threads = str(BLAS_THREADS)
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    return env


def run_child(job, deadline, env):
    """Run one invocation in a fresh interpreter; returns its record."""
    spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=str(ROOT),
                            text=True)
    try:
        out, err = proc.communicate(json.dumps(job),
                                    timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"exit": "timeout", "stdout": "", "stderr": "killed at the deadline",
                "wall_s": 0.0, "ref_s": 0.0, "cpu_s": 0.0, "maxrss_kib": 0}
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"exit": "child exited %s" % proc.returncode, "stdout": "",
                "stderr": err, "wall_s": 0.0, "ref_s": 0.0, "cpu_s": 0.0,
                "maxrss_kib": 0}
    rec = json.loads(lines[-1])
    rec["setup_s"] = rec.pop("ready") - spawn
    return rec


def reference_setup(deadline, env):
    """Spawn-to-ready time of a fresh interpreter that imports numpy only."""
    spawn = time.monotonic()
    done = subprocess.run([sys.executable, str(HERE / "ref_setup.py")],
                          capture_output=True, text=True, env=env, cwd=str(ROOT),
                          timeout=max(1.0, deadline - time.monotonic()), check=True)
    return float(done.stdout.split()[-1]) - spawn


def job(inv):
    """The child's job for one invocation."""
    return {k: inv[k] for k in ("argv", "api", "args") if k in inv}


def replay(invs, spans_dir, deadline, env):
    """Run every invocation once; traced (spans written) when spans_dir."""
    records = []
    for i, inv in enumerate(invs):
        job_ = job(inv)
        if spans_dir is not None:
            job_.update(trace=True, spans=str(spans_dir / ("%02d.npz" % i)))
        records.append(run_child(job_, deadline, env))
    return records


def tail(samples):
    """(value, percentile, n): the highest nearest-rank percentile with at
    least ten samples above it, or the maximum when there are 10 or fewer."""
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, n
    j = n - 11
    return s[j], 100.0 * (j + 1) / n, n


def _wall(replay_):
    return sum(rec["wall_s"] for rec in replay_["records"])


def _ref(replay_):
    return sum(rec["ref_s"] for rec in replay_["records"])


def _cpu_ref(replay_):
    return sum(rec["cpu_s"] * rec["ref_s"] / rec["wall_s"]
               for rec in replay_["records"] if rec["wall_s"] > 0)


def end_to_end(replays):
    """End-to-end metrics at the reference speed, and the raw figures."""
    plain = [r for r in replays if not r["traced"]]
    refs = [_ref(r) for r in plain]
    tail_value, pct, n = tail(refs)
    setups = [(rec["setup_s"], rec["setup_s"] * REF_SETUP_S / r["ref_setup_s"])
              for r in plain for rec in r["records"] if "setup_s" in rec]
    values = {
        "setup_s": statistics.median(ref for _, ref in setups) if setups else 0.0,
        "replay_s": statistics.median(refs),
        "replay_tail_s": tail_value,
        "cpu_s": statistics.median(map(_cpu_ref, plain)),
        "peak_rss_mib": statistics.median(
            max(rec["maxrss_kib"] for rec in r["records"]) / 1024.0 for r in plain),
    }
    raw = {
        "setup_s": statistics.median(wall for wall, _ in setups) if setups else 0.0,
        "replay_s": statistics.median(map(_wall, plain)),
        "replay_tail_s": tail(list(map(_wall, plain)))[0],
        "cpu_s": statistics.median(sum(rec["cpu_s"] for rec in r["records"])
                                   for r in plain),
        "peak_rss_mib": values["peak_rss_mib"],
    }
    notes = {"setup_s": "median of %d child set-ups" % len(setups),
             "replay_s": "median of %d replays" % len(refs),
             "replay_tail_s": "p%.1f of %d replays%s" % (
                 pct, n, " (fewer than 11: maximum)" if n <= 10 else ""),
             "cpu_s": "median of %d replays" % len(refs),
             "peak_rss_mib": "median of per-replay maxima"}
    return values, raw, notes


def _replay_layers(records):
    """Per-group calls and self time, counters and shapes of one replay."""
    calls, selfs, counts, shapes = {}, {}, {}, {}
    for rec in records:
        tr = rec.get("trace")
        if tr is None:
            continue
        for group, v in tr["groups"].items():
            calls[group] = calls.get(group, 0) + v["calls"]
            selfs[group] = selfs.get(group, 0.0) + v["self_s"]
        for k, v in tr["counts"].items():
            counts[k] = counts.get(k, 0) + v
        for g, items in tr["shapes"].items():
            dest = shapes.setdefault(g, {})
            for shape, c in items:
                dest[tuple(shape)] = dest.get(tuple(shape), 0) + c
    return calls, selfs, counts, shapes


def per_layer(replays):
    traced = [r for r in replays if r["traced"]]
    plain = [r for r in replays if not r["traced"]]
    layers = [_replay_layers(r["records"]) for r in traced]
    calls, _, counts, shapes = layers[0]
    values = {}
    for group, (calls_name, self_name) in GROUP_METRICS.items():
        if calls_name:
            values[calls_name] = (calls.get(group, 0), "count")
        if self_name:
            values[self_name] = (statistics.median(
                lay[1].get(group, 0.0) for lay in layers), "s")
    ops = calls.get("scalars.ops", 0)
    gcds = calls.get("scalars.gcd", 0)
    values["scalars.zero_result_frac"] = (
        counts.get("scalars.zero_results", 0) / ops if ops else 0.0, "fraction")
    values["scalars.gcd_trivial_frac"] = (
        counts.get("scalars.gcd_trivial", 0) / gcds if gcds else 0.0, "fraction")
    rref = shapes.get("linalg.rref", {})
    values["linalg.rref_cells"] = (
        sum(rows * cols * c for (rows, cols, _), c in rref.items()), "count")
    values["matrices.max_dim"] = (
        max((d for (d,) in shapes.get("matrices.mul", {})), default=0), "count")
    comm = shapes.get("hermite.commutant", {})
    # Computed from the stack shape (m x n complex128), not measured: a
    # values-only SVD bidiagonalises in about 4mn^2 - 4n^3/3 flops (Golub and
    # Van Loan), times 4 real flops per complex one.
    values["hermite.commutant_stack_mib"] = (
        max((m * n * 16 / 2.0 ** 20 for (m, n) in comm), default=0.0), "MiB")
    values["hermite.commutant_gflop"] = (
        sum(c * 4 * (4 * m * n * n - 4 * n ** 3 / 3) / 1e9
            for (m, n), c in comm.items()), "GFLOP")
    values["trace.overhead_frac"] = (statistics.median(map(_wall, traced)) /
                                     statistics.median(map(_wall, plain)) - 1.0,
                                     "fraction")
    repeat = all(lay[0] == layers[0][0] and lay[2] == layers[0][2] for lay in layers)
    detail = {
        "counts_repeat_across_traced_replays": repeat,
        "spans": [rec.get("trace", {}).get("spans") for rec in traced[0]["records"]],
        "computed_kernel_sizes": {
            "linalg.rref [rows, cols, rank] -> calls":
                sorted([list(k), v] for k, v in rref.items()),
            "matrices.mul [dim] -> calls":
                sorted([list(k), v] for k, v in shapes.get("matrices.mul", {}).items()),
            "hermite.commutant stack [rows, cols] -> calls":
                sorted([list(k), v] for k, v in comm.items()),
        },
    }
    return values, detail


def environment(info):
    return {"nproc": NPROC, "blas_threads": BLAS_THREADS,
            "python": platform.python_version(), "numpy": info.get("numpy"),
            "blas": info.get("blas"), "GVH_TRUNC": "cleared",
            "PYTHONHASHSEED": "0"}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    if not (ROOT / "src" / "gvh" / "__init__.py").is_file():
        print("error: no gvh sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    goldens = json.loads((HERE / "goldens.json").read_text())
    invs = workloads.invocations(args.workload, args.seed)
    env = child_env()
    spans_dir = OUT / "spans" / args.workload
    spans_dir.mkdir(parents=True, exist_ok=True)
    hard_deadline = started + HARD_LIMIT_S

    # Untimed warm-up with the workload's first invocation: compiles
    # bytecode and fills the page cache for the code the replays run.
    warm = run_child(dict(job(invs[0]), env=True), hard_deadline, env)
    if not isinstance(warm["exit"], int):  # the child itself failed
        print("error: warm-up invocation failed: %s" % warm["stderr"][-500:],
              file=sys.stderr)
        return 2

    replays = []
    stop_at = time.monotonic() + args.seconds
    while True:
        traced = bool(args.trace) and len(replays) % 2 == 1
        t0 = time.monotonic()
        ref_setup = None if traced else reference_setup(hard_deadline, env)
        records = replay(invs, spans_dir if traced else None, hard_deadline, env)
        problems = workloads.check_replay(invs, records, goldens)
        replays.append({"traced": traced, "records": records,
                        "problems": problems, "ref_setup_s": ref_setup})
        now = time.monotonic()
        last = now - t0
        kinds = {r["traced"] for r in replays}
        # Stop once another replay would end more than half a replay late.
        if now + 0.5 * last >= stop_at and (not args.trace or len(kinds) == 2):
            break
        if now + 1.5 * last > hard_deadline:
            break

    attempted = sum(len(r["records"]) for r in replays)
    failed = sum(p is not None for r in replays for p in r["problems"])
    correct = not any(p is not None and p[0] == "wrong"
                      for r in replays for p in r["problems"])
    e2e, raw, notes = end_to_end(replays)
    info = environment(warm.get("env", {}))

    print("perfbench workload=%s seed=%d trace=%d replays=%d invocations/replay=%d"
          % (args.workload, args.seed, args.trace, len(replays), len(invs)))
    print("environment: " + ", ".join("%s=%s" % kv for kv in info.items()))
    print("  times at the reference speed (raw wall-clock figures in brackets)")
    for name, unit in END_TO_END:
        print("  %-14s %12.6f %-8s [%10.6f] %s"
              % (name, e2e[name], unit, raw[name], notes[name]))
    print("  %-14s %12.6f %-8s %d failed / %d attempted invocations"
          % ("fail_frac", failed / attempted, "fraction", failed, attempted))
    seen = set()
    for r in replays:
        for inv, p in zip(invs, r["problems"]):
            if p is not None and inv["key"] not in seen:
                seen.add(inv["key"])
                print("  FAILED (%s) %s: %s" % (p[0], inv["key"], p[1]))

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": info,
        "invocations": [inv["key"] for inv in invs],
        "replays": [{"traced": r["traced"], "ref_setup_s": r["ref_setup_s"],
                     "invocations": [{k: rec.get(k) for k in
                                      ("exit", "setup_s",
                                       "wall_s", "ref_s", "cpu_s",
                                       "maxrss_kib", "probes")}
                                     for rec in r["records"]],
                     "problems": r["problems"]} for r in replays],
        "end_to_end": e2e,
        "end_to_end_raw": raw,
        "fail_frac": failed / attempted,
    }
    if args.trace:
        layers, layer_detail = per_layer(replays)
        detail["per_layer"] = {k: v for k, (v, _) in layers.items()}
        detail.update(layer_detail)
        for name, (value, unit) in layers.items():
            print("  %-30s %14.6f %-8s%s" % (name, value, unit,
                                             " (computed)" if name in COMPUTED else ""))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
    report = OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    report.write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    print("details: %s" % report.relative_to(ROOT))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
