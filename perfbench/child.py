"""One gvh invocation in a fresh interpreter, started by run.py.

The job arrives as one JSON object on stdin:
``{"argv": [...]}`` runs ``gvh.cli.main(argv)``; ``{"api": name, "args": [...]}``
calls ``gvh.obstruction.<name>(*args)`` and writes its ``records`` as sorted
JSON.  Optional keys: ``"trace": true`` wraps gvh's layers with
:class:`tracer.Tracer`; ``"spans": path`` writes the raw spans there;
``"env": true`` adds the numpy and BLAS versions to the record.

The record, one JSON line on stdout, holds the monotonic time at which numpy
and gvh were imported (``ready``), the wall and CPU time and peak RSS of the
invocation, its exit code and its captured stdout and stderr.

Untraced invocations also carry the speed the machine gave them.  A shared
host can run this process at very different speeds from one minute to the
next (on a 2-vCPU VM a fixed loop took anywhere from 0.32 to 0.63 s), which
would swamp any change in gvh itself.  :class:`Speedometer` therefore times a
fixed piece of pure-Python work (the probe) before the invocation, every
``TICK_S`` seconds during it and after it, and ``ref_s`` is the invocation's
wall time converted to a machine on which the probe takes ``REF_PROBE_S``.
The probe does no gvh work, so a faster gvh still shows in full; only the
machine's own speed is taken out.
"""

import contextlib
import io
import json
import os
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction

import numpy  # noqa: F401  (imported before "ready", as gvh's CLI does)
import gvh.cli
import gvh.obstruction

READY = time.monotonic()

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from tracer import Tracer  # noqa: E402

# Probe size, the probe time that defines the reference speed, and the probe
# interval.  Exact fractions with growing integers, as in gvh's own
# arithmetic: a tight integer loop slowed less than gvh did when the host did.
PROBE_STEPS = 200
REF_PROBE_S = 1.0e-3
TICK_S = 0.05


def probe():
    """Seconds taken by a fixed piece of pure-Python exact arithmetic."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, PROBE_STEPS + 1):
        acc += Fraction(1, k) * Fraction(k + 1, k + 3)
    return time.perf_counter() - t0


class Speedometer:
    """Probes the machine's speed before, during (on a timer) and after a call.

    ``segments`` holds (wall seconds of program work, probe seconds at its
    end); time spent in probes is left out of the program's wall time.
    """

    def __init__(self):
        self.first = None
        self.segments = []
        self._mark = None
        self._busy = False

    def _tick(self, *_):
        if self._busy:  # a tick that fires during a probe is dropped
            return
        self._busy = True
        now = time.perf_counter()
        taken = probe()
        self.segments.append((now - self._mark, taken))
        self._mark = time.perf_counter()
        self._busy = False

    def __enter__(self):
        # The first probe in a fresh interpreter runs cold.
        probe()
        self.first = probe()
        signal.signal(signal.SIGALRM, self._tick)
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()
        return False

    def wall(self):
        return sum(w for w, _ in self.segments)

    def ref_s(self):
        """Program wall time at the reference speed.

        A segment runs at the speed of the lower median of the probes
        around it (up to two on each side), so that one probe slowed by an
        interrupt does not set a segment's speed.  A segment longer than
        two ticks was spent inside one C call (the timer's handler runs only
        between bytecodes), mostly a LAPACK routine whose speed an
        interpreted probe does not measure; it counts at its wall time.
        """
        probes = [self.first] + [p for _, p in self.segments]
        total = 0.0
        for k, (w, _) in enumerate(self.segments):
            if w > 2 * TICK_S:
                total += w
                continue
            around = sorted(probes[max(k - 1, 0):k + 3])
            total += w * REF_PROBE_S / around[(len(around) - 1) // 2]
        return total


def _blas_info():
    cfg = numpy.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    return {"numpy": numpy.__version__,
            "blas": "%s %s" % (blas.get("name", "?"), blas.get("version", "?"))}


def _invoke(job):
    if "argv" in job:
        return gvh.cli.main(job["argv"])
    # Looked up at call time so that a traced run calls the wrapper.
    out = getattr(gvh.obstruction, job["api"])(*job["args"])
    sys.stdout.write(json.dumps(out["records"], sort_keys=True, indent=2) + "\n")
    return 0


def main():
    job = json.loads(sys.stdin.read())
    tracer = Tracer() if job.get("trace") else None
    invoke = _invoke
    if tracer is not None:
        tracer.install()
        invoke = tracer.wrap(_invoke, "invocation", "invocation", True)
    # Traced runs keep their raw times: probes inside spans would count as
    # gvh work.
    meter = Speedometer() if tracer is None else contextlib.nullcontext()
    out, err = io.StringIO(), io.StringIO()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with meter:
            try:
                code = invoke(job)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                traceback.print_exc()
                code = "exception"
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    record = {
        "ready": READY,
        "wall_s": wall,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "maxrss_kib": ru1.ru_maxrss,
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
    }
    if tracer is None:
        # Probe time is not gvh's: it leaves wall and CPU time (the probes
        # run on this thread, so their wall time is their CPU time).
        spent = wall - meter.wall()
        record.update(wall_s=meter.wall(), cpu_s=max(record["cpu_s"] - spent, 0.0),
                      ref_s=meter.ref_s(),
                      probes=len(meter.segments) + 1)
    else:
        tracer.uninstall()
        record["trace"] = tracer.summary()
        if job.get("spans"):
            tracer.dump(job["spans"])
    if job.get("env"):
        record["env"] = _blas_info()
    sys.stdout.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
