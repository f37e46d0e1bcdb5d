"""Tests of the benchmark itself: span arithmetic, tracer wiring, checks.

    python3 -m pytest -q perfbench
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 6]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 6.0]
    assert list(tracer.self_times(parents, starts, ends)) == [6.0, 2.0, 1.0, 1.0]


def test_outermost_only_group_counts_one_call_per_recursion():
    tr = tracer.Tracer()

    def fact(n):
        return 1 if n <= 1 else n * traced(n - 1)

    traced = tr.wrap(fact, "fact", "g", nested=False)
    assert traced(5) == 120
    summary = tr.summary()
    assert summary["groups"]["g"]["calls"] == 1
    assert summary["groups"]["g"]["self_s"] >= 0.0


def test_traced_verify_r2n_wraps_imported_names():
    rec = run.run_child({"argv": ["verify", "r2n"], "trace": True},
                        time.monotonic() + 120, run.child_env())
    assert rec["exit"] == 0
    groups = rec["trace"]["groups"]
    spans = rec["trace"]["spans"]
    # obstruction binds solve_affine and weyl_product with "from ... import"
    assert groups["linalg.solve"]["calls"] > 0
    assert groups["weyl.product"]["calls"] > 0
    assert groups["linalg.rref"]["calls"] >= 2 * groups["linalg.solve"]["calls"]
    assert spans["obstruction.groenewold_certificate"]["calls"] == 2
    goldens = json.loads((run.HERE / "goldens.json").read_text())
    assert rec["stdout"] == goldens["reports"]["gvh verify r2n"]


def test_check_flags_one_altered_byte():
    goldens = json.loads((run.HERE / "goldens.json").read_text())
    inv = workloads.cli("verify", "r2n")
    text = goldens["reports"][inv["key"]]
    good = {"exit": 0, "stdout": text, "stderr": ""}
    assert workloads.check_replay([inv], [good], goldens) == [None]
    i = text.index("inconsistent")
    altered = dict(good, stdout=text[:i] + "I" + text[i + 1:])
    problem = workloads.check_replay([inv], [altered], goldens)[0]
    assert problem is not None and problem[0] == "wrong"


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    value, pct, n = run.tail([float(i) for i in range(1, 41)])
    assert (value, n) == (30.0, 40) and pct == 75.0


def test_speedometer_converts_wall_time_to_reference_speed():
    import child
    ref, slow, tick = child.REF_PROBE_S, 2 * child.REF_PROBE_S, child.TICK_S
    meter = child.Speedometer()
    # probes at the reference time: wall time unchanged
    meter.first = ref
    meter.segments = [(tick, ref), (tick / 2, ref)]
    assert abs(meter.ref_s() - 1.5 * tick) < 1e-12
    # a machine at half speed: probes take twice as long, time halves
    meter.first = slow
    meter.segments = [(tick, slow)] * 3
    assert abs(meter.ref_s() - 1.5 * tick) < 1e-12
    # one probe slowed by an interrupt does not set its segment's speed
    meter.segments = [(tick, slow), (tick, 50 * slow), (tick, slow)]
    assert abs(meter.ref_s() - 1.5 * tick) < 1e-12
    # a segment spent inside one long C call keeps its wall time
    meter.segments = [(tick, slow), (10 * tick, slow), (tick, slow)]
    assert abs(meter.ref_s() - 11 * tick) < 1e-12
