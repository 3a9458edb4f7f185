"""Tests of the benchmark's own arithmetic: self time, the percentile rule and
the computed counters.  Run with ``python3 -m pytest perfbench``."""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import calibration  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from wcelab import measure, operator, oracle  # noqa: E402


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    t = tracing.Tracer(clock=fake_clock([0, 1, 2, 4, 5, 6, 7, 10]))
    a = t.open("A")
    b = t.open("B")
    c = t.open("C")
    t.close(c)
    t.close(b)
    d = t.open("D")
    t.close(d)
    t.close(a)
    assert t.self_times() == [10 - 4 - 1, 4 - 2, 2, 1]
    assert [s[3] for s in t.spans] == [-1, 0, 1, 0]


def test_wrapped_calls_count_self_time_and_errors():
    t = tracing.Tracer(clock=fake_clock([0, 1, 3, 4, 6, 7, 8, 9]))

    def leaf(x):
        if x < 0:
            raise ValueError("negative")
        return x

    leaf_w = t.wrap("operator.apply", leaf)

    def outer(x):
        return leaf_w(x) + leaf_w(x)

    outer_w = t.wrap("operator.classify", outer)
    assert outer_w(1) == 2
    with pytest.raises(ValueError):
        leaf_w(-1)
    totals = t.layer_totals()
    # outer spans 0..7 with children 1..3 and 4..6 -> self 3
    assert totals["operator.classify.calls"] == 1
    assert totals["operator.classify.self_ms"] == pytest.approx(3e3)
    assert totals["operator.apply.calls"] == 3
    assert totals["operator.apply.self_ms"] == pytest.approx((2 + 2 + 1) * 1e3)
    assert totals["operator.apply.errors"] == 1


def test_percentile_ranks_failed_queries_slowest():
    ok = [float(i) for i in range(1, 10)]
    assert stats.percentile(ok, [0.5], 0.5) == 5.0
    assert stats.percentile(ok, [0.5], 0.9) == 9.0
    # two fast failures push p90 past every success: it reads the longest time
    assert stats.percentile(ok[:8], [0.1, 0.2], 0.9) == 8.0
    assert stats.percentile(ok[:8], [0.1, 20.0], 0.9) == 20.0
    assert stats.percentile([], [0.3], 0.5) == 0.3
    assert stats.samples_beyond(102, 0.9) == 10
    assert stats.samples_beyond(120, 0.9) == 12


def test_local_factor_uses_the_kernel_timings_on_both_sides():
    kernel = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]
    # before any timing: the first two; at 3: two before, two after
    assert [calibration.local_factor(p, kernel, 2.0, half=2) for p in (0, 3, 6)] == [2.0, 2.0 / 1.5, 1.0]
    # an item between a slow and a fast phase gets the median of both
    assert calibration.local_factor(3, kernel, 3.0, half=3) == 2.0
    with pytest.raises(ValueError):
        calibration.local_factor(0, [], 1.0)


def test_timeline_scales_each_item_by_its_parts_around_it():
    # each calibration times part a, then part b: (start, end) clock pairs
    durations = [(1.0, 10.0), (1.0, 10.0), (4.0, 10.0), (4.0, 30.0)]
    ticks = iter([t for a, b in durations for t in (0.0, a, 0.0, b)])
    tl = calibration.Timeline(("lapack", "stream"), make=lambda p: (lambda: None), clock=lambda: next(ticks))
    tl.calibrate()
    x = tl.add(0.2, ("lapack",))
    tl.calibrate()
    y = tl.add(0.8, ("lapack", "stream"))
    tl.calibrate()
    tl.calibrate()
    assert tl.kernel_times == {"lapack": [1.0, 1.0, 4.0, 4.0], "stream": [10.0, 10.0, 10.0, 30.0]}
    assert tl.series(("lapack", "stream")) == [11.0, 11.0, 14.0, 34.0]
    scaled = tl.scaled()
    ref = calibration.REFERENCE_PART_S
    # half window 10 covers every timing: medians 2.5 and 12.5
    assert scaled[x] == pytest.approx(0.2 * ref["lapack"] / 2.5)
    assert scaled[y] == pytest.approx(0.8 * (ref["lapack"] + ref["stream"]) / 12.5)
    assert tl.raw == [0.2, 0.8] and tl.positions == [1, 2]


def tiny_operator(u):
    sp = measure.FiniteMeasureSpace(np.array([0.5, 0.25, 0.25]))
    p = measure.Partition(np.array([0, 0, 1]))
    return operator.WeightedCondExpOperator(sp, p, measure.MFunction(np.asarray(u, dtype=complex)))


def test_counters_on_a_tiny_instance():
    t = tracing.Tracer()
    undo = tracing.install(t)
    try:
        T = tiny_operator([1.0, 2.0, 3.0])
        oracle.matrix_of(T)
        oracle.hermitian_eig(np.eye(3))
        # zero-mean on the first atom: E(u) and E(|u|^2) supports differ,
        # so classify falls back on the dense commutator
        operator.classify(tiny_operator([1.0, -2.0, 3.0]), 1e-8)
    finally:
        tracing.uninstall(undo)
    totals = t.layer_totals()
    assert totals["oracle.matrix_of.columns"] == 3 + 3
    assert totals["oracle.hermitian_eig.flops_computed"] == 27
    assert totals["operator.classify.oracle_fallbacks"] == 1
    # construct: 2 averages per operator (2 operators); matrix_of: one
    # apply per column (2 x 3); classify: 2 in is_A_measurable
    calls = totals["condexp.atom_averages.calls"]
    assert calls == 2 * 2 + 2 * 3 + 2
    assert totals["condexp.atom_averages.points"] == 3 * calls
    assert totals["condexp.atom_averages.bytes_computed"] == calls * (3 * 16 * 3 + 16 * 3)
    assert operator.apply.__module__ == "wcelab.operator"
    assert oracle.matrix_of.__name__ == "matrix_of" and not hasattr(oracle.matrix_of, "__wrapped__")


def test_spec_evaluations_are_counted():
    r = 0.5
    spec = measure.CountableSpaceSpec(
        mass_at=lambda i: (1 - r) * r**i,
        tail_bound=lambda n: r**n,
        atom_of=lambda i: i % 2,
        symbol_at=lambda i: 1.0,
    )
    t = tracing.Tracer()
    undo = tracing.install(t)
    try:
        tr = measure.truncate(spec, 0.1)
    finally:
        tracing.uninstall(undo)
    assert tr.size == 4  # 0.5^4 <= 0.1 < 0.5^3
    totals = t.layer_totals()
    # bound at 1..4 plus the final discarded-mass bound, then 3 calls a point
    assert totals["measure.countable.spec_evals"] == 5 + 3 * 4
    assert totals["measure.truncate.points_kept"] == 4
    assert totals["measure.countable.evals_per_point"] == pytest.approx(17 / 4)


def test_benchmark_json_names_what_the_run_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == tracing.per_layer_metrics()
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END)
