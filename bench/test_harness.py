"""Self-tests of the benchmark harness.

    python3 -m pytest bench/test_harness.py -q
"""

import json
import math
import os
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_child_coverage():
    # root [0, 10] with children [1, 3] and [2, 5] (overlapping: union 1..5)
    # and [7, 12] (clipped to 7..10); grandchild [1.5, 2.5] inside [1, 3].
    spans = [
        (0, 0.0, 10.0, -1),
        (1, 1.0, 3.0, 0),
        (1, 2.0, 5.0, 0),
        (1, 7.0, 12.0, 0),
        (2, 1.5, 2.5, 1),
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 4 - 3, 2 - 1, 3, 5, 1])


def test_summary_adds_self_time_per_name():
    tracer = tracing.Tracer()
    tracer.names = ["a", "b"]
    tracer.spans = [(0, 0.0, 4.0, -1, 0, True), (1, 1.0, 2.0, 0, 0, False), (1, 2.0, 3.5, 0, 0, True)]
    summary = tracing.summarize(tracer)
    assert summary["a"] == pytest.approx({"calls": 1, "total_s": 4.0, "self_s": 1.5, "ok": 1})
    assert summary["b"] == pytest.approx({"calls": 2, "total_s": 2.5, "self_s": 2.5, "ok": 1})


def golden_report(name="open_loop_char", key="valve0"):
    return dict(workloads.load_golden()["workloads"][name][key])


def test_output_check_rejects_value_past_tolerance():
    work = workloads.WORKLOADS["open_loop_char"]
    want = golden_report()
    assert workloads.check(work, dict(want), want) == []

    inside = dict(want)
    value = float(want["identify.cost"])
    inside["identify.cost"] = repr(value * (1 + workloads.REL_TOL / 2))
    assert workloads.check(work, inside, want) == []

    outside = dict(want)
    outside["identify.cost"] = repr(value * (1 + 2 * workloads.REL_TOL))
    problems = workloads.check(work, outside, want)
    assert len(problems) == 1 and problems[0].startswith("identify.cost")


def test_output_check_nan_equals_nan_inf_never_matches():
    want = {"final_margin_db": "nan", "theta_1": "-0.8"}
    assert workloads.compare(dict(want), want) == []
    assert workloads.compare({"final_margin_db": "-1.5", "theta_1": "-0.8"}, want) != []
    assert workloads.compare({"final_margin_db": "nan", "theta_1": "nan"}, want) != []
    assert workloads.compare({"theta_1": "-0.8"}, want) != []
    assert workloads.compare({"final_margin_db": "inf", "theta_1": "-0.8"},
                             {"final_margin_db": "inf", "theta_1": "-0.8"}) != []


def test_traced_run_sees_rls_step_called_from_cloe():
    import valvebench as vb
    from valvebench import cloe, ident

    Ts = 0.05
    spec = vb.RstDesignSpec(pole=vb.PoleSpec(5.0, 1.0, Ts))
    controller = spec.design(np.array([-0.6, -0.2]))
    plant = vb.LinearSimulator(vb.DiscretePlantModel((-0.9152,), (-0.0609,), 0, Ts))
    init = vb.initial_adaptation_state(2, theta0=np.array([-0.6, -0.2]))
    excitation = vb.ExcitationSpec(amplitude=2.0, length=50).sequence()

    original = ident.rls_step
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cloe.rls_step is not original and ident.rls_step is not original
        vb.cl_identify(plant, controller, excitation, init, 1, 1, warmup=10)
    finally:
        tracer.uninstall()
    assert cloe.rls_step is original and ident.rls_step is original

    names = [tracer.names[s[0]] for s in tracer.spans]
    rls = [s for s in tracer.spans if tracer.names[s[0]] == "ident.rls_step"]
    assert len(rls) == 50
    assert {names[s[3]] for s in rls} == {"cloe.ClosedLoopPredictor.adapt"}
    assert names.count("plant.advance") == 60
    assert names.count("cloe.cl_identify") == 1


def test_per_layer_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    emitted = {f"{span}.{stat}" for span, stat in run.SPAN_METRICS}
    emitted |= {"plant.valve_step.calls", "plant.latched_share", "fileio.write_csv.rows",
                "adapt.redesign_accept_ratio", "trace.overhead_s"}
    assert declared == emitted


def test_tail_has_ten_ops_beyond_it():
    times = [float(i) for i in range(1, 31)]
    value, pct = run.tail(times)
    assert value == 20.0 and sum(t > value for t in times) == 10
    assert pct == pytest.approx(100 * 20 / 30)
    assert run.tail([3.0, 1.0, 2.0])[0] == 3.0
    assert math.isclose(run.tail([5.0])[1], 100.0)
