"""The package namespace: each exported name is looked up in its module,
and the bindings a tracer wraps are the ones the package calls."""

import importlib.util
import sys
from pathlib import Path

import pytest

import valvebench
from valvebench import plant

ROOT = Path(__file__).resolve().parent.parent


def test_every_export_reads_its_module_and_binds_nothing():
    namespace = {}
    exec("from valvebench import *", namespace)
    for name in valvebench.__all__:
        home = sys.modules[f"valvebench.{valvebench._HOME[name]}"]
        assert getattr(valvebench, name) is getattr(home, name) is namespace[name]
        assert name not in vars(valvebench)
    assert set(valvebench.__all__) <= set(dir(valvebench))
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        valvebench.nope


def test_a_rebound_name_reads_through_and_restores(monkeypatch):
    """A wrapper set on the module binding (as a tracer does) is what the
    package hands out, and undoing it leaves the package on the original."""
    original = plant.static_sweep

    def wrapper(*args, **kwargs):
        return original(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(plant, "static_sweep", wrapper)
        assert valvebench.static_sweep is wrapper
    assert valvebench.static_sweep is original
    assert "static_sweep" not in vars(valvebench)


def test_every_traced_method_is_in_its_class_dict():
    """The bench tracer wraps these methods by their class dict entry."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, cls_name, method, _ in tracing.METHODS:
        cls = getattr(importlib.import_module(f"valvebench.{layer}"), cls_name)
        assert callable(cls.__dict__[method]), f"{cls_name}.{method}"


def test_closed_loop_record_calls_through_every_counted_binding(monkeypatch):
    """Wrappers bound where a tracer binds them, when the record starts, see
    each per-sample call of the closed-loop record: one predict, adapt,
    rls_step and advance per sample, and two law steps (the predictor's and
    the loop's), plus, in an adaptive run, one RstDesignSpec.design and
    bezout_design.  Every rls_step runs inside an adapt, every bezout_design
    inside a design."""
    import numpy as np

    from valvebench import adapt, cloe, control
    from valvebench.adapt import ExcitationSpec, RstDesignSpec, adaptive_run
    from valvebench.control import PoleSpec
    from valvebench.ident import initial_adaptation_state
    from valvebench.presets import get_preset

    calls = {}
    active = []
    inside = {"rls_step": "adapt", "bezout_design": "design"}

    def counting(name, fn):
        calls[name] = 0

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name in inside:
                assert active == [inside[name]]
            active.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                active.pop()

        return wrapper

    monkeypatch.setattr(cloe, "rls_step", counting("rls_step", cloe.rls_step))
    monkeypatch.setattr(adapt, "bezout_design", counting("bezout_design", adapt.bezout_design))
    for cls, method, name in [
        (cloe.ClosedLoopPredictor, "predict", "predict"),
        (cloe.ClosedLoopPredictor, "adapt", "adapt"),
        (control.ControllerRuntime, "step", "step"),
        (plant.ValveSimulator, "advance", "advance"),
        (plant.LinearSimulator, "advance", "advance"),
        (RstDesignSpec, "design", "design"),
    ]:
        monkeypatch.setattr(cls, method, counting(name, cls.__dict__[method]))

    theta = [-0.9152, -0.0609]
    spec = RstDesignSpec(PoleSpec(5.0, 1.0, 0.05))
    controller, initial = spec.design(theta), spec.design([-0.6, -0.2])
    calls.update(dict.fromkeys(calls, 0))
    run = cloe.cl_identify(
        plant.ValveSimulator(get_preset("valve0")), controller,
        ExcitationSpec(length=300).sequence(), initial_adaptation_state(2, theta0=theta),
        1, 1, operating_reference=40.0, limits=(0.0, 100.0),
    )
    assert len(run.y) == 300
    assert calls == {
        "rls_step": 300, "predict": 300, "adapt": 300, "step": 600, "advance": 300,
        "bezout_design": 0, "design": 0,
    }

    calls.update(dict.fromkeys(calls, 0))
    linear = plant.LinearSimulator(plant.DiscretePlantModel(theta[:1], theta[1:], 0, 0.05), noise_std=0.02)
    run = adaptive_run(
        linear, initial, spec, np.zeros(200), [-0.6, -0.2],
        excitation=ExcitationSpec(amplitude=2.0, length=200).sequence(), settle=0.5, limits=None,
    )
    assert len(run.y) == 200 and run.redesigns + run.rejected == 200
    settling = 10  # the law steps and advances of the 0.5 s settle
    assert calls == {
        "rls_step": 200, "predict": 200, "adapt": 200, "step": 400 + settling,
        "advance": 200 + settling, "bezout_design": 200, "design": 200,
    }
