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
    each per-sample call of a cl_identify record: one predict, adapt,
    rls_step and advance per sample, and two law steps (the predictor's and
    the loop's).  Every rls_step runs inside an adapt."""
    from valvebench import cloe, control
    from valvebench.adapt import ExcitationSpec, RstDesignSpec
    from valvebench.control import PoleSpec
    from valvebench.ident import initial_adaptation_state
    from valvebench.presets import get_preset

    calls = {}
    active = []

    def counting(name, fn):
        calls[name] = 0

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "rls_step":
                assert active == ["adapt"]
            active.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                active.pop()

        return wrapper

    monkeypatch.setattr(cloe, "rls_step", counting("rls_step", cloe.rls_step))
    for method in ("predict", "adapt"):
        original = cloe.ClosedLoopPredictor.__dict__[method]
        monkeypatch.setattr(cloe.ClosedLoopPredictor, method, counting(method, original))
    step = control.ControllerRuntime.__dict__["step"]
    monkeypatch.setattr(control.ControllerRuntime, "step", counting("step", step))
    advance = plant.ValveSimulator.__dict__["advance"]
    monkeypatch.setattr(plant.ValveSimulator, "advance", counting("advance", advance))

    theta = [-0.9152, -0.0609]
    controller = RstDesignSpec(PoleSpec(5.0, 1.0, 0.05)).design(theta)
    run = cloe.cl_identify(
        plant.ValveSimulator(get_preset("valve0")), controller,
        ExcitationSpec(length=300).sequence(), initial_adaptation_state(2, theta0=theta),
        1, 1, operating_reference=40.0, limits=(0.0, 100.0),
    )
    assert len(run.y) == 300
    assert calls == {
        "rls_step": 300, "predict": 300, "adapt": 300, "step": 600, "advance": 300
    }
