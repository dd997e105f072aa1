"""The package namespace: each exported name is looked up in its module."""

import sys

import pytest

import valvebench
from valvebench import plant


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
