"""Closed-loop records against the per-sample loop they replaced.

`ControllerRuntime.track`, `cl_identify` and `adaptive_run` sense a record
through the plant's record-scoped sensor and build their arrays once the
loop ends.  The oracle is the loop as it was: one `measure()` per sample on
a plant seen through measure()/advance() only, and `track` writing its
arrays sample by sample.  Outputs, the plant's final state and its rng state
must agree bit for bit, also for a record that an input ends mid-way.
"""

import dataclasses

import numpy as np
import pytest

from valvebench.adapt import RstDesignSpec, adaptive_run
from valvebench.cloe import cl_identify
from valvebench.control import ControllerRuntime, PoleSpec
from valvebench.ident import initial_adaptation_state
from valvebench.plant import DiscretePlantModel, LinearSimulator, ValveSimulator
from valvebench.presets import make_preset

Ts = 0.05
THETA = (-0.9152, -0.0609)
SPEC = RstDesignSpec(pole=PoleSpec(5.0, 1.0, Ts))


def track_oracle(runtime, plant, reference):
    """ControllerRuntime.track as the per-sample loop: measure, step,
    advance, with the arrays written once per sample."""
    T = len(reference)
    y = np.empty(T)
    u = np.empty(T)
    sat = np.zeros(T, dtype=bool)
    for k in range(T):
        yk = plant.measure()
        uk, s = runtime.step(yk, float(reference[k]))
        plant.advance(uk)
        y[k] = yk
        u[k] = uk
        sat[k] = s
    return y, u, sat


class PerSample:
    """A plant seen through measure() and advance() only: it has no
    record-scoped sensor, so every record falls back to one measure() per
    sample."""

    def __init__(self, plant):
        self.measure, self.advance = plant.measure, plant.advance


def per_sample(monkeypatch, plant) -> PerSample:
    """The oracle's view of `plant`, with `track` the per-sample loop from
    here on."""
    monkeypatch.setattr(ControllerRuntime, "track", track_oracle)
    return PerSample(plant)


def make_plant(kind: str, noise: float, seed: int = 5):
    if kind == "valve":
        params = dataclasses.replace(make_preset(3), output_noise_std=noise, rng_seed=seed)
        return ValveSimulator(params, Ts)
    return LinearSimulator(DiscretePlantModel(THETA[:1], THETA[1:], 0, Ts), noise_std=noise, rng_seed=seed)


def plant_bits(plant) -> tuple:
    if isinstance(plant, ValveSimulator):
        state = (plant._angle.hex(), float(plant._velocity).hex(), plant._moving)
    else:
        state = tuple(v.hex() for v in plant._y + plant._u)
    return state, plant.rng.bit_generator.state


def array_bits(*arrays) -> list[bytes]:
    return [np.asarray(a).tobytes() for a in arrays]


PLANTS = [(kind, noise) for kind in ("valve", "linear") for noise in (0.0, 0.2)]
PLANT_IDS = [f"{kind}-noise{noise}" for kind, noise in PLANTS]


def reference(level: float, n: int = 80) -> np.ndarray:
    return np.concatenate([np.full(n // 2, level), np.full(n - n // 2, level + 5.0)])


@pytest.mark.parametrize("kind, noise", PLANTS, ids=PLANT_IDS)
def test_track_matches_per_sample_loop(kind, noise):
    ctrl = SPEC.design(np.array(THETA))
    level = 40.0 if kind == "valve" else 0.0
    fast, slow = make_plant(kind, noise), make_plant(kind, noise)
    outputs = []
    for plant, track in ((fast, ControllerRuntime.track), (slow, track_oracle)):
        runtime = ControllerRuntime(ctrl, limits=(0.0, 100.0) if kind == "valve" else None)
        runtime.prime(u=20.0, y=level, r=level)
        outputs.append(array_bits(*track(runtime, plant, reference(level))))
    assert outputs[0] == outputs[1]
    assert plant_bits(fast) == plant_bits(slow)


@pytest.mark.parametrize("k", [0, 13, 79])
@pytest.mark.parametrize("noise", [0.0, 0.2])
def test_track_ended_by_an_input_leaves_the_rng_of_the_per_sample_loop(noise, k):
    """A NaN reference at sample k makes a NaN duty cycle, which the valve
    rejects after k + 1 measurements."""
    ctrl = SPEC.design(np.array(THETA))
    ref = reference(40.0)
    ref[k] = np.nan
    fast, slow = make_plant("valve", noise), make_plant("valve", noise)
    for plant, track in ((fast, ControllerRuntime.track), (slow, track_oracle)):
        runtime = ControllerRuntime(ctrl, limits=(0.0, 100.0))
        runtime.prime(u=20.0, y=40.0, r=40.0)
        with pytest.raises(ValueError, match="duty cycle must be finite"):
            track(runtime, plant, ref)
    assert plant_bits(fast) == plant_bits(slow)
    fresh = np.random.default_rng(5)
    for _ in range(k + 1 if noise else 0):
        fresh.standard_normal()
    assert fast.rng.bit_generator.state == fresh.bit_generator.state


def cloe_run(plant, excitation, level):
    init = initial_adaptation_state(2, gain=100.0, theta0=np.array(THETA) * 0.8)
    limits = None if np.isnan(excitation).any() else (0.0, 100.0)
    return cl_identify(
        plant, SPEC.design(np.array(THETA)), excitation, init, 1, 1,
        operating_reference=level, warmup=20, limits=limits,
    )


def cloe_bits(run) -> list:
    arrays = (run.theta, run.y, run.y_hat, run.u, run.u_hat, run.eps_apriori, run.eps_aposteriori, run.saturated)
    return array_bits(*arrays, run.final_state.theta_hat) + [run.u_operating.hex(), run.y_last.hex()]


@pytest.mark.parametrize("kind, noise", PLANTS, ids=PLANT_IDS)
def test_cl_identify_matches_per_sample_loop(kind, noise, monkeypatch):
    level = 40.0 if kind == "valve" else 0.0
    excitation = 2.0 * np.sign(np.sin(0.3 * np.arange(120)))
    fast, slow = make_plant(kind, noise), make_plant(kind, noise)
    got = cloe_bits(cloe_run(fast, excitation, level))
    assert got == cloe_bits(cloe_run(per_sample(monkeypatch, slow), excitation, level))
    assert plant_bits(fast) == plant_bits(slow)


@pytest.mark.parametrize("noise", [0.0, 0.2])
def test_cl_identify_ended_by_an_input_leaves_the_rng_of_the_per_sample_loop(noise, monkeypatch):
    """A NaN in the excitation reaches the unclipped valve at sample 30,
    after 20 warmup measurements and 31 of the record's."""
    excitation = np.full(60, 1.0)
    excitation[30] = np.nan
    fast, slow = make_plant("valve", noise), make_plant("valve", noise)
    with pytest.raises(ValueError, match="duty cycle must be finite"):
        cloe_run(fast, excitation, 40.0)
    with pytest.raises(ValueError, match="duty cycle must be finite"):
        cloe_run(per_sample(monkeypatch, slow), excitation, 40.0)
    assert plant_bits(fast) == plant_bits(slow)
    fresh = np.random.default_rng(5)
    for _ in range(20 + 31 if noise else 0):
        fresh.standard_normal()
    assert fast.rng.bit_generator.state == fresh.bit_generator.state


def adaptive_bits(plant, level):
    ref = reference(level, 60)
    excitation = 0.5 * np.sign(np.sin(0.7 * np.arange(len(ref))))
    run = adaptive_run(
        plant, SPEC.design(np.array([-0.6, -0.2])), SPEC, ref, np.array([-0.6, -0.2]),
        excitation=excitation, settle=1.0, limits=(-100.0, 100.0),
    )
    return array_bits(run.y, run.u, run.reference, run.theta, run.final_state.theta_hat) + [
        run.redesigns, run.rejected, run.final_controller._law,
    ]


@pytest.mark.parametrize("kind, noise", PLANTS, ids=PLANT_IDS)
def test_adaptive_run_matches_per_sample_loop(kind, noise, monkeypatch):
    level = 40.0 if kind == "valve" else 0.0
    fast, slow = make_plant(kind, noise), make_plant(kind, noise)
    got = adaptive_bits(fast, level)
    assert got == adaptive_bits(per_sample(monkeypatch, slow), level)
    assert plant_bits(fast) == plant_bits(slow)
