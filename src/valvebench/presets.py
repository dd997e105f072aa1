"""Shipped valve presets.

Eight bench units, valve0..valve7.  Parameters are drawn around a common
nominal set with roughly +/-20 % unit-to-unit spread from fixed per-unit
seeds, so the table below is reproducible from the generator alone.  valve0
is the calibration unit: about twice the static gain of the rest and a 90 deg
fully-open reading where the others read 80 deg.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .plant import ValveParams

PRESET_SPREAD_SEED = 20260114

PRESET_NAMES = tuple(f"valve{i}" for i in range(8))

# Nominal unit: time constant ~0.26 s, static gain ~-0.95 deg/%,
# hysteresis band (coulomb_open + coulomb_close) / spring_stiffness ~3.5 deg.
_NOMINAL = {
    "spring_stiffness": 1.0,
    "motor_gain": 0.95,
    "time_constant": 0.26,
    "coulomb_open": 1.5,
    "coulomb_close": 2.0,
    "stiction_ratio": 1.3,
}


def make_preset(index: int) -> ValveParams:
    """Deterministically generate the parameter set of one bench unit."""
    if not (0 <= index < len(PRESET_NAMES)):
        raise ValueError(f"preset index must be in 0..{len(PRESET_NAMES) - 1}")
    rng = np.random.default_rng([PRESET_SPREAD_SEED, index])

    def spread(lo: float, hi: float) -> float:
        return float(rng.uniform(lo, hi))

    k = _NOMINAL["spring_stiffness"] * spread(0.85, 1.15)
    tau = _NOMINAL["time_constant"] * spread(0.82, 1.18)
    gain = _NOMINAL["motor_gain"] * spread(0.92, 1.10)
    if index == 0:
        gain *= 2.0
    c_open = _NOMINAL["coulomb_open"] * spread(0.85, 1.15) * k
    c_close = _NOMINAL["coulomb_close"] * spread(0.85, 1.15) * k
    stiction = _NOMINAL["stiction_ratio"] * spread(0.92, 1.12)
    return ValveParams(
        spring_stiffness=round(k, 6),
        spring_rest_angle=90.0 if index == 0 else 80.0,
        motor_gain=round(gain * k, 6),
        viscous_coeff=round(tau * k, 6),
        coulomb_open=round(c_open, 6),
        coulomb_close=round(c_close, 6),
        stiction_ratio=round(stiction, 6),
        angle_min=0.0,
        angle_max=95.0,
        adc_bits=10,
        pwm_levels=256,
        output_noise_std=0.1,
        rng_seed=7000 + index,
    )


PRESETS: dict[str, ValveParams] = {name: make_preset(i) for i, name in enumerate(PRESET_NAMES)}


def get_preset(name: str) -> ValveParams:
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; expected one of {', '.join(PRESET_NAMES)}")
