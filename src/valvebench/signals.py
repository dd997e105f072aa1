"""Excitation signal construction: PRBS and staircase profiles.

The PRBS comes from a Fibonacci LFSR.  Tap sets are taken from the usual
primitive-polynomial tables and re-verified by full period enumeration when a
config is built, so a bad custom tap set fails fast instead of producing a
short cycle.  One walk of the register is memoized per (registers, taps,
seed): its period, which every construction checks, and its output bits,
which :func:`prbs_bits` copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError

# Maximal-length tap sets per register count (feedback = XOR of listed stages).
DEFAULT_TAPS: dict[int, tuple[int, ...]] = {
    2: (2, 1),
    3: (3, 2),
    4: (4, 3),
    5: (5, 3),
    6: (6, 5),
    7: (7, 6),
    8: (8, 6, 5, 4),
    9: (9, 5),
    10: (10, 7),
    11: (11, 9),
    12: (12, 6, 4, 1),
    13: (13, 4, 3, 1),
    14: (14, 5, 3, 1),
    15: (15, 14),
    16: (16, 15, 13, 4),
}

MIN_REGISTERS = 2
MAX_REGISTERS = 16


@lru_cache(maxsize=64)
def _period_of(n_registers: int, taps: tuple[int, ...], seed: int) -> tuple[int, np.ndarray]:
    """Walk the Fibonacci register (feedback = XOR of the tapped stages)
    from `seed` until its state comes back.  Returns the period, or
    2**n_registers + 1 when the state never comes back, and the output bits
    (the oldest stage) of the states walked, one period of the sequence
    when it comes back, as a read-only int8 array."""
    tap_mask = sum(1 << (t - 1) for t in taps)
    reg_mask = (1 << n_registers) - 1
    top = n_registers - 1
    limit = 1 << n_registers
    state = seed
    bits = bytearray()
    period = limit + 1
    for step in range(1, limit + 1):
        bits.append(state >> top)
        state = ((state << 1) & reg_mask) | ((state & tap_mask).bit_count() & 1)
        if state == seed:
            period = step
            break
    return period, np.frombuffer(bytes(bits), dtype=np.int8)


@dataclass(frozen=True)
class PrbsConfig:
    """Pseudo-random binary sequence generator settings.

    Each LFSR bit is held for `divider` samples; a 0/1 bit maps to
    offset -/+ amplitude percent duty cycle.  The sequence period is
    divider * (2**n_registers - 1) samples.
    """

    n_registers: int = 9
    taps: tuple[int, ...] = ()
    divider: int = 2
    seed: int = 0  # 0 selects the all-ones register state
    offset: float = 16.0
    amplitude: float = 12.0

    def __post_init__(self):
        n = self.n_registers
        if not (MIN_REGISTERS <= n <= MAX_REGISTERS):
            raise ConfigError(f"n_registers must be in {MIN_REGISTERS}..{MAX_REGISTERS}")
        taps = tuple(self.taps) if self.taps else DEFAULT_TAPS[n]
        if any(not (1 <= t <= n) for t in taps) or len(set(taps)) != len(taps):
            raise ConfigError(f"taps must be distinct register indices in 1..{n}")
        object.__setattr__(self, "taps", taps)
        seed = self.seed if self.seed else (1 << n) - 1
        if not (1 <= seed < (1 << n)):
            raise ConfigError("seed must be a nonzero register state")
        object.__setattr__(self, "seed", seed)
        if self.divider < 1:
            raise ConfigError("divider must be >= 1")
        if self.amplitude < 0:
            raise ConfigError("amplitude must be >= 0")
        lo, hi = self.offset - self.amplitude, self.offset + self.amplitude
        if not (0.0 <= lo and hi <= 100.0):  # NaN fails too
            raise ConfigError(
                f"excitation range [{lo:g}, {hi:g}] leaves the 0..100 duty-cycle band"
            )
        if _period_of(n, taps, seed)[0] != (1 << n) - 1:
            raise ConfigError(
                f"taps {taps} are not maximal length for {n} registers"
            )

    @property
    def bit_period(self) -> int:
        return (1 << self.n_registers) - 1

    @property
    def period(self) -> int:
        """Sequence period in samples."""
        return self.divider * self.bit_period

    def longest_pulse(self, Ts: float) -> float:
        """Duration of the longest constant run, s (divider * n_registers * Ts)."""
        return self.divider * self.n_registers * Ts


def prbs_bits(config: PrbsConfig) -> np.ndarray:
    """One full period of raw LFSR output bits (before hold and scaling), as
    a new writable array."""
    return _period_of(config.n_registers, config.taps, config.seed)[1].copy()


def prbs_generate(config: PrbsConfig, length: int) -> np.ndarray:
    """Sampled two-level excitation of the requested length in samples."""
    if length < 1:
        raise ValueError("length must be >= 1")
    bits = prbs_bits(config)
    held = np.repeat(bits, config.divider)
    reps = -(-length // len(held))
    seq = np.tile(held, reps)[:length]
    return config.offset + config.amplitude * (2.0 * seq - 1.0)


def prbs_deviation(config: PrbsConfig, length: int) -> np.ndarray:
    """Zero-mean form of the sequence (offset removed, levels +/-amplitude).

    Use this when superposing the excitation on a controller output that
    already sits at its operating level; injecting the offset too would only
    add a transient that integral action cancels.
    """
    return prbs_generate(config, length) - config.offset


def check_prbs_constraint(config: PrbsConfig, Ts: float, rise_time: float) -> bool:
    """True when the longest PRBS pulse outlasts the plant rise time."""
    if Ts <= 0:
        raise ValueError("Ts must be > 0")
    if rise_time < 0:
        raise ValueError("rise_time must be >= 0")
    return config.longest_pulse(Ts) > rise_time


def step_sequence(levels: np.ndarray, hold: float, Ts: float) -> np.ndarray:
    """Piecewise-constant profile holding each level for `hold` seconds."""
    levels = np.asarray(levels, dtype=float)
    if levels.ndim != 1 or len(levels) == 0:
        raise ValueError("levels must be a non-empty 1-D sequence")
    if Ts <= 0 or hold <= 0:
        raise ValueError("hold and Ts must be > 0")
    n = hold / Ts
    if abs(n - round(n)) > 1e-9 * max(1.0, n):
        raise ValueError("hold must be an integer number of samples")
    return np.repeat(levels, int(round(n)))
