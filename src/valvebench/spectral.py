"""Nonparametric frequency-response estimation.

The empirical transfer function estimate is the ratio of output to input
DFTs after mean removal.  Smoothing averages neighbouring complex bins under
a normalized Hann window, the standard cure for the estimate's erratic
raw variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fileio import write_csv

_EMPTY_BIN_REL = 1e-12
# Bins a line fit over a band needs.
_MIN_FIT_BINS = 5


@dataclass(frozen=True)
class FrequencyResponse:
    """Complex response samples over ascending frequencies in rad/s."""

    frequencies: np.ndarray
    values: np.ndarray
    Ts: float

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=float)
        v = np.asarray(self.values, dtype=complex)
        if f.shape != v.shape or f.ndim != 1:
            raise ValueError("frequencies and values must be 1-D and congruent")
        if self.Ts <= 0:
            raise ValueError("Ts must be > 0")
        nyquist = math.pi / self.Ts
        if len(f) and (f[0] <= 0 or f[-1] > nyquist * (1 + 1e-12)):
            raise ValueError("frequencies must lie in (0, pi/Ts]")
        if np.any(np.diff(f) <= 0):
            raise ValueError("frequencies must be strictly ascending")
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "values", v)

    @property
    def magnitude_db(self) -> np.ndarray:
        return db(self.values)

    @property
    def phase_deg(self) -> np.ndarray:
        return np.degrees(np.angle(self.values))


def db(values: np.ndarray, floor: float = 1e-20) -> np.ndarray:
    """Magnitude in dB with a -400 dB floor for exact zeros."""
    return 20.0 * np.log10(np.maximum(np.abs(values), floor))


def etfe(u: np.ndarray, y: np.ndarray, Ts: float) -> FrequencyResponse:
    """Empirical transfer function estimate DFT(y)/DFT(u), means removed.

    Bins whose input magnitude is numerically zero are dropped; the DC bin is
    always excluded, the Nyquist bin kept when present and excited.
    """
    u = np.asarray(u, dtype=float)
    y = np.asarray(y, dtype=float)
    if u.shape != y.shape or u.ndim != 1 or len(u) < 2:
        raise ValueError("u and y must be 1-D, equal length >= 2")
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(y))):
        raise ValueError("u and y must be finite")
    if Ts <= 0:
        raise ValueError("Ts must be > 0")
    n = len(u)
    U = np.fft.rfft(u - u.mean())
    Y = np.fft.rfft(y - y.mean())
    k = np.arange(1, len(U))
    keep = np.abs(U[k]) > _EMPTY_BIN_REL * n * max(1.0, float(np.max(np.abs(u))))
    k = k[keep]
    return FrequencyResponse(_bin_frequencies(k, n, Ts), Y[k] / U[k], Ts)


def _bin_frequencies(k: np.ndarray, n: int, Ts: float) -> np.ndarray:
    """rad/s of DFT bins k of an n-sample record."""
    return 2.0 * math.pi * k / (n * Ts)


def _harmonic_bins(period: int, bit_period: int, periods: int, Ts: float) -> np.ndarray:
    """Frequencies, as :func:`etfe` forms them, of the bins that a
    maximum-length PRBS of `bit_period` bits, each held for
    period / bit_period samples, excites in a record of `periods` whole
    periods: the harmonics 2 pi m / (period Ts), m = 1 .. period // 2.  Its
    bit spectrum is flat off DC, and the hold nulls only the multiples of
    bit_period, which are left out."""
    n = periods * period
    m = np.arange(1, period // 2 + 1)
    return _bin_frequencies(periods * m[m % bit_period != 0], n, Ts)


def _in_band(frequencies: np.ndarray, band: tuple[float, float]) -> np.ndarray:
    return (frequencies >= band[0]) & (frequencies <= band[1])


def _check_smooth_size(size: int) -> None:
    """Raise ValueError unless size is a window :func:`smooth` takes."""
    if size < 1 or size % 2 == 0:
        raise ValueError("smoothing size must be odd and >= 1")


def smooth(response: FrequencyResponse, size: int = 25) -> FrequencyResponse:
    """Hann-weighted complex moving average across bins.

    size must be odd (1 returns a copy).  Near the edges the window is
    truncated and its weights renormalized.
    """
    _check_smooth_size(size)
    if size == 1 or len(response.values) == 0:
        return FrequencyResponse(response.frequencies, response.values.copy(), response.Ts)
    w = np.hanning(size)
    w = w / w.sum()
    num = np.convolve(response.values, w, mode="same")
    den = np.convolve(np.ones(len(response.values)), w, mode="same")
    return FrequencyResponse(response.frequencies, num / den, response.Ts)


def _line_fit(response: FrequencyResponse, band: tuple[float, float]):
    """Least-squares line of |G| in dB against log10 frequency over the band
    (rad/s): [slope per decade, intercept]."""
    mask = _in_band(response.frequencies, band)
    if int(mask.sum()) < _MIN_FIT_BINS:
        raise ValueError(f"slope fit needs at least {_MIN_FIT_BINS} bins in the band")
    return np.polyfit(np.log10(response.frequencies[mask]), db(response.values[mask]), 1)


def _check_band(band: tuple[float, float]) -> None:
    """Raise ValueError unless the band is one :func:`slope_fit` takes."""
    lo, hi = band
    if not (0 < lo < hi):
        raise ValueError("band must satisfy 0 < lo < hi")


def slope_fit(response: FrequencyResponse, band: tuple[float, float]) -> float:
    """Least-squares slope of |G| in dB per decade over the band (rad/s)."""
    _check_band(band)
    return float(_line_fit(response, band)[0])


def corner_from_asymptotes(
    response: FrequencyResponse,
    plateau_band: tuple[float, float],
    slope_band: tuple[float, float],
) -> float:
    """First-order corner frequency from the low-frequency plateau and the
    mid-band roll-off line, rad/s."""
    mask = _in_band(response.frequencies, plateau_band)
    if int(mask.sum()) < 1:
        raise ValueError("no bins in plateau band")
    plateau = float(np.mean(db(response.values[mask])))
    slope, intercept = _line_fit(response, slope_band)
    if slope >= 0:
        raise ValueError("mid-band slope is not a roll-off")
    return float(10.0 ** ((plateau - intercept) / slope))


def save_response_csv(path, response: FrequencyResponse) -> None:
    write_csv(
        path,
        ["omega_rad_s", "mag_db", "phase_deg"],
        [response.frequencies, response.magnitude_db, response.phase_deg],
    )
