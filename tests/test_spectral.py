import numpy as np
import pytest

from valvebench.plant import DiscretePlantModel, linear_run
from valvebench.signals import PrbsConfig, prbs_deviation
from valvebench.spectral import (
    FrequencyResponse,
    corner_from_asymptotes,
    db,
    etfe,
    slope_fit,
    smooth,
)

Ts = 0.05


def test_etfe_exact_on_periodic_linear_data():
    """One whole PRBS period of steady-state data gives a leakage-free ETFE."""
    model = DiscretePlantModel((-0.8,), (0.5,))
    c = PrbsConfig(n_registers=7, divider=1, offset=50.0, amplitude=1.0)
    u = prbs_deviation(c, 2 * c.period)
    y = linear_run(model, u)
    resp = etfe(u[-c.period :], y[-c.period :], Ts)
    expected = model.frequency_response(resp.frequencies)
    np.testing.assert_allclose(resp.values, expected, rtol=0, atol=1e-10)
    assert resp.frequencies[0] > 0.0  # DC bin excluded


def test_etfe_keeps_only_excited_bins():
    n = 256
    t = np.arange(n)
    u = np.sin(2 * np.pi * 10 * t / n)
    resp = etfe(u, 2.0 * u, Ts)
    assert len(resp.frequencies) == 1
    np.testing.assert_allclose(resp.frequencies[0], 2 * np.pi * 10 / (n * Ts), rtol=1e-12)
    np.testing.assert_allclose(resp.values[0], 2.0, rtol=1e-9)


def test_etfe_validation():
    with pytest.raises(ValueError):
        etfe(np.ones(10), np.ones(9), Ts)
    with pytest.raises(ValueError):
        etfe(np.array([1.0, np.nan]), np.ones(2), Ts)
    with pytest.raises(ValueError):
        etfe(np.ones(10), np.ones(10), 0.0)


def test_smooth_identity_cases():
    f = np.linspace(1.0, 50.0, 40)
    resp = FrequencyResponse(f, np.full(40, 2.0 + 1.0j), Ts)
    out = smooth(resp, 9)
    # a constant response survives smoothing, edges included
    np.testing.assert_allclose(out.values, resp.values, rtol=0, atol=1e-12)
    copy = smooth(resp, 1)
    assert copy.values is not resp.values
    with pytest.raises(ValueError):
        smooth(resp, 4)


def test_smooth_takes_a_window_up_to_the_bin_count():
    """np.convolve(mode="same") returns max(window, bins) values, so a
    window wider than the response is refused by name, not left to a
    response of the wrong length."""
    resp = FrequencyResponse(np.linspace(1.0, 50.0, 41), np.full(41, 2.0 + 1.0j), Ts)
    assert len(smooth(resp, 41).values) == 41
    with pytest.raises(ValueError, match="smoothing window of 43 bins is wider than the response's 41 bins"):
        smooth(resp, 43)


def test_smooth_tames_noise():
    rng = np.random.default_rng(3)
    f = np.linspace(1.0, 50.0, 400)
    noisy = 1.0 + 0.2 * (rng.standard_normal(400) + 1j * rng.standard_normal(400))
    resp = FrequencyResponse(f, noisy, Ts)
    out = smooth(resp, 25)
    raw_dev = np.abs(resp.values - 1.0).std()
    smooth_dev = np.abs(out.values - 1.0).std()
    print(f"deviation raw {raw_dev:.4f} smoothed {smooth_dev:.4f}")
    assert smooth_dev < 0.5 * raw_dev


def test_slope_fit_pure_rolloff():
    f = np.geomspace(0.1, 60.0, 300)
    resp = FrequencyResponse(f, 1.0 / (1j * f), Ts)
    assert slope_fit(resp, (0.5, 30.0)) == pytest.approx(-20.0, abs=1e-6)


def test_corner_recovers_first_order_break():
    wc = 3.0
    f = np.geomspace(0.01, 60.0, 500)
    resp = FrequencyResponse(f, 1.0 / (1.0 + 1j * f / wc), Ts)
    corner = corner_from_asymptotes(resp, (0.01, 0.05), (30.0, 60.0))
    assert corner == pytest.approx(wc, rel=0.02)


def test_corner_and_slope_band_validation():
    f = np.geomspace(0.1, 60.0, 50)
    resp = FrequencyResponse(f, np.ones(50, dtype=complex), Ts)
    with pytest.raises(ValueError):
        slope_fit(resp, (100.0, 200.0))  # no bins there
    with pytest.raises(ValueError):
        slope_fit(resp, (5.0, 2.0))
    with pytest.raises(ValueError):
        corner_from_asymptotes(resp, (100.0, 200.0), (0.5, 30.0))
    with pytest.raises(ValueError):
        # flat response has no roll-off line
        corner_from_asymptotes(resp, (0.1, 0.3), (1.0, 50.0))


def test_frequency_response_validation():
    with pytest.raises(ValueError):
        FrequencyResponse(np.array([2.0, 1.0]), np.ones(2, dtype=complex), Ts)
    with pytest.raises(ValueError):
        FrequencyResponse(np.array([0.0, 1.0]), np.ones(2, dtype=complex), Ts)
    with pytest.raises(ValueError):
        FrequencyResponse(np.array([1.0, 200.0]), np.ones(2, dtype=complex), Ts)


def test_db_floor():
    vals = db(np.array([1.0, 0.0]))
    assert vals[0] == 0.0
    assert vals[1] == -400.0
