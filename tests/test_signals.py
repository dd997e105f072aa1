import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valvebench import signals
from valvebench.errors import ConfigError
from valvebench.signals import (
    PrbsConfig,
    check_prbs_constraint,
    prbs_bits,
    prbs_deviation,
    prbs_generate,
    step_sequence,
)


def cfg(**kw):
    base = dict(n_registers=9, divider=2, offset=50.0, amplitude=10.0)
    base.update(kw)
    return PrbsConfig(**base)


def test_period_and_balance():
    for n in range(2, 11):
        bits = prbs_bits(cfg(n_registers=n))
        assert len(bits) == 2**n - 1
        assert int(bits.sum()) == 2 ** (n - 1)  # one more 1 than 0


def test_shift_and_add_property():
    """XOR of an m-sequence with any cyclic shift of itself is another shift."""
    bits = prbs_bits(cfg(n_registers=5, divider=1))
    shifts = {tuple(np.roll(bits, k)) for k in range(len(bits))}
    for d in range(1, len(bits)):
        assert tuple(bits ^ np.roll(bits, d)) in shifts


def test_generate_levels_hold_and_period():
    c = cfg(divider=3, offset=40.0, amplitude=8.0)
    seq = prbs_generate(c, 2 * c.period + 17)
    assert set(np.unique(seq)) == {32.0, 48.0}
    np.testing.assert_array_equal(seq[: c.period], seq[c.period : 2 * c.period])
    # every level change falls on a divider boundary
    changes = np.nonzero(np.diff(seq))[0] + 1
    assert np.all(changes % 3 == 0)
    # longest constant run of an m-sequence is n_registers bits
    runs = np.diff(np.concatenate([[0], changes, [len(seq)]]))
    assert runs.max() == 3 * c.n_registers


def test_deviation_is_generate_minus_offset():
    c = cfg(divider=2, offset=30.0, amplitude=12.0)
    dev = prbs_deviation(c, c.period)
    np.testing.assert_array_equal(dev, prbs_generate(c, c.period) - 30.0)
    assert set(np.unique(dev)) == {-12.0, 12.0}
    # balance: one extra high bit per period
    np.testing.assert_allclose(dev.sum(), c.divider * c.amplitude)


def test_longest_pulse_design_rule():
    assert cfg(divider=2).longest_pulse(0.05) == pytest.approx(0.9)
    assert check_prbs_constraint(cfg(divider=2), 0.05, 0.8)
    assert not check_prbs_constraint(cfg(divider=1), 0.05, 0.8)


def test_duty_band_invariant_rejected():
    with pytest.raises(ConfigError):
        cfg(offset=5.0, amplitude=10.0)
    with pytest.raises(ConfigError):
        cfg(offset=95.0, amplitude=10.0)


@settings(max_examples=60, deadline=None)
@given(offset=st.floats(0.0, 100.0), amplitude=st.floats(0.0, 120.0))
def test_duty_band_invariant(offset, amplitude):
    inside = offset - amplitude >= 0.0 and offset + amplitude <= 100.0
    if not inside:
        with pytest.raises(ConfigError):
            cfg(n_registers=4, offset=offset, amplitude=amplitude)
        return
    seq = prbs_generate(cfg(n_registers=4, offset=offset, amplitude=amplitude), 30)
    assert np.all(seq >= 0.0) and np.all(seq <= 100.0)


def test_bad_taps_rejected():
    with pytest.raises(ConfigError):
        cfg(n_registers=4, taps=(4, 2))  # period 6, not maximal
    with pytest.raises(ConfigError):
        cfg(n_registers=4, taps=(4, 4))
    with pytest.raises(ConfigError):
        cfg(n_registers=1)


def test_period_memo_never_skips_the_tap_check():
    """The memo holds the enumerated period, not a verdict: non-maximal
    taps fail on every construction, and a new seed is enumerated afresh."""
    signals._period_of.cache_clear()
    for hits in (0, 1):
        with pytest.raises(ConfigError, match="not maximal"):
            cfg(n_registers=4, taps=(4, 2), seed=1)
        assert signals._period_of.cache_info().hits == hits
    with pytest.raises(ConfigError, match="not maximal"):
        cfg(n_registers=4, taps=(4, 2), seed=6)
    assert signals._period_of.cache_info().misses == 2


def _register_walk(n, taps, seed, count):
    """The register stepped one bit at a time: emit the oldest stage, then
    shift in the XOR of the tapped stages."""
    state, out = seed, []
    for _ in range(count):
        out.append((state >> (n - 1)) & 1)
        fb = 0
        for t in taps:
            fb ^= (state >> (t - 1)) & 1
        state = ((state << 1) & ((1 << n) - 1)) | fb
    return out


@pytest.mark.parametrize("n", range(2, 13))
def test_prbs_bits_match_a_bitwise_register_walk(n):
    for seed in (0, 1, 3):
        c = cfg(n_registers=n, seed=seed)
        bits = prbs_bits(c)
        assert bits.dtype == np.int8 and len(bits) == c.bit_period
        assert bits.tolist() == _register_walk(n, c.taps, c.seed, c.bit_period)


def test_prbs_bits_come_from_one_walk_as_new_arrays():
    """Construction and every prbs_bits call share one memoized walk, and
    each call returns an array of its own that the caller may write."""
    signals._period_of.cache_clear()
    c = cfg(n_registers=7)
    first, second = prbs_bits(c), prbs_bits(cfg(n_registers=7))
    assert signals._period_of.cache_info().misses == 1
    assert first is not second and first.flags.writeable
    first[:] = 5
    assert set(prbs_bits(c).tolist()) == {0, 1}


def test_zero_seed_becomes_all_ones():
    c = cfg(n_registers=4, seed=0)
    assert c.seed == 0b1111


def test_step_sequence():
    seq = step_sequence(np.array([1.0, 3.0]), 0.2, 0.05)
    np.testing.assert_array_equal(seq, [1, 1, 1, 1, 3, 3, 3, 3])
    with pytest.raises(ValueError):
        step_sequence(np.array([1.0]), 0.13, 0.05)
    with pytest.raises(ValueError):
        step_sequence(np.array([]), 0.2, 0.05)
