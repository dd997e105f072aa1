import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valvebench.plant import (
    DT_INTERNAL,
    DiscretePlantModel,
    LinearSimulator,
    ValveParams,
    ValveSimulator,
    ValveState,
    linear_run,
    measure_rise_time,
    open_loop,
    rest_state,
    static_sweep,
    valve_run,
    valve_step,
)
from valvebench.presets import (
    PRESET_NAMES,
    PRESETS,
    get_preset,
    make_preset,
)
from valvebench.errors import ConfigError

Ts = 0.05


def clean_params(**overrides):
    """Valve with friction, quantization and noise all switched off."""
    base = dict(
        spring_stiffness=1.0,
        spring_rest_angle=80.0,
        motor_gain=0.95,
        viscous_coeff=0.26,
        coulomb_open=0.0,
        coulomb_close=0.0,
        stiction_ratio=1.0,
        adc_bits=0,
        pwm_levels=0,
        output_noise_std=0.0,
    )
    base.update(overrides)
    return ValveParams(**base)


def zoh_first_order(params: ValveParams, u_sequence: np.ndarray, Ts: float) -> np.ndarray:
    """Zero-order-hold sampled response of the friction-free valve.

    Reference model for the linear-limit check: gain -motor_gain /
    spring_stiffness, time constant viscous_coeff / spring_stiffness.
    """
    tau = params.time_constant
    alpha = math.exp(-Ts / tau)
    gain = params.dc_gain
    y = np.empty(len(u_sequence))
    angle = params.spring_rest_angle
    for k, u in enumerate(np.asarray(u_sequence, dtype=float)):
        y[k] = angle
        target = params.spring_rest_angle + gain * u
        angle = target + (angle - target) * alpha
    return y


def test_linear_limit_matches_zoh():
    """Without friction the sampled valve is exactly the ZOH discretization."""
    params = clean_params()
    rng = np.random.default_rng(11)
    u = np.repeat(rng.uniform(0.0, 40.0, 12), 10)
    y = valve_run(params, u, Ts)
    y_ref = zoh_first_order(params, u, Ts)
    np.testing.assert_allclose(y, y_ref, rtol=0, atol=1e-9)


def test_zoh_step_response_closed_form():
    params = clean_params()
    tau = params.time_constant
    u = np.full(40, 20.0)
    y = zoh_first_order(params, u, Ts)
    k = np.arange(40)
    expected = params.spring_rest_angle + params.dc_gain * 20.0 * (1.0 - np.exp(-k * Ts / tau))
    np.testing.assert_allclose(y, expected, rtol=1e-12, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    stiffness=st.floats(0.5, 2.0),
    gain=st.floats(0.3, 2.0),
    viscous=st.floats(0.1, 0.6),
    c_open=st.floats(0.0, 3.0),
    c_close=st.floats(0.0, 3.0),
    stiction=st.floats(1.0, 2.0),
    u_seq=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=30),
)
def test_angle_never_leaves_stops(stiffness, gain, viscous, c_open, c_close, stiction, u_seq):
    params = ValveParams(
        spring_stiffness=stiffness,
        spring_rest_angle=80.0,
        motor_gain=gain,
        viscous_coeff=viscous,
        coulomb_open=c_open,
        coulomb_close=c_close,
        stiction_ratio=stiction,
        adc_bits=0,
        pwm_levels=0,
        output_noise_std=0.0,
    )
    sim = ValveSimulator(params, Ts)
    for u in u_seq:
        sim.advance(u)
        assert params.angle_min <= sim.state.angle <= params.angle_max
        if not sim.state.moving:
            assert sim.state.velocity == 0.0


def substep_reference(state, params, u, n_sub):
    """The sample advance as n_sub reference sub-steps (u already snapped)."""
    for _ in range(n_sub):
        state = valve_step(state, params, u, DT_INTERNAL)
    return state


@settings(max_examples=80, deadline=None)
@given(
    stiffness=st.floats(0.5, 2.0),
    gain=st.floats(0.3, 2.0),
    viscous=st.floats(0.001, 0.6),
    c_open=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    c_close=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    stiction=st.one_of(st.just(1.0), st.floats(1.0, 2.0)),
    rest=st.one_of(st.sampled_from([0.0, 95.0]), st.floats(0.0, 95.0)),
    start=st.floats(0.0, 95.0),
    Ts_ms=st.sampled_from([1, 20, 50]),
    u_seq=st.lists(
        st.tuples(st.one_of(st.sampled_from([0.0, 100.0]), st.floats(0.0, 100.0)), st.integers(1, 8)),
        min_size=1,
        max_size=12,
    ),
)
def test_advance_matches_substep_oracle(
    stiffness, gain, viscous, c_open, c_close, stiction, rest, start, Ts_ms, u_seq
):
    """Phase-jump advance against the valve_step loop, sample by sample."""
    params = ValveParams(
        spring_stiffness=stiffness,
        spring_rest_angle=rest,
        motor_gain=gain,
        viscous_coeff=viscous,
        coulomb_open=c_open,
        coulomb_close=c_close,
        stiction_ratio=stiction,
        adc_bits=0,
        pwm_levels=0,
        output_noise_std=0.0,
    )
    sim = ValveSimulator(params, Ts_ms * 1e-3, state=ValveState(start))
    for u, hold in u_seq:
        for _ in range(hold):
            want = substep_reference(sim.state, params, u, sim.n_sub)
            sim.advance(u)
            got = sim.state
            assert abs(got.angle - want.angle) <= 1e-10
            assert got.moving == want.moving
            assert params.angle_min <= got.angle <= params.angle_max
            sim.state = want


def test_advance_stops_mid_sample_then_latches():
    """A plate that stops inside a sample stays where the sub-step loop leaves it."""
    params = clean_params(viscous_coeff=0.001, coulomb_open=1.5, coulomb_close=2.0, stiction_ratio=1.3)
    n_sub = int(round(Ts / DT_INTERNAL))
    start = rest_state(params)
    # the reference stops, then latches, before the sample ends
    state, stopped_at = start, None
    for j in range(1, n_sub + 1):
        state = valve_step(state, params, 20.0, DT_INTERNAL)
        if stopped_at is None and j > 1 and not state.moving:
            stopped_at = j
    assert stopped_at is not None and stopped_at < n_sub
    sim = ValveSimulator(params, Ts)
    sim.advance(20.0)
    assert not sim.state.moving
    assert sim.state.angle != start.angle
    assert abs(sim.state.angle - state.angle) <= 1e-10
    # the next sample with the same input leaves the latched plate alone
    latched = sim.state
    sim.advance(20.0)
    assert sim.state is latched


def sample_loop_oracle(sim, u):
    """The open-loop record one sample at a time: measure, then advance."""
    y = np.empty(len(u))
    for k in range(len(u)):
        y[k] = sim.measure()
        sim.advance(u[k])
    return y


def final(sim):
    return (sim.state.angle, sim.state.velocity, sim.state.moving)


duty = st.one_of(st.sampled_from([0.0, -0.0, 100.0]), st.floats(-10.0, 110.0))


@settings(max_examples=60, deadline=None)
@given(
    c_open=st.floats(0.0, 3.0),
    c_close=st.floats(0.0, 3.0),
    stiction=st.floats(1.0, 2.0),
    viscous=st.floats(0.001, 0.6),
    adc_bits=st.sampled_from([0, 10]),
    pwm_levels=st.sampled_from([0, 256]),
    noise=st.sampled_from([0.0, 0.1]),
    seed=st.integers(0, 2**16),
    Ts_ms=st.sampled_from([1, 20, 50]),
    start=st.floats(0.0, 95.0),
    segments=st.lists(
        st.one_of(
            st.tuples(duty, st.integers(1, 30)).map(lambda hold: [hold[0]] * hold[1]),
            st.lists(duty, min_size=1, max_size=10),
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_open_loop_record_matches_sample_loop(
    c_open, c_close, stiction, viscous, adc_bits, pwm_levels, noise, seed, Ts_ms, start, segments
):
    """The valve record (cached law, record-level ADC and noise) against the
    per-sample measure/advance loop: equal bytes, final state and rng state."""
    params = ValveParams(
        spring_stiffness=1.0,
        spring_rest_angle=80.0,
        motor_gain=0.95,
        viscous_coeff=viscous,
        coulomb_open=c_open,
        coulomb_close=c_close,
        stiction_ratio=stiction,
        adc_bits=adc_bits,
        pwm_levels=pwm_levels,
        output_noise_std=noise,
        rng_seed=seed,
    )
    u = np.array([v for segment in segments for v in segment])
    fast = ValveSimulator(params, Ts_ms * 1e-3, state=ValveState(start))
    slow = ValveSimulator(params, Ts_ms * 1e-3, state=ValveState(start))
    y = open_loop(fast, u)
    y_ref = sample_loop_oracle(slow, u)
    assert y.tobytes() == y_ref.tobytes()
    assert final(fast) == final(slow)
    assert fast.rng.bit_generator.state == slow.rng.bit_generator.state


def test_advance_law_cache_edge_cases():
    """A repeated duty cycle reuses its law only where a fresh law is equal."""
    params = clean_params(pwm_levels=256, coulomb_open=0.5, coulomb_close=0.8, stiction_ratio=1.2)
    sim = ValveSimulator(params, Ts)
    sim.advance(30.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="duty cycle must be finite"):
            sim.advance(bad)

    sequences = (
        [30.0, np.float64(30.0), 30, 30.0],
        [0.0, -0.0, 0.0, 100.0, 100],
        [10.0, 60.0] * 4,
        [10.0, 10.1, 10.0, -5.0, 0.0, 120.0, 100.0],
    )
    for seq in sequences:
        sim = ValveSimulator(params, Ts)
        for u in seq:
            # a fresh simulator has no law to reuse
            fresh = ValveSimulator(params, Ts, state=sim.state)
            fresh.advance(u)
            sim.advance(u)
            assert sim.state == fresh.state

    # a non-finite input mid-record raises with the earlier samples sensed
    noisy = clean_params(adc_bits=10, output_noise_std=0.1)
    u = np.array([20.0, 20.0, np.nan, 20.0])
    fast, slow = ValveSimulator(noisy, Ts), ValveSimulator(noisy, Ts)
    with pytest.raises(ValueError, match="duty cycle must be finite"):
        open_loop(fast, u)
    with pytest.raises(ValueError, match="duty cycle must be finite"):
        sample_loop_oracle(slow, u)
    assert final(fast) == final(slow)
    assert fast.rng.bit_generator.state == slow.rng.bit_generator.state


def test_stiction_deadband():
    """Below breakaway the plate does not move at all; above it does.

    At the rest angle the net torque is -motor_gain * u, so breakaway for a
    closing move needs motor_gain * u > stiction_ratio * coulomb_close.
    """
    params = clean_params(motor_gain=1.0, coulomb_open=1.5, coulomb_close=2.0, stiction_ratio=1.5)
    y_hold = valve_run(params, np.full(40, 2.9), Ts)  # 2.9 < 1.5 * 2.0
    assert np.all(y_hold == 80.0)
    # long enough for the exponential approach to finish; the plate then
    # freezes within microdegrees of the kinetic equilibrium rest - (u - coulomb_close) / k
    y_move = valve_run(params, np.full(120, 6.0), Ts)
    np.testing.assert_allclose(y_move[-1], 76.0, atol=1e-6)


def test_asymmetric_hysteresis():
    params = clean_params(coulomb_open=1.5, coulomb_close=2.0, stiction_ratio=1.3)
    levels = np.arange(0.0, 45.0, 5.0)
    hmap = static_sweep(params, levels)
    assert hmap.width > 1.0
    assert np.any(hmap.angle_up != hmap.angle_down)
    # closing the valve as duty cycle rises, on both branches
    assert np.all(np.diff(hmap.angle_up) < 0)
    assert np.all(np.diff(hmap.angle_down) < 0)


def test_static_sweep_rejects_fast_hold():
    with pytest.raises(ValueError):
        static_sweep(clean_params(), np.array([0.0, 10.0]), hold=1.0)


def test_measurement_quantization_grid():
    params = clean_params(adc_bits=10)
    sim = ValveSimulator(params, Ts)
    q = (params.angle_max - params.angle_min) / (2**10 - 1)
    for u in (0.0, 7.0, 13.0, 21.0):
        for _ in range(10):
            sim.advance(u)
        code = (sim.measure() - params.angle_min) / q
        assert abs(code - round(code)) < 1e-9


def test_pwm_quantization_snaps_input():
    params = clean_params(pwm_levels=256)
    a = ValveSimulator(params, Ts)
    b = ValveSimulator(params, Ts)
    snapped = round(10.3 / 100.0 * 255) * 100.0 / 255
    a.advance(10.3)
    b.advance(snapped)
    assert a.state == b.state


def test_valve_run_is_repeatable():
    params = get_preset("valve3")
    u = np.repeat([10.0, 25.0, 5.0], 20)
    y1 = valve_run(params, u, Ts)
    y2 = valve_run(params, u, Ts)
    assert np.array_equal(y1, y2)


def test_valve_step_validation():
    params = clean_params()
    state = rest_state(params)
    with pytest.raises(ValueError):
        valve_step(state, params, 10.0, 0.02)
    with pytest.raises(ValueError):
        valve_step(state, params, -1.0, 1e-3)
    with pytest.raises(ValueError):
        ValveSimulator(params, Ts=0.0333)  # not a multiple of the sub-step


def test_params_validation():
    with pytest.raises(ValueError):
        clean_params(spring_stiffness=0.0)
    with pytest.raises(ValueError):
        clean_params(stiction_ratio=0.5)
    with pytest.raises(ValueError):
        clean_params(spring_rest_angle=200.0)
    with pytest.raises(ValueError):
        clean_params(pwm_levels=1)


def test_rise_time_against_analytic_exponential():
    tau = 0.26
    t = np.arange(0, 3.0, Ts)
    y = 1.0 - np.exp(-t / tau)
    measured = measure_rise_time(y, Ts)
    assert abs(measured - tau * np.log(9.0)) < 5e-3
    # falling transitions work the same way
    measured_fall = measure_rise_time(80.0 - 15.0 * y, Ts)
    assert abs(measured_fall - tau * np.log(9.0)) < 5e-3


def test_rise_time_rejects_flat_response():
    with pytest.raises(ValueError):
        measure_rise_time(np.full(30, 2.0), Ts)


# ---------------------------------------------------------------------------
# discrete linear models


def test_linear_run_matches_hand_recursion():
    model = DiscretePlantModel((-1.2, 0.35), (0.5, 0.2), delay=1)
    rng = np.random.default_rng(5)
    u = rng.uniform(-1, 1, 200)
    y = np.zeros(200)
    for t in range(200):
        acc = 0.0
        for i, a in enumerate(model.a_coeffs, start=1):
            if t - i >= 0:
                acc -= a * y[t - i]
        for j, b in enumerate(model.b_coeffs, start=1):
            k = t - model.delay - j
            if k >= 0:
                acc += b * u[k]
        y[t] = acc
    np.testing.assert_allclose(linear_run(model, u), y, rtol=1e-12, atol=1e-12)


def linear_plant_step(model, y_hist, u_hist):
    """One step of the ARX difference equation on array histories: y_hist[-i]
    is y(t-i), u_hist[-j] is u(t-j), covering na and nb + delay past samples.
    The oracle of LinearSimulator's output."""
    y_hist = np.asarray(y_hist, dtype=float)
    u_hist = np.asarray(u_hist, dtype=float)
    if len(y_hist) < model.na or len(u_hist) < model.nb + model.delay:
        raise ValueError("history too short for model orders")
    y = 0.0
    for i, a in enumerate(model.a_coeffs, start=1):
        y -= a * y_hist[-i]
    for j, b in enumerate(model.b_coeffs, start=1):
        y += b * u_hist[-(model.delay + j)]
    return y


def _linear_run_oracle(model, u, noise_std=0.0, rng_seed=0):
    """linear_run with each output from linear_plant_step on array copies
    of the histories."""
    rng = np.random.default_rng(rng_seed)
    y_hist = [0.0] * max(1, model.na)
    u_hist = [0.0] * (model.nb + model.delay)
    out = np.empty(len(u))
    for k, u_k in enumerate(u):
        y = linear_plant_step(model, np.array(y_hist), np.array(u_hist))
        out[k] = y + noise_std * rng.standard_normal() if noise_std > 0 else y
        y_hist = y_hist[1:] + [y]
        u_hist = u_hist[1:] + [float(u_k)]
    return out


@pytest.mark.parametrize("noise_std", [0.0, 0.2])
@pytest.mark.parametrize(
    "a, b, delay", [((-0.9152,), (-0.0609,), 0), ((-1.2, 0.35), (0.5, 0.2), 1)]
)
def test_linear_run_matches_linear_plant_step(a, b, delay, noise_std):
    """The simulator's list histories give bitwise linear_plant_step's
    outputs on array copies of the histories."""
    model = DiscretePlantModel(a, b, delay=delay)
    u = np.random.default_rng(7).uniform(-1, 1, 300)
    got = linear_run(model, u, noise_std=noise_std, rng_seed=3)
    assert np.array_equal(got, _linear_run_oracle(model, u, noise_std, rng_seed=3))


def test_linear_simulator_noise_is_output_only():
    """Output-error structure: noise never feeds back into the recursion."""
    model = DiscretePlantModel((-0.9,), (0.5,))
    u = np.ones(100)
    clean = linear_run(model, u)
    noisy = linear_run(model, u, noise_std=0.3, rng_seed=4)
    rng = np.random.default_rng(4)
    np.testing.assert_allclose(noisy - clean, 0.3 * rng.standard_normal(100), atol=1e-12)


def test_discrete_model_properties():
    model = DiscretePlantModel((-0.9152,), (-0.0609,))
    assert model.na == 1 and model.nb == 1
    np.testing.assert_allclose(model.theta, [-0.9152, -0.0609])
    np.testing.assert_allclose(model.dc_gain, -0.0609 / (1 - 0.9152), rtol=1e-12)
    low = model.frequency_response(np.array([1e-9]))
    np.testing.assert_allclose(low[0], model.dc_gain, rtol=1e-6)


def test_model_validation():
    with pytest.raises(ValueError):
        DiscretePlantModel((), ())
    with pytest.raises(ValueError):
        DiscretePlantModel((-0.9,), (0.5,), delay=-1)


def test_linear_plant_step_short_history():
    model = DiscretePlantModel((-0.9, 0.1), (0.5,))
    with pytest.raises(ValueError):
        linear_plant_step(model, np.array([1.0]), np.array([1.0]))


# ---------------------------------------------------------------------------
# presets


def test_preset_table():
    assert len(PRESET_NAMES) == 8
    for i, name in enumerate(PRESET_NAMES):
        params = get_preset(name)
        assert params == make_preset(i)
        assert params.spring_rest_angle == (90.0 if i == 0 else 80.0)
    others = [abs(PRESETS[n].dc_gain) for n in PRESET_NAMES[1:]]
    assert abs(PRESETS["valve0"].dc_gain) > 1.5 * max(others)


def test_unknown_preset():
    with pytest.raises(ConfigError):
        get_preset("valve99")
