import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valvebench import plant
from valvebench.plant import (
    DT_INTERNAL,
    V_STOP,
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


def valve_step(state: ValveState, params: ValveParams, u: float, dt: float) -> ValveState:
    """Reference integrator: advance the plate by one sub-step of dt seconds
    under duty cycle u, with the active friction mode frozen.

    Pure function of its inputs; quantization and noise are applied at the
    sampling layer (see :class:`ValveSimulator`), not here.  The simulator's
    phase jumps are checked against a loop of these sub-steps.
    """
    if not (0.0 < dt <= 0.01):
        raise ValueError("dt must be in (0, 0.01] s")
    if not (0.0 <= u <= 100.0):
        raise ValueError("u must be in [0, 100] %")

    k = params.spring_stiffness
    angle = state.angle
    # Net torque toward increasing angle, friction excluded.
    net = params.spring_stiffness * (params.spring_rest_angle - angle) - params.motor_gain * u

    def mode_target(direction: float) -> float:
        c_kin = params.coulomb_open if direction > 0.0 else params.coulomb_close
        # Equilibrium of the active friction mode; motion decays toward it.
        return params.spring_rest_angle - (params.motor_gain * u + direction * c_kin) / k

    direction = 0.0
    if state.moving:
        d = 1.0 if state.velocity > 0.0 else -1.0
        target = mode_target(d)
        if d * (target - angle) > 0.0:
            direction = d
    if direction == 0.0:
        # At rest, or the moving-mode torque reversed: static breakaway test.
        d = 1.0 if net > 0.0 else -1.0
        c_break = params.stiction_ratio * (
            params.coulomb_open if d > 0.0 else params.coulomb_close
        )
        if abs(net) <= c_break:
            return state if not state.moving and state.velocity == 0.0 else ValveState(angle, 0.0, False)
        # Breakaway implies the kinetic mode can sustain motion
        # (stiction_ratio >= 1 makes |net| > coulomb(d)).
        direction = d
        target = mode_target(d)

    tau = params.viscous_coeff / k
    decay = math.exp(-dt / tau)
    new_angle = target + (angle - target) * decay
    velocity = (target - new_angle) / tau

    moving = True
    if abs(velocity) < V_STOP:
        velocity = 0.0
        moving = False
    if new_angle <= params.angle_min:
        new_angle, velocity, moving = params.angle_min, 0.0, False
    elif new_angle >= params.angle_max:
        new_angle, velocity, moving = params.angle_max, 0.0, False
    return ValveState(new_angle, velocity, moving)


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


def law_oracle(params: ValveParams, u_raw) -> tuple[float, float, float]:
    """(drive, target_open, target_close) of duty cycle u_raw, formed afresh."""
    u = float(u_raw)
    if not math.isfinite(u):
        raise ValueError("duty cycle must be finite")
    u = min(100.0, max(0.0, u))
    if params.pwm_levels:
        levels = params.pwm_levels - 1
        u = round(u / 100.0 * levels) * 100.0 / levels
    drive = params.motor_gain * u
    return (
        drive,
        params.spring_rest_angle - (drive + params.coulomb_open) / params.spring_stiffness,
        params.spring_rest_angle - (drive - params.coulomb_close) / params.spring_stiffness,
    )


def jump_oracle(params: ValveParams, n_sub: int, law, state: ValveState) -> ValveState:
    """State after n_sub frozen-mode sub-steps under `law`, by phase jumps on
    ValveState objects: the simulator's advance before its state moved into
    three floats, with the same operations in the same order.  A plate that
    ends where it started, at rest, gets `state` itself back."""
    k, rest, a_min, a_max = (
        params.spring_stiffness, params.spring_rest_angle, params.angle_min, params.angle_max)
    tau = params.viscous_coeff / params.spring_stiffness
    decay = math.exp(-DT_INTERNAL / tau)
    log_decay = math.log(decay) if decay > 0.0 else -math.inf
    stop_reach = V_STOP * tau
    break_open = params.stiction_ratio * params.coulomb_open
    break_close = params.stiction_ratio * params.coulomb_close
    drive, target_open, target_close = law
    angle, velocity, moving = state.angle, state.velocity, state.moving
    same = True  # angle, velocity and moving are still those of `state`
    left = n_sub
    while True:
        kinetic = False
        if moving:
            if velocity > 0.0:
                target = target_open
                kinetic = target > angle
            else:
                target = target_close
                kinetic = target < angle
        if not kinetic:
            net = k * (rest - angle) - drive
            if net > 0.0:
                latched = net <= break_open
                target = target_open
            else:
                latched = -net <= break_close
                target = target_close
            if latched:
                if not moving and velocity == 0.0:
                    return state if same else ValveState(angle, velocity, moving)
                return ValveState(angle, 0.0, False)

        gap = angle - target
        mag = abs(gap)
        first = left + 1
        if stop_reach >= mag:
            first = 1
        elif stop_reach > 0.0 and stop_reach / mag > 0.0 and log_decay < 0.0:
            first = min(first, math.ceil(math.log(stop_reach / mag) / log_decay))
        reach = target - a_max
        if a_min - target > reach:
            reach = a_min - target
        if reach >= mag:
            first = 1
        elif reach > 0.0 and reach / mag > 0.0 and log_decay < 0.0:
            first = min(first, math.ceil(math.log(reach / mag) / log_decay))
        j = first if first > 1 else 1
        while j > 1:
            a = target + gap * decay ** (j - 1)
            if not (abs((target - a) / tau) < V_STOP or a <= a_min or a >= a_max):
                break
            j -= 1
        while j <= left:
            a = target + gap * decay**j
            if abs((target - a) / tau) < V_STOP or a <= a_min or a >= a_max:
                break
            j += 1

        if j > left:
            a = target + gap * decay**left
            return ValveState(a, (target - a) / tau, True)
        a = min(max(target + gap * decay**j, a_min), a_max)
        if a == angle and not moving and velocity == 0.0:
            return state if same else ValveState(angle, velocity, moving)
        angle, velocity, moving, same = a, 0.0, False, False
        left -= j
        if left == 0:
            return ValveState(angle, velocity, moving)


class OracleValve:
    """measure/advance on a ValveState, with every law formed afresh and
    the phase jump of :func:`jump_oracle`."""

    def __init__(self, params: ValveParams, Ts: float, state: ValveState):
        self.params, self.state = params, state
        self.n_sub = int(round(Ts / DT_INTERNAL))
        self.rng = np.random.default_rng(params.rng_seed)

    def measure(self) -> float:
        p, y = self.params, self.state.angle
        if p.adc_bits:
            q_step = (p.angle_max - p.angle_min) / (2**p.adc_bits - 1)
            y = p.angle_min + round((y - p.angle_min) / q_step) * q_step
        if p.output_noise_std > 0:
            y += p.output_noise_std * self.rng.standard_normal()
        return y

    def advance(self, u) -> None:
        self.state = jump_oracle(self.params, self.n_sub, law_oracle(self.params, u), self.state)


def bits(state: ValveState) -> tuple:
    return (state.angle.hex(), float(state.velocity).hex(), state.moving)


def float_bits(sim: ValveSimulator) -> tuple:
    return (sim._angle.hex(), float(sim._velocity).hex(), sim._moving)


levels = st.one_of(st.sampled_from([0.0, -0.0, 100.0]), st.floats(-10.0, 110.0))


@settings(max_examples=80, deadline=None)
@given(
    stops=st.sampled_from([(0.0, 95.0), (5.0, 90.0), (0.0, 60.0)]),
    rest_at=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    viscous=st.one_of(st.just(0.001), st.floats(0.001, 0.6)),
    c_open=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    c_close=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    stiction=st.one_of(st.just(1.0), st.floats(1.0, 2.0)),
    adc_bits=st.sampled_from([0, 10]),
    pwm_levels=st.sampled_from([0, 256]),
    noise=st.sampled_from([0.0, 0.1]),
    seed=st.integers(0, 2**16),
    Ts_ms=st.sampled_from([1, 20, 50]),
    segments=st.lists(
        st.one_of(
            st.tuples(levels, st.integers(1, 20)).map(lambda held: [held[0]] * held[1]),
            st.tuples(levels, levels, st.integers(1, 10)).map(lambda alt: [alt[0], alt[1]] * alt[2]),
            st.tuples(st.lists(levels, min_size=3, max_size=3), st.lists(st.integers(0, 2), max_size=30))
            .map(lambda three: [three[0][i] for i in three[1]]),
        ),
        min_size=1,
        max_size=6,
    ),
    touches=st.dictionaries(
        st.integers(0, 150),
        st.one_of(
            st.just(None),
            st.tuples(st.floats(0.0, 1.0), st.one_of(st.just(0.0), st.floats(-50.0, 50.0))),
        ),
        max_size=6,
    ),
)
def test_advance_matches_jump_oracle_bits(
    stops, rest_at, viscous, c_open, c_close, stiction, adc_bits, pwm_levels, noise, seed,
    Ts_ms, segments, touches,
):
    """The advance on three floats with two law slots against the phase jump
    on ValveState objects with a fresh law per sample: the same bits of
    angle, velocity and moving after every sample, the same measurements and
    the same rng state, also where `state` is read or set mid-record."""
    a_min, a_max = stops
    params = ValveParams(
        spring_stiffness=1.0,
        spring_rest_angle=a_min + rest_at * (a_max - a_min),
        motor_gain=0.95,
        viscous_coeff=viscous,
        coulomb_open=c_open,
        coulomb_close=c_close,
        stiction_ratio=stiction,
        angle_min=a_min,
        angle_max=a_max,
        adc_bits=adc_bits,
        pwm_levels=pwm_levels,
        output_noise_std=noise,
        rng_seed=seed,
    )
    u = [v for segment in segments for v in segment]
    states = {
        i: None if touch is None
        else ValveState(a_min + touch[0] * (a_max - a_min), touch[1], touch[1] != 0.0)
        for i, touch in touches.items()
    }
    _assert_advance_matches_oracle(params, Ts_ms * 1e-3, u, states)


def _assert_advance_matches_oracle(params, Ts_, u, touches):
    """Run u through the simulator and the oracle: the same bits of angle,
    velocity and moving after every sample, the same measurements and the
    same rng state.  touches[i] reads `state` before sample i where it is
    None, and sets both states to it otherwise."""
    sim = ValveSimulator(params, Ts_)
    ref = OracleValve(params, Ts_, rest_state(params))
    for i, u_i in enumerate(u):
        if i in touches:
            if touches[i] is None:  # read
                assert bits(sim.state) == bits(ref.state)
            else:  # set
                sim.state, ref.state = touches[i], touches[i]
        assert float(sim.measure()).hex() == float(ref.measure()).hex()
        sim.advance(u_i)
        ref.advance(u_i)
        assert float_bits(sim) == bits(ref.state)
    assert bits(sim.state) == bits(ref.state)
    assert sim.rng.bit_generator.state == ref.rng.bit_generator.state


# A plate set moving exactly on a kinetic target leaves it to the static
# test, which rounding lets break away toward that same target: a phase of
# gap +0.0 on the target itself, and of gap -0.0 at angle -0.0 on a target of
# +0.0 (spring_rest_angle = (drive +- coulomb) / k).  |gap| and the
# end-of-sample speed are then formed from signed zeros.
ON_TARGET = {
    "gap+0": dict(spring_stiffness=1.13, motor_gain=0.95, coulomb=1.5, u=0.0, rest=80.0),
    "gap-0": dict(spring_stiffness=0.594, motor_gain=0.543, coulomb=1.3, u=50.1, rest=None),
}


@pytest.mark.parametrize("velocity", [1.0e-300, 0.0, -0.0, -1.0e-300])
@pytest.mark.parametrize("direction", ["open", "close"])
@pytest.mark.parametrize("case", list(ON_TARGET))
def test_advance_from_a_kinetic_target_matches_jump_oracle_bits(case, direction, velocity):
    """The simulator set moving on a kinetic target, at each sign of zero
    and tiny speed, gives the oracle's bits, through the breakaway and on."""
    c = ON_TARGET[case]
    k, gain, coulomb, u = c["spring_stiffness"], c["motor_gain"], c["coulomb"], c["u"]
    # The law's expressions: target = rest - (drive +- coulomb) / k.
    drive = gain * u
    signed = drive + coulomb if direction == "open" else drive - coulomb
    if c["rest"] is None:  # a target of +0.0, with the plate at -0.0
        rest, angle = signed / k, -0.0
        assert (rest - signed / k).hex() == "0x0.0p+0"
    else:  # the plate on the target
        rest = c["rest"]
        angle = rest - signed / k
    params = ValveParams(
        spring_stiffness=k,
        spring_rest_angle=rest,
        motor_gain=gain,
        viscous_coeff=0.26,
        coulomb_open=coulomb,
        coulomb_close=coulomb,
        angle_min=-100.0,
        angle_max=95.0,
        adc_bits=0,
        pwm_levels=0,
    )
    touches = {0: ValveState(angle, velocity, True), 3: ValveState(angle, velocity, True)}
    _assert_advance_matches_oracle(params, Ts, [u] * 6 + [u + 10.0] * 3, touches)


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
    for u in (30.0, 60.0, 30.0):  # the third swaps the two slots
        sim.advance(u)
    slots = (sim._u_raw, sim._law, sim._u_prev, sim._law_prev)
    assert slots[0] == 30.0 and slots[2] == 60.0
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="duty cycle must be finite"):
            sim.advance(bad)
        assert (sim._u_raw, sim._law, sim._u_prev, sim._law_prev) == slots

    def never(u):
        raise AssertionError(f"law of {u} formed again")

    # the two slots serve a record alternating between them: no law is
    # formed or looked up by its PWM code
    sim._law_of = never
    sim._pwm_laws = NoLookups(sim._pwm_laws)
    for u in (60.0, 30.0, 60, np.float64(30.0)):
        sim.advance(u)

    sequences = (
        [30.0, np.float64(30.0), 30, 30.0],
        [0.0, -0.0, 0.0, 100.0, 100],
        [10.0, 60.0] * 4,
        [10.0, 10.1, 10.0, -5.0, 0.0, 120.0, 100.0],
        [0.0, 50.0, -0.0, 50.0, 0.0, -0.0],
        [30, 60.0, np.float64(30.0), 60, 30.0],
        [10.3, 70.0, 10.31, 70.0, 10.3, 10.31],  # 10.3 and 10.31 snap to one PWM level
        [10.0, 60.0, 90.0, 10.0, 60.0, 90.0, 60.0],
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


class NoLookups(dict):
    """A table of laws by PWM code that fails every lookup."""

    def get(self, code, default=None):
        raise AssertionError(f"law of PWM code {code} looked up")

    __getitem__ = get


def law_bits(law) -> list[str]:
    return [float(x).hex() for x in law]


def test_law_by_pwm_code_matches_law_oracle():
    """The law of a duty cycle, looked up by its PWM code or formed afresh
    without PWM, against a law formed afresh: the same bits for signed
    zeros, the range ends, inputs beyond them and inputs that share a code.
    A NaN after a slot swap is rejected and leaves the slots and the laws by
    code alone."""
    inputs = [-0.0, 0.0, 100.0, 100, -5.0, -1e308, 120.0, 1e308, 50.0, 10.3, 10.31, 10.3, 0.19, 0.2, 99.9]
    for pwm_levels in (256, 5, 0):
        params = clean_params(pwm_levels=pwm_levels, coulomb_open=0.5, coulomb_close=0.8)
        sim = ValveSimulator(params, Ts)
        for u in inputs:
            sim.advance(u)
            assert law_bits(sim._law) == law_bits(law_oracle(params, u))
        if pwm_levels:
            levels = pwm_levels - 1
            codes = {round(min(100.0, max(0.0, float(u))) / 100.0 * levels) for u in inputs}
            assert sorted(sim._pwm_laws) == sorted(codes)
            assert len(sim._pwm_laws) <= pwm_levels
            for code, law in sim._pwm_laws.items():
                assert law_bits(law) == law_bits(law_oracle(params, code * 100.0 / levels))
        else:
            assert sim._pwm_laws == {}

        for u in (30.0, 60.0, 30.0):  # the third swaps the two slots
            sim.advance(u)
        slots = (sim._u_raw, sim._law, sim._u_prev, sim._law_prev)
        laws = dict(sim._pwm_laws)
        with pytest.raises(ValueError, match="duty cycle must be finite"):
            sim.advance(math.nan)
        assert (sim._u_raw, sim._law, sim._u_prev, sim._law_prev) == slots
        assert sim._pwm_laws == laws


EDGE_INPUTS = [
    0.0, -0.0, 0.0, 100.0, 100.5, 100.0, math.nan, 30.0, math.inf, -math.inf, 100.5, -0.0,
    np.float32(0.1), 0.1, np.float32(0.1), np.float32(math.nan), np.float64(55.5), 55.5,
    np.float32(-math.inf), 30.0, 100.5, 100.5, -0.0, -0.0, math.nan, 0.0,
    12.5, 37.5, 62.5, 87.5, 12.5, 1e-300, 5e-324,  # PWM codes x.5 at 5 levels; tiny duties
    -5.0, -1e-300, -1e308, 1e308, -5.0,
]


@pytest.mark.parametrize("pwm_levels", [256, 5, 0, 2**53 + 1])
def test_advance_on_edge_inputs_matches_oracle_valve(pwm_levels):
    """advance, which checks, clamps and quantizes a new duty cycle itself,
    against the oracle valve that forms every law afresh: NaN and +-inf
    raise the same ValueError and leave the state alone, and the signed
    zeros, the range end, inputs past it, np.float32 and np.float64 values,
    PWM codes halfway between two levels, codes past 2**51 (rounded by
    round()) and repeats give equal state bits, with the rng untouched."""
    params = clean_params(pwm_levels=pwm_levels, coulomb_open=0.5, coulomb_close=0.8,
                          stiction_ratio=1.2, adc_bits=10, output_noise_std=0.1)
    sim, oracle = ValveSimulator(params, Ts), OracleValve(params, Ts, rest_state(params))
    for u in EDGE_INPUTS:
        try:
            oracle.advance(u)
        except ValueError as err:
            with pytest.raises(ValueError, match=f"^{err}$"):
                sim.advance(u)
        else:
            sim.advance(u)
        assert bits(sim.state) == bits(oracle.state)
        assert sim.rng.bit_generator.state == oracle.rng.bit_generator.state


# Angles on an ADC step of exactly 1.0 (0..1023 deg at 10 bits), so each
# angle is the code quotient itself: halves, signed zeros, values beyond the
# stops, either side of the 2**51 bound of the call-free rounding, and the
# values round() rejects.
ADC_ANGLES = [
    0.0, -0.0, 0.5, 1.5, 2.5, -0.5, -1.5, -2.5, 511.5, 512.5, 1022.5, 1023.5, 0.49999999999999994,
    -0.49999999999999994, 7.3, -7.3, 2.0**51 - 0.5, 2.0**51 - 1.5, 2.0**51, 2.0**51 + 1.0, -(2.0**51) + 0.5,
    -(2.0**51), 2.0**60, -(2.0**60), 1e308, math.inf, -math.inf, math.nan,
]


@pytest.mark.parametrize("noise", [0.0, 0.1])
def test_record_sensor_rounds_adc_codes_as_measure_does(noise):
    """The record sensor, which rounds an ADC code with no call below 2**51,
    against measure(), which calls round(): the same bits for every angle,
    and the same error type and message where round() fails, with the noise
    streams in step."""
    params = clean_params(angle_min=0.0, angle_max=1023.0, spring_rest_angle=500.0, adc_bits=10,
                          output_noise_std=noise)
    fast, slow = ValveSimulator(params, Ts), ValveSimulator(params, Ts)
    assert fast._q_step == 1.0

    def outcome(read):
        try:
            return read().hex()
        except (ValueError, OverflowError) as err:
            return type(err), str(err)

    with plant._record_sensor(fast, len(ADC_ANGLES)) as measure:
        for angle in ADC_ANGLES:
            fast._angle = slow._angle = angle
            got, want = outcome(measure), outcome(slow.measure)
            assert got == want, angle
    assert fast.rng.bit_generator.state == slow.rng.bit_generator.state


def sensor_sim(kind: str, adc_bits: int, noise: float, seed: int = 11):
    if kind == "valve":
        params = clean_params(
            adc_bits=adc_bits, output_noise_std=noise, rng_seed=seed, coulomb_open=0.4, coulomb_close=0.6
        )
        return ValveSimulator(params, Ts)
    return LinearSimulator(DiscretePlantModel((-0.9,), (0.1,), 0, Ts), noise_std=noise, rng_seed=seed)


# Both simulators with noise on and off, and the valve's ADC on and off.
SENSORS = [("valve", a, n) for a in (0, 10) for n in (0.0, 0.1)] + [("linear", 0, n) for n in (0.0, 0.1)]
SENSOR_IDS = [f"{kind}-adc{a}-noise{n}" for kind, a, n in SENSORS]


@pytest.mark.parametrize("kind, adc_bits, noise", SENSORS, ids=SENSOR_IDS)
def test_record_sensor_matches_measure_bits(kind, adc_bits, noise):
    """A full record sensed by the record-scoped sensor against one
    measure() per sample: the same bits and the same rng state after it; a
    noise-free plant draws nothing."""
    u = np.random.default_rng(0).uniform(-5.0, 105.0, 60).tolist()
    fast, slow = sensor_sim(kind, adc_bits, noise), sensor_sim(kind, adc_bits, noise)
    entry = fast.rng.bit_generator.state
    got, want = [], []
    with plant._record_sensor(fast, len(u)) as measure:
        for u_k in u:
            got.append(measure())
            fast.advance(u_k)
    for u_k in u:
        want.append(slow.measure())
        slow.advance(u_k)
    assert [y.hex() for y in got] == [float(y).hex() for y in want]
    assert fast.rng.bit_generator.state == slow.rng.bit_generator.state
    if noise == 0.0:
        assert fast.rng.bit_generator.state == entry


@pytest.mark.parametrize("k", [0, 7, 59])
@pytest.mark.parametrize("kind, adc_bits, noise", SENSORS, ids=SENSOR_IDS)
def test_record_sensor_raising_at_sample_k_leaves_k_plus_1_draws(kind, adc_bits, noise, k):
    """A record of 60 samples that raises at sample k, after its measure,
    leaves the rng where k + 1 scalar draws leave it (none without noise),
    and the next measure() continues the stream."""
    sim = sensor_sim(kind, adc_bits, noise)
    with pytest.raises(RuntimeError, match="mid-record"):
        with plant._record_sensor(sim, 60) as measure:
            for i in range(60):
                measure()
                if i == k:
                    raise RuntimeError("mid-record")
                sim.advance(40.0)
    ref = np.random.default_rng(11)
    for _ in range(k + 1 if noise else 0):
        ref.standard_normal()
    assert sim.rng.bit_generator.state == ref.bit_generator.state
    assert sim.rng.standard_normal() == ref.standard_normal()


def test_record_sensor_of_a_plant_without_one():
    """A duck-typed plant without `_sensor` is sensed by its own measure()."""
    class Bare:
        def measure(self):
            return 1.5

    bare = Bare()
    with plant._record_sensor(bare, 3) as measure:
        assert measure == bare.measure and measure() == 1.5


def test_state_view_setter_and_copies():
    """`state` is one object while the plate rests, the setter round-trips,
    and a pickled or deep-copied simulator continues a record as the
    original does."""
    params = get_preset("valve3")
    sim = ValveSimulator(params, Ts)
    rest = sim.state
    sim.advance(0.0)  # at the rest angle with no drive: latched
    assert sim.state is rest
    sim.advance(40.0)
    moved = sim.state
    assert moved.angle != rest.angle and sim.state is moved

    state = ValveState(55.0, -3.0, True)
    sim.state = state
    assert sim.state is state
    fresh = ValveSimulator(params, Ts, state=state)
    sim.advance(20.0)
    fresh.advance(20.0)
    assert bits(sim.state) == bits(fresh.state)

    u = np.tile([12.0, 30.0, 12.0, 12.0, 45.0], 12)
    sim = ValveSimulator(params, Ts)
    first = sample_loop_oracle(sim, u[:31])
    copies = [sim, pickle.loads(pickle.dumps(sim)), copy.deepcopy(sim)]
    records = [np.concatenate([first, sample_loop_oracle(c, u[31:])]) for c in copies]
    whole = ValveSimulator(params, Ts)
    want = sample_loop_oracle(whole, u)
    for c, y in zip(copies, records):
        assert y.tobytes() == want.tobytes()
        assert bits(c.state) == bits(whole.state)
        assert c.rng.bit_generator.state == whole.rng.bit_generator.state


def test_advance_keys_the_law_on_the_float_value():
    """np.float32(0.1) compares equal to 0.1 but applies its own value: a
    record that follows 0.1 with it matches the float-converted record bit
    for bit, and a NaN of any type still reaches the finiteness check."""
    params = clean_params()
    f32 = np.float32(0.1)
    assert f32 == 0.1 and float(f32) != 0.1
    for seq in ([0.1] + [f32] * 19, [0.1, f32] * 10, [f32, 0.1, 30.0, f32, 0.1]):
        sim, want = ValveSimulator(params, Ts), ValveSimulator(params, Ts)
        for u in seq:
            sim.advance(u)
            want.advance(float(u))
            assert float_bits(sim) == float_bits(want)
    sim = ValveSimulator(params, Ts)
    for u in (0.1, f32):  # both slots hold a law
        sim.advance(u)
    slots = (sim._u_raw, sim._law, sim._u_prev, sim._law_prev)
    for bad in (np.float32("nan"), np.float64("nan"), float("nan")):
        with pytest.raises(ValueError, match="duty cycle must be finite"):
            sim.advance(bad)
        assert (sim._u_raw, sim._law, sim._u_prev, sim._law_prev) == slots


class CountingMath:
    """The math module, with its calls of log counted."""

    def __init__(self):
        self.logs = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def log(self, x):
        self.logs += 1
        return math.log(x)


def boundary_params(viscous: float) -> ValveParams:
    """A valve whose opening target at u = 0 is exactly 0.0, so that a plate
    at -mag moving up has |gap| = mag to the last bit, and whose stiction
    latches it where it stops."""
    return ValveParams(
        spring_stiffness=1.0,
        spring_rest_angle=0.5,
        motor_gain=0.95,
        viscous_coeff=viscous,
        coulomb_open=0.5,
        coulomb_close=0.5,
        stiction_ratio=1.2,
        angle_min=-10.0,
        angle_max=95.0,
        adc_bits=0,
        pwm_levels=0,
    )


def advance_against_jump_oracle(params, Ts, mag, monkeypatch) -> int:
    """One sample at u = 0 from a plate at -mag moving up, against
    jump_oracle: asserts equal bits and returns the logs advance took."""
    state = ValveState(-mag, 1.0, True)
    sim = ValveSimulator(params, Ts, state=state)
    counting = CountingMath()
    monkeypatch.setattr(plant, "math", counting)
    sim.advance(0.0)
    monkeypatch.setattr(plant, "math", math)
    assert sim._law[1] == 0.0
    want = jump_oracle(params, sim.n_sub, law_oracle(params, 0.0), state)
    assert float_bits(sim) == bits(want), mag
    return counting.logs


@pytest.mark.parametrize("Ts_ms", [1, 2, 50])
def test_advance_skips_the_stop_log_exactly_past_the_sample(Ts_ms, monkeypatch):
    """Around the bound that skips the V_STOP closed form, and where that
    closed form puts the first event at n_sub - 1, n_sub and n_sub + 1, the
    advance gives jump_oracle's bits, and it takes a log exactly where the
    skip test fails."""
    params, Ts_s = boundary_params(0.26), Ts_ms * 1e-3
    sim = ValveSimulator(params, Ts_s)
    _, _, _, _, _, decay, log_decay, stop_reach, _, _, decay_n, no_stop = sim._consts
    n_sub = sim.n_sub
    assert 0.0 < no_stop < 1.0 and decay_n == decay**n_sub

    # mag at the switch of the skip test and six ulps either side
    mag = stop_reach / no_stop
    while stop_reach < mag * no_stop:
        mag = math.nextafter(mag, 0.0)
    mags = [mag]
    for _ in range(6):
        mags = [math.nextafter(mags[0], 0.0), *mags, math.nextafter(mags[-1], 1.0)]
    skips = [stop_reach < m * no_stop for m in mags]
    assert skips == [False] * 7 + [True] * 6
    for m, skip in zip(mags, skips):
        assert (advance_against_jump_oracle(params, Ts_s, m, monkeypatch) == 0) == skip

    for event in (n_sub - 1, n_sub, n_sub + 1):
        if event < 1:
            continue
        mag = stop_reach / decay ** (event - 0.3)
        assert math.ceil(math.log(stop_reach / mag) / log_decay) == event
        logs = advance_against_jump_oracle(params, Ts_s, mag, monkeypatch)
        assert (logs == 0) == (event > n_sub)


@pytest.mark.parametrize("Ts_ms", [1, 2, 50])
@pytest.mark.parametrize(
    "viscous, skips",
    [(1e14, False), (1e9, False), (1e5, True), (1e-7, False)],
    ids=["decay-rounds-to-1", "log-decay-near-rounding", "slow", "decay-underflows-to-0"],
)
def test_advance_at_decay_extremes_matches_jump_oracle(viscous, skips, Ts_ms, monkeypatch):
    """A decay that rounds to 1, one whose log lies too close to 0 for the
    half-sub-step margin, and one that underflows to 0 never skip the closed
    form; every plate gives jump_oracle's bits."""
    params = boundary_params(viscous)
    sim = ValveSimulator(params, Ts_ms * 1e-3)
    *_, no_stop = sim._consts
    assert (no_stop > 0.0) == skips
    for mag in (1e-20, 1e-12, 1e-6, 0.05, 1.0, 5.0):
        advance_against_jump_oracle(params, Ts_ms * 1e-3, mag, monkeypatch)


def test_event_free_record_takes_no_log(monkeypatch):
    """A held input whose plate moves toward a target inside the stops for
    the whole record takes no logarithm."""
    params = clean_params()
    sim = ValveSimulator(params, Ts)
    counting = CountingMath()
    monkeypatch.setattr(plant, "math", counting)
    y = open_loop(sim, np.full(20, 30.0))
    assert counting.logs == 0
    assert sim.state.moving and params.angle_min < y[-1] < y[0]
    ref = OracleValve(params, Ts, rest_state(params))
    for _ in range(20):
        ref.advance(30.0)
    assert bits(sim.state) == bits(ref.state)


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


@pytest.mark.parametrize(
    "hold, Ts_, message",
    [
        (math.inf, Ts, "hold must be finite"),
        (math.nan, Ts, "hold must be finite"),
        (1e308, Ts, "finite number of samples"),  # hold / Ts overflows
        (2.5, 10.0, "one at least"),  # rounds to 0 samples
        (2.5, 5.0, "one at least"),  # 0.5 samples, which round to 0
    ],
)
def test_static_sweep_rejects_hold_outside_the_samples(hold, Ts_, message):
    """A hold that is not finite, or not a whole sample of Ts, is a
    ValueError before anything is simulated, not a NaN map or an overflow."""
    with pytest.raises(ValueError, match=message):
        static_sweep(clean_params(), np.array([0.0, 10.0]), hold=hold, Ts=Ts_)
    static_sweep(clean_params(), np.array([0.0, 10.0]), hold=2.5, Ts=2.0)  # 1 sample


def _static_sweep_per_level(params, u_levels, hold, Ts_):
    """static_sweep as one open_loop record per level: the map and the
    simulator it ran."""
    sim = ValveSimulator(params, Ts_)
    n_hold, n_avg = round(hold / Ts_), max(1, round(0.5 / Ts_))

    def run_branch(levels):
        return np.array([open_loop(sim, np.full(n_hold, u))[-n_avg:].mean() for u in levels])

    return run_branch(u_levels), run_branch(u_levels[::-1])[::-1], sim


@pytest.mark.parametrize("name", PRESET_NAMES)
@pytest.mark.parametrize("Ts_", [Ts, 2.0], ids=["Ts-0.05", "n_avg-is-n_hold"])
def test_static_sweep_matches_one_record_per_level_bits(monkeypatch, name, Ts_):
    """One record per branch gives the bits of one record per level: each
    level's mean, the plate's end state and the simulator's rng state, with
    noise and ADC on, also where the mean spans the whole hold (Ts = 2 s:
    n_avg = n_hold = 1)."""
    params = get_preset(name)
    assert params.output_noise_std > 0 and params.adc_bits > 0
    levels = np.arange(0.0, 45.0, 5.0)
    up, down, ref = _static_sweep_per_level(params, levels, 2.5, Ts_)
    made = []

    class Recorded(ValveSimulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(plant, "ValveSimulator", Recorded)
    hmap = static_sweep(params, levels, hold=2.5, Ts=Ts_)
    assert [v.hex() for v in hmap.angle_up.tolist()] == [v.hex() for v in up.tolist()]
    assert [v.hex() for v in hmap.angle_down.tolist()] == [v.hex() for v in down.tolist()]
    (sim,) = made
    assert float_bits(sim) == float_bits(ref)
    assert sim.rng.bit_generator.state == ref.rng.bit_generator.state


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


def test_params_bound_the_adc_and_pwm_codes_by_a_double():
    """Past 2**53 a double no longer tells neighbouring codes apart; the
    largest resolutions accepted still build a simulator that measures."""
    with pytest.raises(ValueError, match="adc_bits must be <= 53"):
        clean_params(adc_bits=54)
    with pytest.raises(ValueError, match=r"pwm_levels must be <= 2\*\*53 \+ 1"):
        clean_params(pwm_levels=2**53 + 2)
    sim = ValveSimulator(clean_params(adc_bits=53, pwm_levels=2**53 + 1), Ts)
    sim.advance(10.0)
    assert math.isfinite(sim.measure())


@pytest.mark.parametrize(
    "seconds, message",
    [(1e308, "at most"), (1e20, "at most")],
)
def test_duration_check_rejects_what_no_sample_count_holds(seconds, message):
    """A finite duration >= 0 (its config domain) whose sample count no
    index holds."""
    with pytest.raises(ValueError, match=f"settle must be {message}"):
        plant._check_duration("settle", seconds, Ts)
    plant._check_duration("settle", 0.0, Ts)
    plant._check_duration("settle", 1e9, Ts)


# ValveParams finds its float fields by their annotations, which are strings
# in plant.py; the count below fails if they stop matching.
FLOAT_PARAMS = [f.name for f in dataclasses.fields(ValveParams) if f.type == "float"]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", FLOAT_PARAMS)
def test_params_reject_non_finite_values(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        clean_params(**{name: value})


def test_params_reject_a_negative_seed():
    assert len(FLOAT_PARAMS) == 10
    with pytest.raises(ValueError, match="rng_seed must be >= 0"):
        clean_params(rng_seed=-1)
    assert clean_params(rng_seed=0).rng_seed == 0


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"spring_stiffness": 1e-307}, "kinetic targets at duty cycle 100 must be finite"),
        ({"motor_gain": 1e308}, "kinetic targets at duty cycle 100 must be finite"),
        ({"motor_gain": -1e308}, "kinetic targets at duty cycle 100 must be finite"),
        ({"coulomb_open": 1e300, "spring_stiffness": 1e-10},
         "kinetic targets at duty cycle 0 must be finite"),
        ({"viscous_coeff": 1e308, "spring_stiffness": 1e-10},
         "time constant viscous_coeff / spring_stiffness must be finite"),
    ],
)
def test_params_reject_a_drive_law_that_overflows(changes, message):
    """Parameters whose time constant or kinetic targets overflow are
    rejected; the targets are checked at duty 0 and 100, between which they
    are monotone."""
    with pytest.raises(ValueError, match=message):
        clean_params(**changes)


def test_params_with_a_finite_drive_law_at_both_ends_run_finite():
    """Near the overflow, every duty cycle in [0, 100] gets a finite law."""
    params = clean_params(motor_gain=1e305, spring_stiffness=1.0, viscous_coeff=1e300)
    sim = ValveSimulator(params, Ts)
    for u in (0.0, 37.5, 100.0):
        sim.advance(u)
        assert all(map(math.isfinite, sim._law))
        assert math.isfinite(sim.measure())


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
