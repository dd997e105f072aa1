"""Throttle-valve simulator and discrete linear plant models.

The valve is modelled as a return-spring-loaded plate driven by a PWM motor
stage.  Inertia is negligible against viscous drag, so the plate obeys a
first-order torque balance with Coulomb friction and stiction:

    viscous * d(angle)/dt = motor + spring - coulomb(direction) * sign(velocity)

with motor = -motor_gain * u (larger duty cycle closes the valve, so the DC
gain from duty cycle to angle is negative) and spring = spring_stiffness *
(spring_rest_angle - angle).  At rest the plate stays put until the net torque
exceeds stiction_ratio times the direction's Coulomb level.  Asymmetric
coulomb_open / coulomb_close levels give the asymmetric hysteresis seen on
real hardware.

Friction events (breakaway, latching, hitting a stop) are resolved on an
internal 1 ms sub-step grid.  One sub-step with the active friction mode
frozen makes the dynamics linear and allows an exact exponential update; the
tests keep that sub-step loop as the reference integrator.
:class:`ValveSimulator` reaches the same grid by phase jumps: the duty cycle is
constant within a sample, so it jumps a whole friction phase in closed form to
its first event sub-step instead of stepping through it.  With friction,
quantization and noise disabled the sampled response therefore matches the
zero-order-hold discretization of the continuous model to floating-point
accuracy.

A simulator holds the plate's state as three floats (angle, velocity and the
moving flag), and :meth:`ValveSimulator.advance` jumps them on locals, with
no object built per sample; the :attr:`ValveSimulator.state` view is a
:class:`ValveState` built at its first read after a change.  A sample in
which the plate keeps moving toward a target inside the stops takes no
logarithm, power or builtin function call: the closed form of its stop-speed
event is skipped where a bound, set once per simulator, proves that it would
leave the first event past the sample, decay**n_sub is computed once by the
same expression, and magnitudes are formed by a comparison, so the bits are
those of the closed form.  A duty cycle, converted to a float, is checked,
clamped and PWM-quantized only when it is neither of the last two distinct
values applied: the resulting laws (motor torque and both kinetic targets)
are kept in two slots, so a held input and a PRBS toggling between two
levels reuse theirs, and a PWM valve forms the law of each PWM code once.
:func:`open_loop` records the true angles of a valve and applies ADC
quantization and measurement noise to the whole record at once; a closed
loop senses its record through the simulator's record-scoped sensor, which
draws the record's noise as one block.  Either way the values and the noise
stream are those of one :meth:`ValveSimulator.measure` per sample.
:func:`static_sweep` runs one :func:`open_loop` record per branch of its
staircase.
"""

from __future__ import annotations

import contextlib
import math
import operator
import sys
from dataclasses import dataclass, fields

import numpy as np

# Internal integration sub-step, s.
DT_INTERNAL = 1e-3
# Below this speed (deg/s) a moving plate is considered latched again.
V_STOP = 1e-7
# For |x| < _RNE_MAX, x + _RNE - _RNE is round(x) as a float, with no call:
# the sum lies where doubles are 1 apart, so it rounds x half to even as
# round() does, and the subtraction is exact.  A code of that size is a
# whole number below 2**53, so code * step is the product of round(x).
# Past the bound, and for NaN and +-inf, round() itself runs.
_RNE = 6755399441055744.0  # 1.5 * 2**52
_RNE_MAX = 2251799813685248.0  # 2**51


@dataclass(frozen=True)
class ValveParams:
    """Physical and measurement parameters of one simulated valve.

    Parameters
    ----------
    spring_stiffness:
        Return-spring rate, torque units per degree.  Must be > 0.
    spring_rest_angle:
        Angle the spring relaxes to with the motor off, deg.
    motor_gain:
        Torque per percent duty cycle.  Acts to close the valve.
    viscous_coeff:
        Viscous drag, torque per (deg/s).  Must be > 0.
    coulomb_open, coulomb_close:
        Kinetic Coulomb friction torque for opening / closing motion (>= 0).
    stiction_ratio:
        Breakaway torque as a multiple of the kinetic level (>= 1).
    angle_min, angle_max:
        Hard stops, deg.
    adc_bits:
        Angle sensor resolution over [angle_min, angle_max]; 0 disables
        quantization.  At most 53.
    pwm_levels:
        Number of distinct duty-cycle levels over [0, 100]; 0 disables input
        quantization.  At most 2**53 + 1.
    output_noise_std:
        Std-dev of Gaussian measurement noise, deg.
    rng_seed:
        Seed for the measurement-noise stream (>= 0).

    Every float parameter must be finite.
    """

    spring_stiffness: float
    spring_rest_angle: float
    motor_gain: float
    viscous_coeff: float
    coulomb_open: float = 0.0
    coulomb_close: float = 0.0
    stiction_ratio: float = 1.0
    angle_min: float = 0.0
    angle_max: float = 95.0
    adc_bits: int = 10
    pwm_levels: int = 256
    output_noise_std: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")
        if not (self.spring_stiffness > 0):
            raise ValueError("spring_stiffness must be > 0")
        if not (self.viscous_coeff > 0):
            raise ValueError("viscous_coeff must be > 0")
        if self.coulomb_open < 0 or self.coulomb_close < 0:
            raise ValueError("coulomb levels must be >= 0")
        if self.stiction_ratio < 1.0:
            raise ValueError("stiction_ratio must be >= 1")
        if not (self.angle_min < self.angle_max):
            raise ValueError("angle_min must be < angle_max")
        if not (self.angle_min <= self.spring_rest_angle <= self.angle_max):
            raise ValueError("spring_rest_angle must lie within the stops")
        if self.adc_bits < 0 or self.pwm_levels < 0:
            raise ValueError("adc_bits and pwm_levels must be >= 0")
        if self.pwm_levels == 1:
            raise ValueError("pwm_levels must be 0 (off) or >= 2")
        # A double holds every whole number up to 2**53 exactly, and so every
        # ADC and PWM code up to there; past it the codes collide.
        if self.adc_bits > 53:
            raise ValueError("adc_bits must be <= 53: a double holds no finer ADC code")
        if self.pwm_levels > 2**53 + 1:
            raise ValueError("pwm_levels must be <= 2**53 + 1: a double holds no finer PWM code")
        if self.output_noise_std < 0:
            raise ValueError("output_noise_std must be >= 0")
        if not math.isfinite(self.time_constant):
            raise ValueError("time constant viscous_coeff / spring_stiffness must be finite")
        # The kinetic targets of the drive law (ValveSimulator._law_of) are
        # monotone in the duty cycle, clamped to [0, 100], so they are finite
        # for every input where they are at both ends.
        k, rest = self.spring_stiffness, self.spring_rest_angle
        for u in (0.0, 100.0):
            drive = self.motor_gain * u
            targets = rest - (drive + self.coulomb_open) / k, rest - (drive - self.coulomb_close) / k
            if not all(map(math.isfinite, targets)):
                raise ValueError(
                    f"kinetic targets at duty cycle {u:g} must be finite: motor_gain, the "
                    "coulomb levels and spring_stiffness overflow the drive law"
                )

    @property
    def time_constant(self) -> float:
        """viscous_coeff / spring_stiffness, s."""
        return self.viscous_coeff / self.spring_stiffness

    @property
    def dc_gain(self) -> float:
        """Static angle change per percent duty cycle (negative)."""
        return -self.motor_gain / self.spring_stiffness


@dataclass(frozen=True)
class ValveState:
    angle: float
    velocity: float = 0.0
    moving: bool = False


def rest_state(params: ValveParams) -> ValveState:
    return ValveState(angle=params.spring_rest_angle, velocity=0.0, moving=False)


def _substeps(Ts: float) -> int:
    """The 1 ms sub-steps in one sample; raises ValueError unless Ts is a
    finite whole number of them, one at least."""
    if Ts <= 0:
        raise ValueError("Ts must be > 0")
    n_sub = Ts / DT_INTERNAL
    if not math.isfinite(n_sub):
        raise ValueError("Ts must be a finite number of 1 ms sub-steps")
    n = round(n_sub)
    if abs(n_sub - n) > 1e-9:
        raise ValueError("Ts must be an integer multiple of the 1 ms sub-step")
    if n < 1:
        raise ValueError("Ts must be at least the 1 ms sub-step")
    return n


class ValveSimulator:
    """Sampled valve: the 1 ms sub-step integrator advanced by phase jumps.

    The convention is measure-then-apply: :meth:`measure` senses the current
    angle (quantization plus noise), then :meth:`advance` applies a duty cycle
    for one sampling period.  Output sample k therefore depends on inputs up
    to k - 1, matching the one-step-delayed discrete models used elsewhere.

    :meth:`advance` gives the same states as n_sub frozen-mode sub-steps (to
    rounding) without making them.  The duty cycle is constant within a
    sample, so each friction mode is an exact exponential toward its kinetic
    target.  A plate that fails the breakaway test stays latched for the rest
    of the sample.  A moving plate jumps straight to the earliest of: the end
    of the sample, the first sub-step with |v| < V_STOP, or the first sub-step
    at a hard stop.  Every event therefore stays on the 1 ms grid, and the
    friction mode is decided afresh after each one.

    The state lives in three floats, `_angle`, `_velocity` and `_moving`,
    which :meth:`advance` reads into locals and writes back only when the
    plate changed.  :attr:`state` builds a :class:`ValveState` from them at
    its first read after a change and returns that object until the next
    one, so a plate that stays latched keeps its state object; setting
    `state` unpacks a :class:`ValveState`.

    The drive law of a duty cycle (finiteness check, clamp to [0, 100], PWM
    quantization, motor torque and the two kinetic targets) is kept in two
    slots, for the last two distinct values applied, keyed on the input
    converted to a float (so an ``np.float32(0.1)``, equal to 0.1 under
    numpy's promotion, gets the law of its own value).  An input equal to the
    current value reuses its law; one equal to the previous value swaps the
    slots; :meth:`advance` checks any other itself before it shifts the
    current law into the second slot, so a rejected input leaves both slots
    as they were (a NaN equals no slot and always reaches the check).  On a
    PWM valve it looks the law up by the integer PWM code of the clamped
    input, in `_pwm_laws`, and forms it (:meth:`_law_of`) only at the code's
    first use, so a closed loop, whose input changes every sample, forms at
    most `pwm_levels` laws.

    :func:`open_loop` senses a whole record at once, with the same ADC
    rounding and noise stream as :meth:`measure` called once per sample.  A
    closed-loop record opens :meth:`_sensor` once: a zero-argument measure()
    with the ADC expression of :meth:`measure` and the record's normals drawn
    as one block (:func:`_normals`), which leaves `rng` where one
    :meth:`measure` per sample would, also when the record ends early.
    """

    def __init__(self, params: ValveParams, Ts: float = 0.05, state: ValveState | None = None):
        self.n_sub = _substeps(Ts)
        self.params = params
        self.Ts = Ts
        self.state = state if state is not None else rest_state(params)
        self.rng = np.random.default_rng(params.rng_seed)
        if params.adc_bits:
            self._q_step = (params.angle_max - params.angle_min) / (2**params.adc_bits - 1)
        else:
            self._q_step = 0.0
        # Same expressions as the sub-step reference, so the per-mode
        # exponentials agree.
        tau = params.viscous_coeff / params.spring_stiffness
        decay = math.exp(-DT_INTERNAL / tau)
        log_decay = math.log(decay) if decay > 0.0 else -math.inf
        n_sub = self.n_sub
        # The V_STOP closed form in advance is ceil(log(ratio) / log_decay),
        # ratio = V_STOP * tau / |gap|.  A ratio below no_stop =
        # decay**(n_sub + 1/2) makes the quotient exceed n_sub + 1/2, which
        # puts the event past the sample in any phase, so advance takes no
        # log for it.  In the log domain that margin is |log_decay| / 2;
        # the skip test, the bound, the log and the quotient together err
        # by a few ulps of 1 + |log(no_stop)|, and the guard keeps the
        # margin above 1e-9 times that, some 1e6 times the rounding.
        # no_stop = 0.0 never skips: for a decay of 0 or 1, or a log_decay
        # too close to 0 for the margin.
        no_stop = 0.0
        if 0.0 < decay < 1.0 and -0.5 * log_decay > 1e-9 * (1.0 - (n_sub + 0.5) * log_decay):
            no_stop = math.exp((n_sub + 0.5) * log_decay)
        # Per-simulator constants of the phase jump, unpacked once per sample.
        self._consts = (
            params.spring_stiffness,
            params.spring_rest_angle,
            params.angle_min,
            params.angle_max,
            tau,
            decay,
            log_decay,
            V_STOP * tau,
            params.stiction_ratio * params.coulomb_open,
            params.stiction_ratio * params.coulomb_close,
            decay**n_sub,
            no_stop,
        )
        # Per-simulator constants of the duty-cycle law, unpacked once per
        # law formed.
        self._law_consts = (
            params.pwm_levels - 1 if params.pwm_levels else 0,
            params.motor_gain,
            params.spring_rest_angle,
            params.coulomb_open,
            params.coulomb_close,
            params.spring_stiffness,
        )
        # The laws (drive, target_open, target_close) of the last two
        # distinct duty cycles applied, the current one first; NaN equals no
        # input.
        self._u_raw = self._u_prev = math.nan
        self._law = self._law_prev = (0.0, 0.0, 0.0)
        # PWM code -> law, at most pwm_levels entries.
        self._pwm_laws: dict[int, tuple[float, float, float]] = {}

    @property
    def state(self) -> ValveState:
        """The plate's state, built at its first read after a change."""
        state = self._state
        if state is None:
            state = self._state = ValveState(self._angle, self._velocity, self._moving)
        return state

    @state.setter
    def state(self, state: ValveState) -> None:
        self._angle, self._velocity, self._moving = state.angle, state.velocity, state.moving
        self._state = state

    def measure(self) -> float:
        y = self._angle
        if self._q_step:
            code = round((y - self.params.angle_min) / self._q_step)
            y = self.params.angle_min + code * self._q_step
        if self.params.output_noise_std > 0:
            y += self.params.output_noise_std * self.rng.standard_normal()
        return y

    @contextlib.contextmanager
    def _sensor(self, n: int):
        """Context manager of a zero-argument measure() for a record of up
        to n samples: the values and noise stream of :meth:`measure`, with
        the noise drawn as one block (see :func:`_normals`).  Each case of
        ADC and noise has a closure of its own, so a sample costs one call,
        and the ADC code is rounded with no call (`_RNE`) where it is
        small enough."""
        q_step, a_min, std = self._q_step, self.params.angle_min, self.params.output_noise_std
        rne, rne_max = _RNE, _RNE_MAX
        with _normals(std, self.rng, n) as draw:
            if q_step and draw:
                def measure():
                    x = (self._angle - a_min) / q_step
                    code = x + rne - rne if -rne_max < x < rne_max else round(x)
                    return a_min + code * q_step + std * draw()
            elif q_step:
                def measure():
                    x = (self._angle - a_min) / q_step
                    code = x + rne - rne if -rne_max < x < rne_max else round(x)
                    return a_min + code * q_step
            elif draw:
                def measure():
                    return self._angle + std * draw()
            else:
                def measure():
                    return self._angle
            yield measure

    def _sense(self, angles: list[float]) -> np.ndarray:
        """measure() of each angle in turn, as array operations.

        np.round and round both round half to even, and one block of n
        normals is the stream of n scalar draws.
        """
        y = np.array(angles, dtype=float)
        if self._q_step:
            y = self.params.angle_min + np.round((y - self.params.angle_min) / self._q_step) * self._q_step
        if self.params.output_noise_std > 0:
            y = y + self.params.output_noise_std * self.rng.standard_normal(len(y))
        return y

    def advance(self, u: float) -> None:
        """Apply duty cycle u for one sample: n_sub frozen-mode sub-steps
        under its law, taken as phase jumps on the three state floats.

        An event-free phase toward a target inside the stops takes no
        logarithm, power or builtin function call.  Its V_STOP closed form
        is skipped where the ratio V_STOP * tau / |gap| lies below the
        simulator's bound, which proves with a half sub-step to spare that
        the closed form would give no event in the sample, and the
        end-of-sample angle and the grid check of sub-step n_sub use
        decay**n_sub computed once by the same expression.  A magnitude is
        ``(x if x >= 0.0 else -x)``, which differs from abs(x) only at -0.0,
        equal to 0.0 in every comparison (a division by a zero |gap| is
        never reached), and the end-of-sample velocity is the one the last
        grid check formed.  Either way the states are bit for bit those of
        the closed form.

        A duty cycle that is in neither law slot gets its law here, with no
        helper call: it is checked for finiteness by ``u - u != 0.0`` (NaN
        for NaN and +-inf, 0.0 otherwise), clamped to [0, 100] by
        comparisons, and on a PWM valve quantized to its integer code
        (rounded with no call below 2**51, see `_RNE`), whose law is taken
        from `_pwm_laws`; :meth:`_law_of` forms a law the table does not
        hold yet, and every law of a valve without PWM.
        """
        # The slots hold floats, so an input of another type that compares
        # equal to one (np.float32(0.1) == 0.1) cannot reuse its law.
        if type(u) is not float:
            u = float(u)
        # NaN equals nothing, so it always reaches the finiteness check.
        if u != self._u_raw:
            if u == self._u_prev:
                self._u_raw, self._law, self._u_prev, self._law_prev = (
                    self._u_prev, self._law_prev, self._u_raw, self._law)
            else:
                # A new duty cycle: checked, clamped and PWM-quantized before
                # the current law moves to the second slot, so a rejected
                # input leaves both slots alone.  x - x is 0.0 for a finite
                # x and NaN for NaN or +-inf.
                if u - u != 0.0:
                    raise ValueError("duty cycle must be finite")
                # min(100.0, max(0.0, u)) by comparisons: -0.0 clamps to 0.0.
                if u > 100.0:
                    applied = 100.0
                elif u > 0.0:
                    applied = u
                else:
                    applied = 0.0
                levels = self._law_consts[0]
                if levels:
                    x = applied / 100.0 * levels
                    code = x + _RNE - _RNE if x < _RNE_MAX else round(x)
                    law = self._pwm_laws.get(code)
                    if law is None:
                        law = self._pwm_laws[code] = self._law_of(code * 100.0 / levels)
                else:
                    law = self._law_of(applied)
                self._u_prev, self._law_prev = self._u_raw, self._law
                self._u_raw, self._law = u, law
        (k, rest, a_min, a_max, tau, decay, log_decay, stop_reach, break_open, break_close,
         decay_n, no_stop) = self._consts
        drive, target_open, target_close = self._law
        angle, velocity, moving = self._angle, self._velocity, self._moving
        n_sub = left = self.n_sub
        while True:
            # Friction mode for the next sub-step, decided as the sub-step does:
            # a moving plate keeps its direction while its target lies ahead.
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
                    # Nothing changes until u does: latched for the sample.
                    if moving or velocity != 0.0:
                        velocity, moving = 0.0, False
                    elif left == n_sub:
                        return  # no phase ran: the state is unchanged
                    break

            # Sub-step j puts the plate at target + gap * decay**j.
            gap = angle - target
            mag = gap if gap >= 0.0 else -gap

            # First event sub-step from the closed form: |v| falls below
            # V_STOP, or the plate reaches a stop its target lies beyond.
            # Then corrected on the grid against the same test; left + 1
            # means no event this sample.
            # A ratio that underflows to 0, or one below no_stop, puts its
            # event past any sample, so no logarithm is taken for it.
            first = left + 1
            if stop_reach >= mag:
                first = 1
            elif (stop_reach >= mag * no_stop and stop_reach > 0.0
                  and stop_reach / mag > 0.0 and log_decay < 0.0):
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
                a = target + gap * (decay_n if j - 1 == n_sub else decay ** (j - 1))
                v = (target - a) / tau
                if not ((v if v >= 0.0 else -v) < V_STOP or a <= a_min or a >= a_max):
                    break
                j -= 1
            while j <= left:
                a = target + gap * decay**j
                v = (target - a) / tau
                if (v if v >= 0.0 else -v) < V_STOP or a <= a_min or a >= a_max:
                    break
                j += 1

            if j > left:
                # The last grid check, back or forward, was of sub-step
                # left: `a` and `v` are already the end-of-sample angle and
                # velocity.
                angle, velocity, moving = a, v, True
                break
            a = min(max(target + gap * decay**j, a_min), a_max)
            if a == angle and not moving and velocity == 0.0:
                # Pinned (at a stop or by rounding): every sub-step repeats.
                if left == n_sub:
                    return
                break
            angle, velocity, moving = a, 0.0, False
            left -= j
            if left == 0:
                break
        self._angle, self._velocity, self._moving, self._state = angle, velocity, moving, None

    def _law_of(self, u: float) -> tuple[float, float, float]:
        """(drive, target_open, target_close) of the applied duty cycle u."""
        _, gain, rest, c_open, c_close, k = self._law_consts
        drive = gain * u
        return drive, rest - (drive + c_open) / k, rest - (drive - c_close) / k


@contextlib.contextmanager
def _normals(std: float, rng: np.random.Generator, n: int):
    """Context manager of draw(), the next of n standard normals of `rng`
    drawn as one block, for a sensor that adds std times draw() to each of
    up to n reads; a block of n is the stream of n scalar draws.  On exit
    after k < n draws (an exception mid-record) the bit generator is set
    back to its entry state and k normals are drawn again, so `rng` ends
    where k scalar draws leave it.  Without noise (std not > 0) it gives
    None and draws nothing."""
    if not std > 0:
        yield None
        return
    bit_generator = rng.bit_generator
    entry = bit_generator.state
    normals = iter(rng.standard_normal(n).tolist())
    try:
        yield normals.__next__
    finally:
        unread = operator.length_hint(normals)
        if unread:
            bit_generator.state = entry
            rng.standard_normal(n - unread)


def _record_sensor(plant, n: int):
    """Context manager of a measure() for a record of up to n samples of
    `plant`: its own `_sensor(n)`, or its measure() for a plant without one."""
    sensor = getattr(plant, "_sensor", None)
    if sensor is None:
        return contextlib.nullcontext(plant.measure)
    return sensor(n)


def valve_run(params: ValveParams, u_sequence: np.ndarray, Ts: float = 0.05) -> np.ndarray:
    """Simulate a full input sequence; returns one output sample per input.

    Two calls with identical params (same rng_seed) and input are
    bit-identical.
    """
    u_sequence = np.asarray(u_sequence, dtype=float)
    if u_sequence.ndim != 1:
        raise ValueError("u_sequence must be one-dimensional")
    if not np.all(np.isfinite(u_sequence)):
        raise ValueError("u_sequence must be finite")
    return open_loop(ValveSimulator(params, Ts), u_sequence)


def open_loop(sim, u) -> np.ndarray:
    """The open-loop sampled record: measure, then advance under u[k], once
    per input.  `sim` provides measure()/advance(); returns y with y[k]
    measured before u[k] is applied.

    A :class:`ValveSimulator` records its true angles and senses them once
    the loop ends, also when an input raises, so its noise stream ends where
    the per-sample loop would leave it.
    """
    if not isinstance(sim, ValveSimulator):
        y = np.empty(len(u))
        for k in range(len(u)):
            y[k] = sim.measure()
            sim.advance(u[k])
        return y
    angles = []
    record, advance = angles.append, sim.advance
    try:
        for u_k in np.asarray(u, dtype=float).tolist():
            record(sim._angle)
            advance(u_k)
    finally:
        y = sim._sense(angles)
    return y


@dataclass(frozen=True)
class HysteresisMap:
    levels: np.ndarray
    angle_up: np.ndarray
    angle_down: np.ndarray

    @property
    def width(self) -> float:
        """Largest branch separation over the swept levels, deg."""
        return float(np.max(np.abs(self.angle_up - self.angle_down)))


def _check_sweep_hold(hold: float, Ts: float) -> None:
    """Raise ValueError for a hold that is not finite, too short for a
    quasi-static sweep, or not a finite number of samples, one at least, of
    a valid Ts."""
    if not math.isfinite(hold):
        raise ValueError("hold must be finite")
    if hold < 2.5:
        raise ValueError("hold must be >= 2.5 s for a quasi-static sweep")
    n_hold = hold / Ts
    if not (math.isfinite(n_hold) and round(n_hold) >= 1):
        raise ValueError(f"hold must be a finite number of samples, one at least (Ts = {Ts!r} s)")


def _check_duration(name: str, seconds: float, Ts: float) -> None:
    """Raise ValueError for a finite duration >= 0 that spans more samples
    of a valid Ts, round(seconds / Ts), than an index holds."""
    n = seconds / Ts
    if not (math.isfinite(n) and round(n) <= sys.maxsize):
        raise ValueError(f"{name} must be at most {sys.maxsize} samples (Ts = {Ts!r} s)")


def static_sweep(
    params: ValveParams,
    u_levels: np.ndarray,
    hold: float = 2.5,
    Ts: float = 0.05,
) -> HysteresisMap:
    """Quasi-static staircase up and back down through u_levels.

    Each level is held for `hold` seconds; the steady angle per level is the
    mean over the final 0.5 s of the hold.  Ascending and descending branches
    are returned separately.  Each branch is one :func:`open_loop` record of
    its held levels, and each level's mean is taken over a view of that
    record: the samples, noise stream and means of one record per level.
    """
    u_levels = np.asarray(u_levels, dtype=float)
    sim = ValveSimulator(params, Ts)
    _check_sweep_hold(hold, Ts)
    n_hold = int(round(hold / Ts))
    n_avg = max(1, int(round(0.5 / Ts)))

    def run_branch(levels):
        y = open_loop(sim, np.repeat(levels, n_hold))
        return np.array([y[k:k + n_hold][-n_avg:].mean() for k in range(0, len(y), n_hold)])

    up = run_branch(u_levels)
    down = run_branch(u_levels[::-1])[::-1]
    return HysteresisMap(levels=u_levels, angle_up=up, angle_down=down)


def measure_rise_time(y: np.ndarray, Ts: float, settle: float = 0.5) -> float:
    """10 % to 90 % rise (or fall) time of a step response, s.

    The final value is the mean over the trailing `settle` seconds; crossing
    instants are linearly interpolated between samples.
    """
    y = np.asarray(y, dtype=float)
    n_avg = max(1, int(round(settle / Ts)))
    y0 = y[0]
    yf = y[-n_avg:].mean()
    span = yf - y0
    if span == 0:
        raise ValueError("no transition in response")
    frac = (y - y0) / span

    def crossing(level):
        idx = np.nonzero(frac >= level)[0]
        if len(idx) == 0:
            raise ValueError("response never reaches threshold")
        i = idx[0]
        if i == 0:
            return 0.0
        f0, f1 = frac[i - 1], frac[i]
        return Ts * ((i - 1) + (level - f0) / (f1 - f0))

    return crossing(0.9) - crossing(0.1)


# ---------------------------------------------------------------------------
# Discrete linear models


@dataclass(frozen=True)
class DiscretePlantModel:
    """ARX-form model  A(q^-1) y(t) = q^-d B(q^-1) u(t)  with monic A.

    a_coeffs are a1..a_na, b_coeffs are b1..b_nb (B starts at q^-1), delay d
    counts extra whole-sample delays beyond the implicit one in B.
    """

    a_coeffs: tuple[float, ...]
    b_coeffs: tuple[float, ...]
    delay: int = 0
    Ts: float = 0.05

    def __post_init__(self):
        object.__setattr__(self, "a_coeffs", tuple(map(float, self.a_coeffs)))
        object.__setattr__(self, "b_coeffs", tuple(map(float, self.b_coeffs)))
        if len(self.b_coeffs) < 1:
            raise ValueError("model needs at least b1")
        if self.delay < 0:
            raise ValueError("delay must be >= 0")
        if self.Ts <= 0:
            raise ValueError("Ts must be > 0")
        vals = self.a_coeffs + self.b_coeffs
        if not all(map(math.isfinite, vals)):
            raise ValueError("coefficients must be finite")

    @property
    def na(self) -> int:
        return len(self.a_coeffs)

    @property
    def nb(self) -> int:
        return len(self.b_coeffs)

    @property
    def theta(self) -> np.ndarray:
        return np.array(self.a_coeffs + self.b_coeffs)

    @property
    def dc_gain(self) -> float:
        return sum(self.b_coeffs) / (1.0 + sum(self.a_coeffs))

    def frequency_response(self, omegas: np.ndarray) -> np.ndarray:
        """Evaluate q^-d B / A on the unit circle at omegas rad/s."""
        omegas = np.asarray(omegas, dtype=float)
        z_inv = np.exp(-1j * omegas * self.Ts)
        num = np.zeros_like(z_inv)
        for j, b in enumerate(self.b_coeffs, start=1):
            num += b * z_inv ** (self.delay + j)
        den = np.ones_like(z_inv)
        for i, a in enumerate(self.a_coeffs, start=1):
            den += a * z_inv**i
        return num / den


def _arx_output(model: DiscretePlantModel, y_hist, u_hist) -> float:
    # The ARX equation, unchecked, a-terms then b-terms: y_hist[-i] is
    # y(t-i) and u_hist[-j] is u(t-j).
    y = 0.0
    for i, a in enumerate(model.a_coeffs, start=1):
        y -= a * y_hist[-i]
    for j, b in enumerate(model.b_coeffs, start=1):
        y += b * u_hist[-(model.delay + j)]
    return y


class LinearSimulator:
    """Sampled linear plant with the same measure/advance interface as
    :class:`ValveSimulator`.

    Measurement noise is additive on the sensed output only; the internal
    recursion stays noise free (output-error structure).  A closed-loop
    record senses it through :meth:`_sensor`, which draws the record's noise
    as one block with the stream of one :meth:`measure` per sample.
    """

    def __init__(self, model: DiscretePlantModel, noise_std: float = 0.0, rng_seed: int = 0):
        self.model = model
        self.noise_std = noise_std
        self.rng = np.random.default_rng(rng_seed)
        self._y = [0.0] * max(1, model.na)
        self._u = [0.0] * (model.nb + model.delay)
        self._current: float | None = None

    def _output(self) -> float:
        # The ARX equation on the history lists, whose lengths the
        # constructor fixes.
        if self._current is None:
            self._current = _arx_output(self.model, self._y, self._u)
        return self._current

    def measure(self) -> float:
        y = self._output()
        if self.noise_std > 0:
            y += self.noise_std * self.rng.standard_normal()
        return y

    @contextlib.contextmanager
    def _sensor(self, n: int):
        """Context manager of a zero-argument measure() for a record of up
        to n samples, as :meth:`ValveSimulator._sensor`."""
        output, std = self._output, self.noise_std
        with _normals(std, self.rng, n) as draw:
            yield (lambda: output() + std * draw()) if draw else output

    def advance(self, u: float) -> None:
        y = self._output()
        self._y.append(y)
        self._y.pop(0)
        self._u.append(float(u))
        self._u.pop(0)
        self._current = None


def linear_run(model: DiscretePlantModel, u_sequence: np.ndarray, noise_std: float = 0.0, rng_seed: int = 0) -> np.ndarray:
    sim = LinearSimulator(model, noise_std=noise_std, rng_seed=rng_seed)
    return open_loop(sim, np.asarray(u_sequence, dtype=float))
