"""Closed-loop records against the per-sample loop they replaced.

`ControllerRuntime.track`, `cl_identify` and `adaptive_run` sense a record
through the plant's record-scoped sensor and build their arrays once the
loop ends.  The oracle is the loop as it was: one `measure()` per sample on
a plant seen through measure()/advance() only, and `track` writing its
arrays sample by sample.  Outputs, the plant's final state and its rng state
must agree bit for bit, also for a record that an error ends mid-way.

`cl_identify` and `adaptive_run` run each record in one shared loop,
`cloe._record`, of the predictor's `predict`/`adapt` around the real loop's
step, and those run the straight-line kernels of the predictor's shape
(`cloe._predictor_kernels`).
The second set of oracles is those functions as they ran before: one
`_loop_sample` per sample, on a predictor whose `predict`/`adapt` form the
regressor by comprehensions and sum theta' phi through `ident._dot`, over
predictor shapes, noise, clamping, frozen estimates and rejected redesigns.
A record that an exception ends must leave the plant, its noise stream and
the predictor's estimate where that oracle leaves them.
"""

import dataclasses

import numpy as np
import pytest

from valvebench import adapt, cloe
from valvebench.adapt import RstDesignSpec, adaptive_run
from valvebench.cloe import cl_identify
from valvebench.control import ONE, ControllerRuntime, PoleSpec, dominant_poles, pi_design, rst_law_length
from valvebench.errors import DesignError
from valvebench.ident import _dot, initial_adaptation_state, rls_step
from valvebench.plant import DiscretePlantModel, LinearSimulator, ValveSimulator, _record_sensor
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


class RecordEnded(Exception):
    """The error that ends a record mid-way in these tests."""


def ending_at(plant, k: int):
    """`plant` with an advance that raises RecordEnded on its call k
    (counting from 0, warmup or settling included), before the plant moves."""
    advance, applied = plant.advance, []

    def ending(u):
        if len(applied) == k:
            raise RecordEnded(f"advance call {k}")
        applied.append(u)
        advance(u)

    plant.advance = ending
    return plant


def cloe_run(plant, excitation, level):
    init = initial_adaptation_state(2, gain=100.0, theta0=np.array(THETA) * 0.8)
    return cl_identify(
        plant, SPEC.design(np.array(THETA)), excitation, init, 1, 1,
        operating_reference=level, warmup=20, limits=(0.0, 100.0),
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
    """The valve's advance raises at record sample 30, after 20 warmup
    measurements and 31 of the record's."""
    excitation = np.full(60, 1.0)
    fast, slow = (ending_at(make_plant("valve", noise), 20 + 30) for _ in range(2))
    with pytest.raises(RecordEnded):
        cloe_run(fast, excitation, 40.0)
    with pytest.raises(RecordEnded):
        cloe_run(per_sample(monkeypatch, slow), excitation, 40.0)
    assert plant_bits(fast) == plant_bits(slow)
    fresh = np.random.default_rng(5)
    for _ in range(20 + 31 if noise else 0):
        fresh.standard_normal()
    assert fast.rng.bit_generator.state == fresh.bit_generator.state


def spike(value, base=1.0):
    """50 samples of `base` with `value` at sample 20."""
    x = np.full(50, base)
    x[20] = value
    return x


def frozen_cl_identify(plant, excitation, level=40.0):
    init = initial_adaptation_state(2, theta0=np.array(THETA))
    return cl_identify(
        plant, SPEC.design(np.array(THETA)), excitation, init, 1, 1,
        operating_reference=level, warmup=10, limits=(0.0, 100.0), update=False,
    )


def short_adaptive_run(plant, reference, excitation):
    return adaptive_run(
        plant, SPEC.design(np.array(THETA)), SPEC, reference, np.array(THETA),
        excitation=excitation, settle=0.5,
    )


@pytest.mark.parametrize("record, message", [
    (lambda p: frozen_cl_identify(p, spike(np.nan)), "excitation must be finite"),
    (lambda p: frozen_cl_identify(p, spike(-np.inf)), "excitation must be finite"),
    (lambda p: frozen_cl_identify(p, spike(1.0), np.nan), "operating_reference must be finite"),
    (lambda p: short_adaptive_run(p, spike(40.0, 40.0), spike(np.nan)), "excitation must be finite"),
    (lambda p: short_adaptive_run(p, spike(np.inf, 40.0), None), "reference must be finite"),
], ids=["cl_identify-nan", "cl_identify-inf", "cl_identify-reference", "adaptive_run-excitation",
        "adaptive_run-reference"])
def test_a_non_finite_input_is_rejected_before_the_plant_advances(record, message):
    """A frozen, clamped cl_identify once clipped a NaN excitation sample to
    the lower limit and carried NaN in y_hat for the rest of the record; a
    NaN or inf reference or excitation now raises a ValueError naming it at
    record entry, before warmup or settling moves the plant or its rng."""
    plant = make_plant("valve", 0.2)
    with pytest.raises(ValueError, match=message):
        record(plant)
    assert plant_bits(plant) == plant_bits(make_plant("valve", 0.2))


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


# ---------------------------------------------------------------------------
# The record kernels against the loop of predict/adapt calls

# A stable plant of each predictor shape (na, nb, delay).
MODELS = {
    (1, 1, 0): ((-0.9152,), (-0.0609,)),
    (2, 1, 1): ((-1.2, 0.35), (0.1,)),
    (1, 2, 1): ((-0.8,), (0.1, 0.05)),
    (2, 2, 0): ((-1.2, 0.35), (0.1, 0.05)),
}
SHAPES = sorted(MODELS)
CLAMP = (-2.0, 2.0)


class LoopPredictor(cloe.ClosedLoopPredictor):
    """The one-step API as it ran before its kernels: the regressor built by
    comprehensions, theta' phi summed by `ident._dot`."""

    def predict(self, r_u, r_dev=0.0):
        if self._pending_phi is not None:
            raise RuntimeError("predict called twice without adapt")
        u_ctrl, _ = self.runtime.step(self._y_current, float(r_dev))
        u_hat = u_ctrl + float(r_u)
        y_h, u_h = self.runtime._y, self._u
        u_h.append(u_hat)
        u_h.pop(0)
        phi = [-y_h[-1 - i] for i in range(self.na)]
        phi += [u_h[-1 - self.delay - j] for j in range(self.nb)]
        self._pending_phi = phi
        return _dot(self.state._theta_list(), phi), u_hat

    def adapt(self, y_measured_next, update=True):
        if self._pending_phi is None:
            raise RuntimeError("adapt called before predict")
        phi = self._pending_phi
        if update:
            self.state, eps0, eps = rls_step(self.state, phi, float(y_measured_next))
        y_post = _dot(self.state._theta_list(), phi)
        if not update:
            eps0 = eps = float(y_measured_next) - y_post
        self._y_current = y_post
        self._pending_phi = None
        return eps0, eps


def _loop_sample(plant, measure, predictor, runtime, y_abs, r_bar, r, r_u, update=True):
    """One CLOE sample: predict, control, inject r_u, clip to the runtime's
    limits, advance, measure, adapt.  `measure` senses the plant (its
    record's sensor), y_abs is the current measurement and r_bar the
    operating reference the predictor works around.  Returns (y_pred, u_hat,
    u_plant, saturated, y_next, eps0, eps)."""
    y_pred, u_hat = predictor.predict(r_u, r - r_bar)
    u_cmd, sat = runtime.step(y_abs, r)
    u_plant = u_cmd + r_u
    limits = runtime._limits
    if limits is not None:
        lo, hi = limits
        clipped = min(hi, max(lo, u_plant))
        sat = sat or (clipped != u_plant)
        u_plant = clipped
    plant.advance(u_plant)
    y_next = measure()
    eps0, eps = predictor.adapt(y_next - r_bar, update=update)
    return y_pred, u_hat, u_plant, sat, y_next, eps0, eps


def cl_identify_oracle(
    plant, controller, excitation, init, na, nb, delay=0, operating_reference=0.0,
    warmup=0, limits=None, update=True,
):
    """`cloe.cl_identify` with its samples run one `_loop_sample` at a time,
    on a `LoopPredictor`."""
    excitation = np.asarray(excitation, dtype=float)
    runtime = ControllerRuntime(controller, limits=limits)
    r_bar = float(operating_reference)
    y_hist = u_hist = None
    u_bar = 0.0
    if warmup > 0:
        y_w, u_w, _ = runtime.track(plant, np.full(warmup, r_bar))
        u_bar = cloe._operating_duty(u_w)
        y_hist, u_hist = y_w - r_bar, u_w - u_bar
    predictor = LoopPredictor(
        controller, na, nb, delay, init, y_hist=y_hist, u_hist=u_hist
    )
    thetas, ys, y_hats, us, u_hats, e0s, e1s, sats = [], [], [], [], [], [], [], []
    with _record_sensor(plant, len(excitation) + 1) as measure:
        y_abs = measure()
        for r_u in excitation.tolist():
            ys.append(y_abs - r_bar)
            y_pred, u_hat, u_plant, sat, y_abs, eps0, eps = _loop_sample(
                plant, measure, predictor, runtime, y_abs, r_bar, r_bar, r_u, update
            )
            y_hats.append(y_pred)
            u_hats.append(u_hat)
            us.append(u_plant - u_bar)
            sats.append(sat)
            e0s.append(eps0)
            e1s.append(eps)
            thetas.extend(predictor.state._theta_list())
    return cloe.CloeRun(
        theta=np.array(thetas, dtype=float).reshape(len(excitation), na + nb),
        y=np.array(ys, dtype=float),
        y_hat=np.array(y_hats, dtype=float),
        u=np.array(us, dtype=float),
        u_hat=np.array(u_hats, dtype=float),
        eps_apriori=np.array(e0s, dtype=float),
        eps_aposteriori=np.array(e1s, dtype=float),
        saturated=np.array(sats, dtype=bool),
        final_state=predictor.state,
        u_operating=u_bar,
        y_last=y_abs,
    )


def adaptive_run_oracle(
    plant, initial_controller, design, reference, theta0, *, excitation=None,
    adaptation_gain=1000.0, profile="variable-forgetting", lambda0=0.97, settle=3.0,
    limits=adapt.DEFAULT_LIMITS,
):
    """`adapt.adaptive_run` with its samples run one `_loop_sample` at a time,
    on a `LoopPredictor`."""
    reference = np.asarray(reference, dtype=float)
    T = len(reference)
    excitation = np.zeros(T) if excitation is None else np.asarray(excitation, dtype=float)
    n = design.na + design.nb
    controller = initial_controller
    r_bar = float(reference[0])
    y_tr, u_tr = adapt._settle(plant, controller, r_bar, settle, limits)
    u_bar = cloe._operating_duty(u_tr)
    state = initial_adaptation_state(
        n, gain=adaptation_gain, profile=profile, lambda0=lambda0,
        theta0=np.asarray(theta0, dtype=float),
    )
    depth = rst_law_length(design.na, design.nb, design.delay, design.hs, design.hr)
    predictor = LoopPredictor(
        controller, design.na, design.nb, design.delay, state,
        y_hist=y_tr - r_bar, u_hist=u_tr - u_bar, depth=depth,
    )
    runtime = ControllerRuntime(controller, limits=limits, depth=depth)
    runtime.prime(u=float(u_tr[-1]), y=float(y_tr[-1]), r=r_bar)
    ys, us, thetas = [], [], []
    redesigns = rejected = 0
    with _record_sensor(plant, T + 1) as measure:
        y_abs = measure()
        for r_k, e_k in zip(reference.tolist(), excitation.tolist()):
            _, _, u_plant, _, y_abs, _, _ = _loop_sample(
                plant, measure, predictor, runtime, y_abs, r_bar, r_k, e_k
            )
            theta = predictor.state._theta_list()
            try:
                controller = design.design(theta)
                runtime.controller = predictor.runtime.controller = controller
                redesigns += 1
            except DesignError:
                rejected += 1
            ys.append(y_abs)
            us.append(u_plant)
            thetas.extend(theta)
    return adapt.AdaptiveRun(
        y=np.array(ys, dtype=float),
        u=np.array(us, dtype=float),
        reference=reference,
        theta=np.array(thetas, dtype=float).reshape(T, n),
        redesigns=redesigns,
        rejected=rejected,
        final_controller=controller,
        final_state=predictor.state,
    )


@pytest.fixture
def predictors(monkeypatch):
    """Every closed-loop predictor built by the package or by the oracles, in
    order of construction."""
    made = []
    init = cloe.ClosedLoopPredictor.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(cloe.ClosedLoopPredictor, "__init__", recorded)
    return made


def assert_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_same_state(got, want):
    assert_bits(got.theta_hat, want.theta_hat)
    assert_bits(got.F, want.F)
    assert_bits([got.lambda1, got.lambda2, got.lambda0], [want.lambda1, want.lambda2, want.lambda0])
    assert got.profile == want.profile


def assert_same_plant(got, want):
    """Two linear simulators in the same state, noise stream included."""
    assert got.rng.bit_generator.state == want.rng.bit_generator.state
    assert_bits(got._y, want._y)
    assert_bits(got._u, want._u)


def shaped_loop(shape, noise=0.0, seed=3):
    """(plant of the shape, twin plant, controller designed on it, its true
    parameters, a wrong initial estimate)."""
    na, nb, delay = shape
    a, b = MODELS[shape]
    model = DiscretePlantModel(a, b, delay, Ts)
    theta = np.array(a + b)
    controller = adapt.RstDesignSpec(PoleSpec(5.0, 1.0, Ts), na=na, nb=nb, delay=delay).design(theta)
    twins = [LinearSimulator(model, noise_std=noise, rng_seed=seed) for _ in range(2)]
    return *twins, controller, theta, 0.7 * theta


def injection(length):
    return adapt.ExcitationSpec(amplitude=2.0, length=length).sequence()


def assert_same_cloe_run(got, want):
    for name in ("theta", "y", "y_hat", "u", "u_hat", "eps_apriori", "eps_aposteriori", "saturated"):
        assert_bits(getattr(got, name), getattr(want, name))
    assert_bits([got.u_operating, got.y_last], [want.u_operating, want.y_last])
    assert_same_state(got.final_state, want.final_state)


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "na{}-nb{}-d{}".format(*s))
@pytest.mark.parametrize("noise", [0.0, 0.2])
@pytest.mark.parametrize("limits", [None, CLAMP], ids=["free", "clamped"])
@pytest.mark.parametrize("update", [True, False], ids=["update", "frozen"])
def test_cl_identify_matches_loop_sample_oracle(shape, noise, limits, update):
    plant, twin, controller, _, theta0 = shaped_loop(shape, noise)
    na, nb, delay = shape
    init = initial_adaptation_state(na + nb, profile="variable-forgetting", theta0=theta0)
    exc = injection(150)
    kwargs = dict(delay=delay, operating_reference=0.5, warmup=20, limits=limits, update=update)
    got = cloe.cl_identify(plant, controller, exc, init, na, nb, **kwargs)
    want = cl_identify_oracle(twin, controller, exc, init, na, nb, **kwargs)
    assert_same_cloe_run(got, want)
    assert_same_plant(plant, twin)
    if limits is not None:  # the clip ran on both sides of the range
        u_abs = want.u + want.u_operating
        assert want.saturated.any() and not want.saturated.all()
        assert np.allclose([u_abs.min(), u_abs.max()], CLAMP)
    if not update:
        assert_bits(want.theta, np.tile(theta0, (len(exc), 1)))


def test_cl_identify_on_a_valve_matches_loop_sample_oracle():
    """The record of the adapt scenario: a noisy, quantised valve clamped to
    [0, 100] % duty around 40 degrees."""
    plant, twin = (ValveSimulator(make_preset(3), Ts) for _ in range(2))
    theta = np.array([-0.9152, -0.0609])
    controller = adapt.RstDesignSpec(PoleSpec(5.0, 1.0, Ts)).design(theta)
    init = initial_adaptation_state(2, profile="variable-forgetting", theta0=theta)
    exc = adapt.ExcitationSpec(amplitude=10.0, length=200).sequence()
    kwargs = dict(operating_reference=40.0, warmup=40, limits=(0.0, 100.0))
    got = cloe.cl_identify(plant, controller, exc, init, 1, 1, **kwargs)
    want = cl_identify_oracle(twin, controller, exc, init, 1, 1, **kwargs)
    assert_same_cloe_run(got, want)
    assert plant.rng.bit_generator.state == twin.rng.bit_generator.state
    assert plant.state == twin.state


def assert_same_adaptive_run(got, want):
    for name in ("y", "u", "reference", "theta"):
        assert_bits(getattr(got, name), getattr(want, name))
    assert (got.redesigns, got.rejected) == (want.redesigns, want.rejected)
    assert got.final_controller._law == want.final_controller._law
    assert_same_state(got.final_state, want.final_state)


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "na{}-nb{}-d{}".format(*s))
@pytest.mark.parametrize("noise", [0.0, 0.2])
@pytest.mark.parametrize("limits", [None, CLAMP], ids=["free", "clamped"])
def test_adaptive_run_matches_loop_sample_oracle(shape, noise, limits):
    plant, twin, controller, _, theta0 = shaped_loop(shape, noise)
    na, nb, delay = shape
    spec = adapt.RstDesignSpec(PoleSpec(5.0, 1.0, Ts), na=na, nb=nb, delay=delay)
    reference = np.repeat([0.0, 1.5, -1.5, 0.5], 30)
    kwargs = dict(excitation=injection(len(reference)), settle=1.0, limits=limits)
    got = adapt.adaptive_run(plant, controller, spec, reference, theta0, **kwargs)
    want = adaptive_run_oracle(twin, controller, spec, reference, theta0, **kwargs)
    assert_same_adaptive_run(got, want)
    assert_same_plant(plant, twin)
    assert want.redesigns > 0
    if limits is not None:
        assert want.u.min() == CLAMP[0] and want.u.max() == CLAMP[1]


def test_adaptive_run_rejecting_every_redesign_matches_oracle():
    """An estimate whose A H_S has degree 0 fails every design: the loop
    keeps its initial controller through the whole record."""
    spec = adapt.RstDesignSpec(PoleSpec(5.0, 1.0, Ts), na=1, nb=3, hs=ONE, hr=ONE)
    ctrl0 = pi_design(-0.6, -0.2, dominant_poles(PoleSpec(5.0, 1.0, Ts)), Ts)
    model = DiscretePlantModel(*MODELS[1, 1, 0], 0, Ts)
    plant, twin = (LinearSimulator(model) for _ in range(2))
    theta0 = np.array([0.0, -0.2, 0.1, 0.05])
    kwargs = dict(adaptation_gain=1e-300, profile="constant-gain", settle=0.5, limits=None)
    got = adapt.adaptive_run(plant, ctrl0, spec, np.zeros(20), theta0, **kwargs)
    want = adaptive_run_oracle(twin, ctrl0, spec, np.zeros(20), theta0, **kwargs)
    assert_same_adaptive_run(got, want)
    assert (got.redesigns, got.rejected) == (0, 20)
    assert got.final_controller is ctrl0


@pytest.mark.parametrize("shape", [(1, 1, 0), (2, 1, 1)], ids=["na1-nb1-d0", "na2-nb1-d1"])
@pytest.mark.parametrize("adaptive", [False, True], ids=["cl_identify", "adaptive_run"])
def test_record_ended_by_a_nan_input_leaves_what_the_oracle_leaves(predictors, shape, adaptive):
    """The plant's advance raises at record sample 50, after the predictor's
    predict and the loop's step of that sample: the plant, its noise stream
    and the predictor's estimate and current prediction end where the
    per-sample loop leaves them."""
    plant, twin, controller, theta, theta0 = shaped_loop(shape, noise=0.2)
    na, nb, delay = shape
    exc = injection(80)
    if adaptive:
        spec = adapt.RstDesignSpec(PoleSpec(5.0, 1.0, Ts), na=na, nb=nb, delay=delay)
        ahead = 20  # settling samples
        runs = [
            lambda p: adapt.adaptive_run(
                p, controller, spec, np.zeros(80), theta0, excitation=exc, settle=1.0, limits=None
            ),
            lambda p: adaptive_run_oracle(
                p, controller, spec, np.zeros(80), theta0, excitation=exc, settle=1.0, limits=None
            ),
        ]
    else:
        init = initial_adaptation_state(na + nb, theta0=theta0)
        ahead = 10  # warmup samples
        runs = [
            lambda p: cloe.cl_identify(p, controller, exc, init, na, nb, delay, warmup=10),
            lambda p: cl_identify_oracle(p, controller, exc, init, na, nb, delay, warmup=10),
        ]
    for run, p in zip(runs, (plant, twin)):
        with pytest.raises(RecordEnded):
            run(ending_at(p, ahead + 50))
    got, want = predictors
    assert_same_plant(plant, twin)
    assert_bits(got.state._theta_list(), want.state._theta_list())
    assert_bits(got._y_current, want._y_current)
    assert_bits(got._u, want._u)
    assert_bits(got.runtime._y, want.runtime._y)
    assert not np.array_equal(want.state.theta_hat, theta0)  # the record adapted first
