"""Closed-loop output-error identification: predictor mechanics and runs."""

import numpy as np
import pytest

from valvebench.cloe import ClosedLoopPredictor, cl_identify, save_cloe_csv
from valvebench.control import (
    HS_INTEGRATOR,
    ONE,
    DelayPolynomial,
    PoleSpec,
    RstController,
    bezout_design,
    dominant_poles,
)
from valvebench.ident import initial_adaptation_state, rls_step
from valvebench.plant import DiscretePlantModel, LinearSimulator
from valvebench.signals import PrbsConfig, prbs_deviation

Ts = 0.05
TRUE = DiscretePlantModel((-0.9152,), (-0.0609,), 0, Ts)
THETA_TRUE = np.array([-0.9152, -0.0609])


def loop_controller() -> RstController:
    return bezout_design(TRUE, dominant_poles(PoleSpec(5.0, 1.0, Ts)))


def excitation(length: int) -> np.ndarray:
    cfg = PrbsConfig(n_registers=8, divider=4, offset=50.0, amplitude=10.0)
    return prbs_deviation(cfg, length)


def test_perfect_model_predicts_exactly():
    ctrl = loop_controller()
    plant = LinearSimulator(TRUE)
    init = initial_adaptation_state(2, theta0=THETA_TRUE)
    run = cl_identify(plant, ctrl, excitation(120), init, 1, 1, limits=None, update=False)
    assert np.max(np.abs(run.eps_apriori)) < 1e-12
    np.testing.assert_array_equal(run.theta[-1], THETA_TRUE)


def test_prediction_ignores_measurement_noise():
    """The parallel predictor is driven by the excitation alone, so its
    trajectory cannot depend on the realization of the output noise."""
    ctrl = loop_controller()
    init = initial_adaptation_state(2, theta0=THETA_TRUE)
    runs = []
    for seed in (1, 2):
        plant = LinearSimulator(TRUE, noise_std=0.3, rng_seed=seed)
        runs.append(
            cl_identify(plant, ctrl, excitation(80), init, 1, 1, limits=None, update=False)
        )
    a, b = runs
    assert np.array_equal(a.y_hat, b.y_hat)
    assert np.array_equal(a.u_hat, b.u_hat)
    assert not np.array_equal(a.y, b.y)


def test_aposteriori_error_never_exceeds_apriori():
    ctrl = loop_controller()
    plant = LinearSimulator(TRUE, noise_std=0.3, rng_seed=5)
    init = initial_adaptation_state(2)
    run = cl_identify(plant, ctrl, excitation(200), init, 1, 1, limits=None)
    assert np.all(np.abs(run.eps_aposteriori) <= np.abs(run.eps_apriori) + 1e-12)


def test_converges_from_wrong_initial_guess():
    ctrl = loop_controller()
    plant = LinearSimulator(TRUE)
    init = initial_adaptation_state(
        2, profile="variable-forgetting", theta0=0.5 * THETA_TRUE
    )
    run = cl_identify(plant, ctrl, excitation(300), init, 1, 1, limits=None)
    assert np.max(np.abs(run.theta_final - THETA_TRUE)) < 1e-6


def test_predictor_protocol_misuse():
    pred = ClosedLoopPredictor(loop_controller(), 1, 1, 0, initial_adaptation_state(2))
    pred.predict(1.0)
    with pytest.raises(RuntimeError):
        pred.predict(1.0)
    pred.adapt(0.2)
    with pytest.raises(RuntimeError):
        pred.adapt(0.2)


def test_predictor_validation():
    ctrl = loop_controller()
    with pytest.raises(ValueError):
        ClosedLoopPredictor(ctrl, 0, 1, 0, initial_adaptation_state(1))
    with pytest.raises(ValueError):
        ClosedLoopPredictor(ctrl, 1, 1, -1, initial_adaptation_state(2))
    with pytest.raises(ValueError):
        ClosedLoopPredictor(ctrl, 2, 2, 0, initial_adaptation_state(3))


def test_predictor_matches_hand_recursion():
    """u_hat and phi for a one-tap controller, checked against a transcript
    of the recursion kept in plain Python lists."""
    ctrl = RstController(
        r_core=DelayPolynomial((0.5,)),
        s_core=ONE,
        t=DelayPolynomial((0.5,)),
        Ts=Ts,
    )
    theta = np.array([-1.2, 0.4, 0.3])  # na=2, nb=1
    init = initial_adaptation_state(3, theta0=theta)
    pred = ClosedLoopPredictor(ctrl, 2, 1, 1, init)

    rng = np.random.default_rng(11)
    r_u = rng.uniform(-1, 1, 6)
    y_cur, y_prev = 0.0, 0.0
    u_hist = [0.0, 0.0]
    for k in range(6):
        u_hat_ref = -0.5 * y_cur + r_u[k]
        phi_ref = np.array([-y_cur, -y_prev, u_hist[-1]])
        y_pred_ref = float(theta @ phi_ref)

        y_pred, u_hat = pred.predict(r_u[k])
        assert u_hat == pytest.approx(u_hat_ref, abs=1e-12)
        assert y_pred == pytest.approx(y_pred_ref, abs=1e-12)
        pred.adapt(rng.uniform(-1, 1), update=False)

        y_prev, y_cur = y_cur, y_pred_ref
        u_hist = [u_hist[-1], u_hat_ref]


def _dot(x, y):
    """x' y summed in index order, as the estimator kernel sums it."""
    acc = 0.0
    for a, b in zip(x, y):
        acc += a * b
    return acc


class InlineLawPredictor:
    """The predictor as it stood with the RST law written inline: its own
    controller-output and reference-deviation histories, T lags summed
    before the S and R lags.  Its predictions are summed as the estimator
    kernel sums them, so that only the law is compared."""

    def __init__(self, ctrl, na, nb, delay, state, y_hist, u_hist):
        self.ctrl, self.na, self.nb, self.delay, self.state = ctrl, na, nb, delay, state
        depth = max(na, nb + delay, len(ctrl.s.coeffs), len(ctrl.r.coeffs), len(ctrl.t.coeffs))

        def pad(values):
            return ([0.0] * depth + [float(v) for v in values])[-depth:]

        self.y_now = float(y_hist[-1])
        self.y = pad(y_hist[:-1])
        self.u = pad(u_hist)
        self.uc = list(self.u)
        self.rdev = [0.0] * depth

    def step(self, r_u, r_dev, y_next):
        s_c, r_c, t_c = self.ctrl.s.coeffs, self.ctrl.r.coeffs, self.ctrl.t.coeffs
        r_full = self.rdev + [r_dev]
        u_ctrl = t_c[0] * r_dev - r_c[0] * self.y_now
        for i in range(1, len(t_c)):
            u_ctrl += t_c[i] * r_full[-1 - i]
        for i in range(1, len(s_c)):
            u_ctrl -= s_c[i] * self.uc[-i]
        for i in range(1, len(r_c)):
            u_ctrl -= r_c[i] * self.y[-i]
        u_hat = u_ctrl + r_u
        u_full = self.u + [u_hat]
        y_lags = [self.y_now] + [self.y[-i] for i in range(1, self.na)]
        u_lags = [u_full[-1 - self.delay - j] for j in range(self.nb)]
        phi = np.array([-v for v in y_lags] + u_lags)
        y_pred = _dot(self.state.theta_hat, phi)
        self.state, _, _ = rls_step(self.state, phi, y_next)
        for hist, v in ((self.y, self.y_now), (self.u, u_hat), (self.uc, u_ctrl), (self.rdev, r_dev)):
            hist.append(v)
            hist.pop(0)
        self.y_now = _dot(self.state.theta_hat, phi)
        return y_pred, u_hat


@pytest.mark.parametrize("na, nb, delay", [(1, 1, 0), (2, 1, 1), (1, 2, 1), (2, 2, 0)])
@pytest.mark.parametrize("multi_tap_t", [False, True])
def test_predictor_matches_inline_law(na, nb, delay, multi_tap_t):
    """u_hat and the prediction against the inline law: bit for bit with a
    one-tap T (every designed controller).  Otherwise the T lags are now
    summed after S and R, and the last-bit differences feed back through
    the estimate: within rel 1e-12, abs 1e-12 near zero."""
    if multi_tap_t:
        ctrl = RstController(
            r_core=DelayPolynomial((0.8, -0.5)),
            s_core=DelayPolynomial((1.0, 0.2)),
            t=DelayPolynomial((0.2, 0.07, 0.03)),
            Ts=Ts,
            hs=HS_INTEGRATOR,
        )
    else:
        ctrl = loop_controller()
    rng = np.random.default_rng(na * 100 + nb * 10 + delay)
    init = initial_adaptation_state(na + nb, theta0=rng.uniform(-0.5, 0.5, na + nb))
    y_hist, u_hist = rng.uniform(-1, 1, 7), rng.uniform(-3, 3, 6)
    pred = ClosedLoopPredictor(ctrl, na, nb, delay, init, y_hist=y_hist, u_hist=u_hist)
    oracle = InlineLawPredictor(ctrl, na, nb, delay, init, y_hist, u_hist)
    for _ in range(60):
        r_u, r_dev, y_next = rng.uniform(-1, 1), rng.uniform(-2, 2), rng.uniform(-1, 1)
        got = pred.predict(r_u, r_dev)
        pred.adapt(y_next)
        want = oracle.step(r_u, r_dev, y_next)
        if multi_tap_t:
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        else:
            assert got == want


def test_one_step_api_rejects_calls_out_of_order():
    pred = ClosedLoopPredictor(loop_controller(), 1, 1, 0, initial_adaptation_state(2))
    with pytest.raises(RuntimeError, match="adapt called before predict"):
        pred.adapt(0.0)
    pred.predict(0.5)
    with pytest.raises(RuntimeError, match="predict called twice without adapt"):
        pred.predict(0.5)
    pred.adapt(0.1)
    pred.predict(0.5)


def test_a_replaced_state_is_the_estimate_the_next_prediction_uses():
    """Setting `state` replaces the estimate the predictions read, as an
    update by `adapt` does."""
    ctrl = loop_controller()
    pred = ClosedLoopPredictor(ctrl, 1, 1, 0, initial_adaptation_state(2))
    twin = ClosedLoopPredictor(ctrl, 1, 1, 0, initial_adaptation_state(2, theta0=THETA_TRUE))
    pred.state = twin.state
    assert pred.theta_hat is twin.theta_hat
    got, want = pred.predict(0.5), twin.predict(0.5)
    assert got == want and got[0] != 0.0
    assert pred.adapt(0.2, update=False) == twin.adapt(0.2, update=False)


def test_warmup_learns_operating_point():
    ctrl = loop_controller()
    plant = LinearSimulator(TRUE)
    init = initial_adaptation_state(2, theta0=THETA_TRUE)
    run = cl_identify(
        plant,
        ctrl,
        np.zeros(10),
        init,
        1,
        1,
        operating_reference=10.0,
        warmup=80,
        limits=None,
        update=False,
    )
    a1, b1 = THETA_TRUE
    u_expected = 10.0 * (1.0 + a1) / b1
    assert run.u_operating == pytest.approx(u_expected, abs=0.5)
    assert run.y_last == pytest.approx(10.0, abs=0.05)
    # frozen parameters stay put through the whole record
    assert np.array_equal(run.theta, np.tile(THETA_TRUE, (10, 1)))


def test_run_record_shapes():
    ctrl = loop_controller()
    plant = LinearSimulator(TRUE)
    init = initial_adaptation_state(2)
    run = cl_identify(plant, ctrl, excitation(40), init, 1, 1, limits=None)
    assert run.theta.shape == (40, 2)
    for arr in (run.y, run.y_hat, run.u, run.u_hat, run.eps_apriori, run.eps_aposteriori):
        assert len(arr) == 40
    assert np.array_equal(run.theta_final, run.theta[-1])
    assert not run.saturated.any()


def test_clipped_plant_input_is_flagged_saturated():
    ctrl = loop_controller()
    plant = LinearSimulator(TRUE)
    init = initial_adaptation_state(2, theta0=THETA_TRUE)
    exc = np.tile([30.0, 30.0, -30.0, -30.0], 10)  # the controller alone never saturates
    run = cl_identify(
        plant, ctrl, exc, init, 1, 1, operating_reference=-20.0, warmup=40,
        limits=(0.0, 100.0), update=False,
    )
    u_abs = run.u + run.u_operating
    at_limit = np.isclose(u_abs, 0.0, atol=1e-9) | np.isclose(u_abs, 100.0, atol=1e-9)
    assert at_limit.any() and not at_limit.all()
    assert run.saturated[at_limit].all()
    assert np.all((u_abs > -1e-9) & (u_abs < 100.0 + 1e-9))


def test_save_cloe_csv_round_trip(tmp_path):
    ctrl = loop_controller()
    plant = LinearSimulator(TRUE)
    init = initial_adaptation_state(2)
    run = cl_identify(plant, ctrl, excitation(25), init, 1, 1, limits=None)
    path = tmp_path / "cloe.csv"
    save_cloe_csv(path, run)
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == "t,y,y_hat,u,u_hat,eps_cl,theta_1,theta_2"
    assert len(lines) == 26
    assert "\r" not in text
    row = lines[5].split(",")
    assert float(row[1]) == pytest.approx(run.y[4], rel=1e-8, abs=1e-12)
    assert float(row[6]) == pytest.approx(run.theta[4, 0], rel=1e-8, abs=1e-12)
