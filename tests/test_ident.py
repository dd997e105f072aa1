import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valvebench.errors import IdentifiabilityError
from valvebench.ident import (
    AdaptationState,
    _regressors_from,
    batch_least_squares,
    build_regressors,
    initial_adaptation_state,
    order_scan,
    rls_run,
    rls_step,
)


def simulate_arx(a_coeffs, b_coeffs, u, noise=None):
    y = np.zeros(len(u))
    for t in range(len(u)):
        acc = 0.0
        for i, a in enumerate(a_coeffs, start=1):
            if t - i >= 0:
                acc -= a * y[t - i]
        for j, b in enumerate(b_coeffs, start=1):
            if t - j >= 0:
                acc += b * u[t - j]
        y[t] = acc
        if noise is not None:
            y[t] += noise[t]
    return y


def test_batch_recovers_noiseless_arx():
    rng = np.random.default_rng(1)
    u = rng.uniform(-1, 1, 400)
    y = simulate_arx([-1.1, 0.3], [0.6, -0.2], u)
    theta, cost = batch_least_squares(build_regressors(u, y, 2, 2))
    np.testing.assert_allclose(theta, [-1.1, 0.3, 0.6, -0.2], rtol=1e-8, atol=1e-10)
    assert cost < 1e-20


def test_batch_cost_is_half_mean_squared_residual():
    rng = np.random.default_rng(2)
    u = rng.uniform(-1, 1, 300)
    y = simulate_arx([-0.7], [0.4], u, noise=0.1 * rng.standard_normal(300))
    regs = build_regressors(u, y, 1, 1)
    theta, cost = batch_least_squares(regs)
    res = np.array([r.target - theta @ r.phi for r in regs])
    np.testing.assert_allclose(cost, np.mean(0.5 * res**2), rtol=1e-12)


def test_regressor_layout():
    u = np.arange(10.0)
    y = 10.0 + np.arange(10.0)
    regs = build_regressors(u, y, 2, 1)
    # first target at t = max(na, nb)
    assert regs[0].target == y[2]
    np.testing.assert_array_equal(regs[0].phi, [-y[1], -y[0], u[1]])


def test_order_scan_shares_the_comparison_window():
    # noise keeps the over-parameterized cells identifiable; on exactly
    # noiseless data their regressors are collinear and the solve refuses
    rng = np.random.default_rng(3)
    u = rng.uniform(-1, 1, 500)
    y = simulate_arx([-1.2, 0.35], [0.5], u, noise=0.01 * rng.standard_normal(500))
    table = order_scan(u, y, (1, 2, 3), (1, 2, 3))
    assert set(table) == {(na, nb) for na in (1, 2, 3) for nb in (1, 2, 3)}
    # at the true orders the criterion sits on the noise floor, half of 1e-4
    assert table[(2, 1)] < 1e-4
    assert table[(1, 1)] > 10 * table[(2, 1)]
    # richer orders cannot do worse on the same window
    assert table[(3, 3)] <= table[(2, 1)] * (1 + 1e-9)


def test_order_scan_refuses_collinear_noiseless_cells():
    rng = np.random.default_rng(3)
    u = rng.uniform(-1, 1, 500)
    y = simulate_arx([-1.2, 0.35], [0.5], u)
    with pytest.raises(IdentifiabilityError):
        order_scan(u, y, (1, 2, 3), (1, 2, 3))


def test_order_scan_matches_per_row_oracle():
    """Each strided cell equals the per-row regressor path bit for bit."""
    rng = np.random.default_rng(8)
    u = rng.uniform(-1, 1, 700)
    y = simulate_arx([-1.2, 0.35], [0.5, 0.1], u, noise=0.05 * rng.standard_normal(700))
    table = order_scan(u, y, (1, 2, 3), (1, 2, 3))
    for (na, nb), v in table.items():
        _, v_ref = batch_least_squares(_regressors_from(u, y, na, nb, 3))
        assert v == v_ref


def test_order_scan_rejects_non_finite_records():
    rng = np.random.default_rng(9)
    u = rng.uniform(-1, 1, 200)
    y = simulate_arx([-0.7], [0.4], u, noise=0.05 * rng.standard_normal(200))
    bad = u.copy()
    bad[50] = np.nan
    with pytest.raises(ValueError):
        order_scan(bad, y)
    bad = y.copy()
    bad[-1] = np.inf
    with pytest.raises(ValueError):
        order_scan(u, bad)


def test_identifiability_failures():
    u = np.ones(100)  # constant input: lagged copies are collinear
    y = simulate_arx([-0.5], [1.0], u)
    with pytest.raises(IdentifiabilityError):
        batch_least_squares(build_regressors(u, y, 1, 2))
    with pytest.raises(IdentifiabilityError):
        batch_least_squares(build_regressors(u[:4], y[:4], 2, 2))
    with pytest.raises(IdentifiabilityError):
        batch_least_squares([])


def test_recursive_final_estimate_matches_batch():
    """With unit forgetting factors RLS solves the same normal equations."""
    rng = np.random.default_rng(4)
    u = rng.uniform(-1, 1, 200)
    y = simulate_arx([-0.9], [0.3], u, noise=0.05 * rng.standard_normal(200))
    init = initial_adaptation_state(2, gain=1e6)
    run = rls_run(u, y, 1, 1, init)
    theta_b, _ = batch_least_squares(build_regressors(u, y, 1, 1))
    np.testing.assert_allclose(run.final_state.theta_hat, theta_b, rtol=0, atol=1e-6)


def test_rls_step_equations():
    """One step re-derived through the information-form update."""
    rng = np.random.default_rng(5)
    A = rng.standard_normal((3, 3))
    F = A @ A.T + np.eye(3)
    state = AdaptationState(
        theta_hat=rng.standard_normal(3), F=F, lambda1=0.95, lambda2=1.0
    )
    phi = rng.standard_normal(3)
    y_new = 1.7
    new, eps0, eps = rls_step(state, phi, y_new)
    assert eps0 == pytest.approx(y_new - state.theta_hat @ phi)
    assert eps == pytest.approx(eps0 / (1.0 + phi @ F @ phi))
    np.testing.assert_allclose(new.theta_hat, state.theta_hat + F @ phi * eps, rtol=1e-12)
    F_direct = np.linalg.inv(0.95 * np.linalg.inv(F) + 1.0 * np.outer(phi, phi))
    np.testing.assert_allclose(new.F, F_direct, rtol=1e-9)


def test_profile_initializations_and_gain_behaviour():
    rng = np.random.default_rng(6)
    u = rng.uniform(-1, 1, 120)
    y = simulate_arx([-0.8], [0.5], u)

    run_c = rls_run(u, y, 1, 1, initial_adaptation_state(2, profile="constant-gain"))
    for F in run_c.F:
        np.testing.assert_array_equal(F, 1000.0 * np.eye(2))

    run_d = rls_run(u, y, 1, 1, initial_adaptation_state(2, profile="decreasing"))
    traces = np.trace(run_d.F, axis1=1, axis2=2)
    assert np.all(np.diff(traces) <= 1e-9)

    lam0 = 0.97
    run_v = rls_run(u, y, 1, 1, initial_adaptation_state(2, profile="variable-forgetting"))
    t = np.arange(1, len(run_v.lambda1) + 1)
    np.testing.assert_allclose(run_v.lambda1, 1.0 - (1.0 - lam0) * lam0**t, rtol=1e-12)


def test_initial_state_validation():
    with pytest.raises(ValueError):
        initial_adaptation_state(0)
    with pytest.raises(ValueError):
        initial_adaptation_state(2, gain=-1.0)
    with pytest.raises(ValueError):
        initial_adaptation_state(2, profile="nonsense")
    with pytest.raises(ValueError):
        initial_adaptation_state(2, theta0=np.zeros(3))
    with pytest.raises(ValueError):
        AdaptationState(theta_hat=np.zeros(2), F=-np.eye(2))
    with pytest.raises(ValueError):
        AdaptationState(theta_hat=np.zeros(2), F=np.array([[1.0, 0.5], [0.0, 1.0]]))


@settings(max_examples=50, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.lists(st.floats(-3, 3), min_size=2, max_size=2),
            st.floats(-3, 3),
        ),
        min_size=1,
        max_size=20,
    ),
    profile=st.sampled_from(["decreasing", "variable-forgetting"]),
)
def test_gain_matrix_stays_spd(data, profile):
    """F keeps its Riccati-type invariants for arbitrary bounded data."""
    state = initial_adaptation_state(2, profile=profile)
    for phi_list, y_new in data:
        state, eps0, eps = rls_step(state, np.array(phi_list), y_new)
        eigs = np.linalg.eigvalsh(state.F)
        assert eigs[0] > 0.0
        np.testing.assert_allclose(state.F, state.F.T, rtol=0, atol=1e-8 * eigs[-1])
        assert abs(eps) <= abs(eps0) + 1e-12
