import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valvebench.errors import DivergenceError, IdentifiabilityError, ValveBenchError
from valvebench.ident import (
    AdaptationState,
    _regressors_from,
    arx_least_squares,
    batch_least_squares,
    build_regressors,
    initial_adaptation_state,
    order_scan,
    _dot,
    _rls_kernel,
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


def _outcome(fn, *args):
    """fn's result, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (ValueError, ValveBenchError) as err:
        return type(err), str(err)


def _fit_oracle(u, y, na, nb):
    return batch_least_squares(build_regressors(u, y, na, nb))


def _assert_same_fit(u, y, na, nb):
    got = _outcome(arx_least_squares, u, y, na, nb)
    ref = _outcome(_fit_oracle, u, y, na, nb)
    if isinstance(ref[0], type):
        assert got == ref
    else:
        assert np.array_equal(got[0], ref[0]) and got[1] == ref[1]
    return ref


def _record(seed, n, kind):
    """A random ARX record; kind "constant" holds u fixed (collinear lags),
    "nan_u"/"nan_y" plant one NaN anywhere in the record."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1, 1, n)
    if kind == "constant":
        u[:] = 0.7
    y = simulate_arx([-0.8, 0.15], [0.5, -0.2], u, noise=0.05 * rng.standard_normal(n))
    if n and kind in ("nan_u", "nan_y"):
        (u if kind == "nan_u" else y)[rng.integers(n)] = np.nan
    return u, y


@settings(max_examples=150, deadline=None)
@given(
    na=st.integers(0, 3),
    nb=st.integers(1, 3),
    n=st.one_of(st.integers(0, 12), st.integers(8, 400)),
    kind=st.sampled_from(["random", "random", "constant", "nan_u", "nan_y"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_arx_least_squares_matches_per_row_fit(na, nb, n, kind, seed):
    """The lagged-matrix fit equals the per-Regressor fit bit for bit, and
    fails where it fails with the same error."""
    _assert_same_fit(*_record(seed, n, kind), na, nb)


def test_arx_least_squares_failures_match_per_row_fit():
    u, y = _record(11, 200, "random")
    cases = [
        (u[:0], y[:0], IdentifiabilityError, "no regressors"),
        (u[:4], y[:4], IdentifiabilityError, "cannot determine"),
        (*_record(11, 200, "constant"), IdentifiabilityError, "condition"),
        (np.where(np.arange(200) == 50, np.nan, u), y, ValueError, "must be finite"),
        (u, np.where(np.arange(200) == 5, np.nan, y), ValueError, "must be finite"),
    ]
    for u_c, y_c, kind, text in cases:
        err_type, message = _assert_same_fit(u_c, y_c, 2, 3)
        assert err_type is kind and text in message
    with pytest.raises(ValueError, match="orders"):
        arx_least_squares(u, y, 1, 0)


def _rls_run_oracle(u, y, na, nb, init):
    """rls_run as a loop over per-row Regressor objects."""
    state = init
    steps = []
    for reg in build_regressors(u, y, na, nb):
        state, eps0, eps = rls_step(state, reg.phi, reg.target)
        steps.append((state, eps0, eps))
    return steps


@settings(max_examples=60, deadline=None)
@given(
    na=st.integers(1, 3),
    nb=st.integers(1, 3),
    n=st.integers(0, 150),
    profile=st.sampled_from(["decreasing", "constant-gain", "variable-forgetting"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_rls_run_matches_per_regressor_loop(na, nb, n, profile, seed):
    u, y = _record(seed, n, "random")
    init = initial_adaptation_state(na + nb, profile=profile)
    run = rls_run(u, y, na, nb, init)
    steps = _rls_run_oracle(u, y, na, nb, init)
    assert len(run.theta) == len(steps)
    for i, (state, eps0, eps) in enumerate(steps):
        assert np.array_equal(run.theta[i], state.theta_hat)
        assert np.array_equal(run.F[i], state.F)
        assert run.lambda1[i] == state.lambda1
        assert (run.eps_apriori[i], run.eps_aposteriori[i]) == (eps0, eps)


def test_rls_run_validation():
    u, y = _record(12, 50, "random")
    with pytest.raises(ValueError, match="init state dimension"):
        rls_run(u, y, 1, 1, initial_adaptation_state(3))
    y[10] = np.inf
    with pytest.raises(ValueError, match="regressor entries must be finite"):
        rls_run(u, y, 1, 1, initial_adaptation_state(2))


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


def _rls_step_oracle(state, phi, y_new):
    """The update with its successor rebuilt through the validating
    constructor (``dataclasses.replace``)."""
    phi = np.asarray(phi, dtype=float)
    F = state.F
    f_phi = F @ phi
    quad = float(phi @ f_phi)
    eps0 = float(y_new) - float(state.theta_hat @ phi)
    eps = eps0 / (1.0 + quad)
    theta_new = state.theta_hat + f_phi * eps
    lam1, lam2 = state.lambda1, state.lambda2
    if lam2 == 0.0:
        F_new = F / lam1
    else:
        F_new = (F - np.outer(f_phi, f_phi) / (lam1 / lam2 + quad)) / lam1
    F_new = 0.5 * (F_new + F_new.T)
    if state.profile == "variable-forgetting":
        lam1 = state.lambda0 * lam1 + 1.0 - state.lambda0
    return dataclasses.replace(state, theta_hat=theta_new, F=F_new, lambda1=lam1), eps0, eps


def _rls_step_numpy(theta, F, lambda1, lambda2, lambda0, profile, phi, y_new):
    """The numpy body of rls_step before its Python-float kernel, with its
    checks; the arguments are those of the kernel, as arrays.  Returns
    (theta, F, lambda1, eps0, eps)."""
    phi = np.asarray(phi, dtype=float)
    if not (np.all(np.isfinite(phi)) and np.isfinite(y_new)):
        raise ValueError("phi and y_new must be finite")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f_phi = F @ phi
        quad = float(phi @ f_phi)
        eps0 = float(y_new) - float(theta @ phi)
        eps = eps0 / (1.0 + quad)
        theta_new = theta + f_phi * eps
        if lambda2 == 0.0:
            F_new = F / lambda1
        else:
            F_new = (F - np.outer(f_phi, f_phi) / (lambda1 / lambda2 + quad)) / lambda1
        F_new = 0.5 * (F_new + F_new.T)
        finite = math.isfinite(F_new.dot(theta_new).dot(theta_new))
    if not finite:
        raise DivergenceError(
            "recursive estimator diverged: parameter estimate or gain matrix F is not finite"
        )
    if len(theta) and np.linalg.eigvalsh(F_new)[0] <= 0:
        raise DivergenceError(
            "recursive estimator diverged: gain matrix F lost positive definiteness"
        )
    if profile == "variable-forgetting":
        lambda1 = lambda0 * lambda1 + 1.0 - lambda0
    if not 0.0 < lambda1 <= 1.0:
        raise DivergenceError(f"recursive estimator diverged: lambda1 = {lambda1!r} left (0, 1]")
    return theta_new, F_new, lambda1, eps0, eps


def _positive_definite_oracle(F) -> bool:
    """Sylvester's criterion through the pivots of Gaussian elimination
    without pivoting, as a loop over the rows."""
    rows = [list(row) for row in F]
    for k, pivot_row in enumerate(rows):
        pivot = pivot_row[k]
        if not pivot > 0.0:
            return False
        for row in rows[k + 1:]:
            m = row[k] / pivot
            for j in range(k + 1, len(row)):
                row[j] -= m * pivot_row[j]
    return True


def _rls_update_oracle(theta, F, lambda1, lambda2, lambda0, profile, phi, y_new):
    """The recursive update as loops over lists, each sum through _dot: the
    bit-for-bit reference of the generated kernel (_rls_kernel), with its
    arguments, results and errors."""
    if not (all(map(math.isfinite, phi)) and math.isfinite(y_new)):
        raise ValueError("phi and y_new must be finite")
    try:
        f_phi = [_dot(row, phi) for row in F]
        quad = _dot(phi, f_phi)
        eps0 = y_new - _dot(theta, phi)
        eps = eps0 / (1.0 + quad)
        theta_new = [t + f * eps for t, f in zip(theta, f_phi)]
        denom = lambda1 / lambda2 + quad if lambda2 != 0.0 else None
        n = len(F)
        F_new = [[0.0] * n for _ in range(n)]
        for i, fi in enumerate(f_phi):
            for j in range(i, n):
                if denom is None:
                    x, y = F[i][j] / lambda1, F[j][i] / lambda1
                else:
                    fj = f_phi[j]
                    x = (F[i][j] - fi * fj / denom) / lambda1
                    y = (F[j][i] - fj * fi / denom) / lambda1
                F_new[i][j] = F_new[j][i] = 0.5 * (x + y)
        finite = math.isfinite(_dot([_dot(row, theta_new) for row in F_new], theta_new))
    except ZeroDivisionError:
        finite = False
    if not finite:
        raise DivergenceError(
            "recursive estimator diverged: parameter estimate or gain matrix F is not finite"
        )
    if not _positive_definite_oracle(F_new):
        raise DivergenceError(
            "recursive estimator diverged: gain matrix F lost positive definiteness"
        )
    if profile == "variable-forgetting":
        lambda1 = lambda0 * lambda1 + 1.0 - lambda0
    if not 0.0 < lambda1 <= 1.0:
        raise DivergenceError(f"recursive estimator diverged: lambda1 = {lambda1!r} left (0, 1]")
    return theta_new, F_new, lambda1, eps0, eps


def _rls_update(theta, F, *args):
    """The generated kernel of theta's dimension, called as rls_step calls it."""
    return _rls_kernel(len(theta))(theta, F, *args)


def _assert_update_agrees(got, want, state, phi, y_new):
    """`got` is (successor, eps0, eps) of one update of `state` by rls_step,
    `want` the (theta, F, lambda1, eps0, eps) of _rls_step_numpy.

    At n = 1 the kernel and numpy form every sum in the same order, so all
    values are equal bit for bit.  Otherwise each value agrees within rel
    1e-12 of the magnitude of the terms it is formed from: F - F phi phi' F
    / (lambda1 / lambda2 + phi' F phi) can cancel far below its terms, and
    then carries their rounding, not its own.
    """
    (new, eps0, eps), (ref_theta, ref_F, ref_lambda1, ref_eps0, ref_eps) = got, want
    assert new.lambda1 == ref_lambda1
    if len(phi) == 1:
        assert np.array_equal(new.theta_hat, ref_theta)
        assert np.array_equal(new.F, ref_F)
        assert (eps0, eps) == (ref_eps0, ref_eps)
        return
    F, theta = state.F, state.theta_hat
    g = np.abs(F) @ np.abs(phi)  # bounds |F phi| term by term
    quad = float(phi @ F @ phi)
    s_eps0 = abs(y_new) + np.abs(theta) @ np.abs(phi)
    s_eps = (s_eps0 + abs(ref_eps) * (np.abs(phi) @ g)) / (1.0 + quad)
    s_theta = np.abs(theta) + g * (abs(ref_eps) + s_eps)
    if state.lambda2 == 0.0:
        s_F = np.abs(F) / state.lambda1
    else:
        denom = state.lambda1 / state.lambda2 + quad
        s_F = (np.abs(F) + np.outer(g, g) / denom) / state.lambda1
    assert abs(eps0 - ref_eps0) <= 1e-12 * s_eps0
    assert abs(eps - ref_eps) <= 1e-12 * s_eps
    assert np.all(np.abs(new.theta_hat - ref_theta) <= 1e-12 * s_theta)
    assert np.all(np.abs(new.F - ref_F) <= 1e-12 * s_F)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 4),
    gain=st.sampled_from([1.0, 1000.0, 1e6]),
    lambda0=st.floats(0.5, 1.0),
    profile=st.sampled_from(["decreasing", "constant-gain", "variable-forgetting"]),
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(1, 60),
)
def test_rls_successors_match_validating_oracle(n, gain, lambda0, profile, seed, steps):
    """The Python-float kernel behind rls_step against its numpy body, step
    by step from the same state (see _assert_update_agrees); each successor
    passes the public constructor's validation."""
    rng = np.random.default_rng(seed)
    state = initial_adaptation_state(
        n, gain=gain, profile=profile, lambda0=lambda0, theta0=rng.standard_normal(n)
    )
    for _ in range(steps):
        phi = rng.uniform(-3, 3, n)
        y_new = float(rng.uniform(-3, 3))
        got = rls_step(state, phi, y_new)
        ref = _rls_step_numpy(
            state.theta_hat, state.F, state.lambda1, state.lambda2, state.lambda0,
            state.profile, phi, y_new,
        )
        _assert_update_agrees(got, ref, state, phi, y_new)
        assert (got[0].lambda2, got[0].lambda0, got[0].profile) == (
            state.lambda2, state.lambda0, state.profile
        )
        state = got[0]
        AdaptationState(
            theta_hat=state.theta_hat,
            F=state.F,
            lambda1=state.lambda1,
            lambda2=state.lambda2,
            lambda0=state.lambda0,
            profile=state.profile,
        )


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 4),
    profile=st.sampled_from(["decreasing", "constant-gain", "variable-forgetting"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_rls_step_takes_a_list_regressor_as_it_takes_an_array(n, profile, seed):
    """A list phi, as the closed-loop predictor passes it, gives the
    successor of the same phi as an array, bit for bit, and the successor
    carries the fields the constructor sets."""
    rng = np.random.default_rng(seed)
    state = initial_adaptation_state(
        n, gain=1000.0, profile=profile, theta0=rng.standard_normal(n)
    )
    for _ in range(20):
        phi = rng.uniform(-3, 3, n)
        y_new = float(rng.uniform(-3, 3))
        from_list = rls_step(state, phi.tolist(), y_new)
        from_array = rls_step(state, phi, y_new)
        assert from_list[1:] == from_array[1:]
        new, ref = from_list[0], from_array[0]
        new.theta_hat, new.F  # a successor builds its arrays on first read
        assert vars(new).keys() == vars(state).keys()
        for name in ("theta_hat", "F"):
            got, want = getattr(new, name), getattr(ref, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes() and got.flags.writeable
        assert (new.lambda1, new.lambda2, new.lambda0, new.profile) == (
            ref.lambda1, ref.lambda2, ref.lambda0, ref.profile
        )
        state = ref


@pytest.mark.parametrize(
    "phi, y_new, message",
    [
        ([1.0], 1.0, "phi must match theta_hat"),
        ([1.0, 2.0, 3.0], 1.0, "phi must match theta_hat"),
        ([1.0, np.nan], 1.0, "phi and y_new must be finite"),
        ([np.inf, 1.0], 1.0, "phi and y_new must be finite"),
        ([1.0, 2.0], np.nan, "phi and y_new must be finite"),
    ],
)
def test_rls_step_list_and_array_regressors_fail_alike(phi, y_new, message):
    state = initial_adaptation_state(2)
    for form in (list(phi), np.array(phi)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            rls_step(state, form, y_new)


def test_rls_step_loss_of_positive_definiteness_is_divergence():
    """A gain of 1e14 against a regressor of norm 1e4 cancels F to an
    indefinite matrix; the validating constructor rejects it as well."""
    state = initial_adaptation_state(2, gain=1e14)
    phi = np.array([1e4, 1e4])
    with pytest.raises(DivergenceError, match="positive definiteness"):
        rls_step(state, phi, 1.0)
    with pytest.raises(ValueError, match="positive definite"):
        _rls_step_oracle(state, phi, 1.0)


@pytest.mark.parametrize(
    "theta, F, lambda1, lambda0, profile, phi, y_new",
    [
        ([0.0, 0.0], [[1e14, 0.0], [0.0, 1e14]], 1.0, 0.97, "decreasing", [1e4, 1e4], 1.0),
        ([0.0, 0.0], [[1e300, 0.0], [0.0, 1e300]], 1.0, 0.97, "decreasing", [1e4, 1e4], 1.0),
        ([0.5], [[-0.5]], 0.5, 0.97, "decreasing", [1.0], 1.0),  # lambda1/lambda2 + phi' F phi = 0
        ([0.5], [[2.0]], 0.9, -1.0, "variable-forgetting", [1.0], 1.0),  # lambda1 -> 1.9
        ([0.5, 0.1], [[2.0, 0.0], [0.0, 2.0]], 1.0, 0.97, "decreasing", [1.0, np.nan], 1.0),
        ([0.5], [[2.0]], 1.0, 0.97, "decreasing", [1.0], np.inf),
    ],
)
def test_rls_kernel_errors_match_numpy_body(theta, F, lambda1, lambda0, profile, phi, y_new):
    """Each failure of the kernel, fed states no constructor would pass,
    raises the numpy body's error type and message."""
    def outcome(fn, *args):
        try:
            fn(*args)
        except (DivergenceError, ValueError) as err:
            return type(err), str(err)
        return None

    got = outcome(_rls_update, theta, F, lambda1, 1.0, lambda0, profile, phi, y_new)
    want = outcome(_rls_step_numpy, np.array(theta), np.array(F), lambda1, 1.0, lambda0,
                   profile, np.array(phi), y_new)
    assert want is not None and got == want
    assert got == outcome(_rls_update_oracle, theta, F, lambda1, 1.0, lambda0, profile, phi, y_new)


def test_rls_kernel_zero_innovation_denominator_is_divergence():
    """1 + phi' F phi = 0, which the numpy body let escape as a
    ZeroDivisionError, is the not-finite divergence."""
    args = ([0.5], [[-1.0]], 1.0, 1.0, 0.97, "decreasing", [1.0], 1.0)
    with pytest.raises(DivergenceError, match="not finite"):
        _rls_update(*args)
    with pytest.raises(DivergenceError, match="not finite"):
        _rls_update_oracle(*args)


def _bits(value):
    """A result of the update with every float as its bytes, so that -0.0
    and 0.0 (or two NaNs) compare as their bits do."""
    if isinstance(value, float):
        return value.hex() if math.isfinite(value) else repr(value)
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    return value


def _update_outcome(fn, *args):
    try:
        return _bits(fn(*args))
    except (DivergenceError, ValueError) as err:
        return type(err), str(err)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 6),
    profile=st.sampled_from(["decreasing", "constant-gain", "variable-forgetting"]),
    kind=st.sampled_from(
        ["spd", "ill-conditioned", "indefinite", "overflow", "zero-denominator",
         "lambda1-out", "signed-zero"]
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_rls_kernel_matches_loop_oracle(n, profile, kind, seed):
    """The generated kernel against the loop update it replaces, bit for bit:
    the same successor theta, F and lambda1, the same errors, or the same
    error type and message.  The kinds of draw reach every error of the
    update: F losing definiteness, a non-finite F, a zero denominator and
    lambda1 leaving (0, 1]."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** {"ill-conditioned": rng.uniform(-3, 14), "overflow": 300.0}.get(
        kind, rng.uniform(-3, 4)
    )
    A = rng.standard_normal((n, n))
    F = (A @ A.T + 1e-3 * np.eye(n)) * scale
    if kind == "indefinite":
        F = (A + A.T) * scale
    theta = rng.standard_normal(n) * 10.0 ** rng.uniform(-2, 3)
    phi = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 5)
    y_new = float(rng.standard_normal() * 10.0 ** rng.uniform(-2, 3))
    lambda1 = float(rng.uniform(0.05, 1.0))
    lambda0 = float(rng.uniform(0.5, 1.0))
    if kind == "signed-zero":
        phi[rng.integers(n)] = -0.0
        theta[rng.integers(n)] = -0.0
        y_new = -0.0
    elif kind == "zero-denominator":  # phi' F phi = -1, so 1 + phi' F phi = 0
        phi = np.eye(n)[rng.integers(n)]
        F = -np.eye(n)
    elif kind == "lambda1-out":
        lambda0 = -1.0
    lambda2 = 0.0 if profile == "constant-gain" else 1.0
    args = (theta.tolist(), F.tolist(), lambda1, lambda2, lambda0, profile, phi.tolist(), y_new)
    assert _update_outcome(_rls_kernel(n), *args) == _update_outcome(_rls_update_oracle, *args)


def test_rls_kernel_is_built_once_per_dimension():
    """rls_step and rls_run share one compiled kernel per dimension: a
    second update of the same n reuses it."""
    state = initial_adaptation_state(5)
    phi = [0.1, -0.2, 0.3, 0.4, -0.5]
    state, _, _ = rls_step(state, phi, 1.0)
    kernel = _rls_kernel(5)
    misses = _rls_kernel.cache_info().misses
    rls_step(state, phi, 2.0)
    u, y = _record(3, 40, "random")
    rls_run(u, y, 2, 3, initial_adaptation_state(5))
    assert _rls_kernel.cache_info().misses == misses
    assert _rls_kernel(5) is kernel


def _successor(n=3, seed=4):
    """An unread rls_step successor, with the kernel's own output."""
    rng = np.random.default_rng(seed)
    state = initial_adaptation_state(n, gain=50.0, profile="variable-forgetting",
                                     theta0=rng.standard_normal(n))
    phi, y_new = rng.uniform(-3, 3, n).tolist(), float(rng.uniform(-3, 3))
    out = _rls_kernel(n)(state.theta_hat.tolist(), state.F.tolist(), state.lambda1,
                         state.lambda2, state.lambda0, state.profile, phi, y_new)
    new, _, _ = rls_step(state, phi, y_new)
    return new, out


def _assert_same_state(got, want):
    for name in ("theta_hat", "F"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert a.flags.writeable
    assert (got.lambda1, got.lambda2, got.lambda0, got.profile) == (
        want.lambda1, want.lambda2, want.lambda0, want.profile
    )
    assert vars(got).keys() == vars(want).keys()


@pytest.mark.parametrize(
    "view",
    [
        lambda s: s,
        lambda s: pickle.loads(pickle.dumps(s)),
        copy.copy,
        copy.deepcopy,
        lambda s: dataclasses.replace(s),
    ],
    ids=["as-built", "pickle", "copy", "deepcopy", "replace"],
)
def test_successor_builds_its_arrays_on_first_read(view):
    """A successor holds the kernel's lists until theta_hat or F is read;
    then it builds both arrays, drops both lists, and is the constructor's
    state.  A pickle, a copy or a replace of the unread successor is too."""
    new, (theta, F, lambda1, _, _) = _successor()
    assert vars(new)["_theta"] == theta and vars(new)["_F"] == F
    assert {"theta_hat", "F"}.isdisjoint(vars(new))
    assert new._theta_list() is vars(new)["_theta"]
    got = view(new)
    ref = AdaptationState(np.array(theta), np.array(F), lambda1, new.lambda2, new.lambda0,
                          new.profile)
    _assert_same_state(got, ref)
    assert "_theta" not in vars(got) and "_F" not in vars(got)
    _assert_same_state(new, ref)
    if got is not new:  # each holds arrays of its own
        assert not np.shares_memory(got.theta_hat, new.theta_hat)
        assert not np.shares_memory(got.F, new.F)


def test_constructed_and_replaced_states_share_no_arrays():
    """The constructor copies theta_hat and F, so a write into a replaced
    state's arrays, or into the arrays a caller passed, leaves the other
    state alone."""
    theta, F = np.array([0.1, -0.2]), np.eye(2)
    state = AdaptationState(theta, F)
    theta[0], F[0, 1] = 9.0, 9.0
    assert state.theta_hat.tolist() == [0.1, -0.2] and state.F.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    replaced = dataclasses.replace(state, lambda1=0.5)
    replaced.theta_hat[1] = 7.0
    replaced.F[1, 1] = 7.0
    assert state.theta_hat.tolist() == [0.1, -0.2] and state.F.tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_successor_arrays_are_the_only_copy_once_read():
    """A write into the read arrays is what the next update and the list
    reader see: no stale list is left behind."""
    new, _ = _successor()
    new.theta_hat[0] = 0.5
    new.F[1, 1] *= 2.0
    assert new._theta_list() == new.theta_hat.tolist()
    phi = [0.3, -0.1, 0.2]
    fresh = AdaptationState(new.theta_hat.copy(), new.F.copy(), new.lambda1, new.lambda2,
                            new.lambda0, new.profile)
    got, want = rls_step(new, phi, 1.0), rls_step(fresh, phi, 1.0)
    assert got[1:] == want[1:]
    _assert_same_state(got[0], want[0])


def test_rls_kernel_leaves_its_input_lists_alone():
    """A successor's lists go to the next update as they are, and the list
    reader hands the estimate out: the kernel must not change them."""
    new, _ = _successor()
    theta, F = vars(new)["_theta"], vars(new)["_F"]
    before = copy.deepcopy((theta, F))
    phi = [0.3, -0.1, 0.2]
    nxt, _, _ = rls_step(new, phi, 1.0)
    assert (theta, F) == before and phi == [0.3, -0.1, 0.2]
    assert vars(nxt)["_theta"] is not theta and vars(nxt)["_F"] is not F


def test_state_reads_of_unknown_names_fail_as_attribute_errors():
    new, _ = _successor()
    for name in ("missing", "__setstate__", "_theta_x"):
        with pytest.raises(AttributeError, match=name):
            getattr(new, name)
    bare = object.__new__(AdaptationState)  # as an unpickler first sees it
    with pytest.raises(AttributeError, match="'theta_hat'"):
        bare.theta_hat
