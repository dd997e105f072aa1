"""Least-squares identification of ARX models, batch and recursive.

Batch estimation solves the normal equations of

    y(t) = -a1 y(t-1) - ... - a_na y(t-na) + b1 u(t-1) + ... + b_nb u(t-nb)

over regressors starting at max(na, nb).  The recursive form carries a gain
matrix F updated through the matrix inversion lemma under the usual
forgetting-factor weightings; three profiles are supported:

* ``decreasing``          lambda1 = lambda2 = 1 (classic least squares)
* ``constant-gain``       lambda1 = 1, lambda2 = 0 (F never changes)
* ``variable-forgetting`` lambda2 = 1 and lambda1 recursively driven to 1,
  which keeps the early gain high without sacrificing asymptotic accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, IdentifiabilityError

MAX_NORMAL_COND = 1e12

PROFILES = ("decreasing", "constant-gain", "variable-forgetting")


@dataclass(frozen=True)
class Regressor:
    """One regression row: phi holds [-y(t-1) ... -y(t-na), u(t-1) ... u(t-nb)]."""

    phi: np.ndarray
    target: float

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float)
        object.__setattr__(self, "phi", phi)
        if phi.ndim != 1:
            raise ValueError("phi must be 1-D")
        if not (np.all(np.isfinite(phi)) and np.isfinite(self.target)):
            raise ValueError("regressor entries must be finite")


def _as_record(u, y) -> tuple[np.ndarray, np.ndarray]:
    u = np.asarray(u, dtype=float)
    y = np.asarray(y, dtype=float)
    if u.shape != y.shape or u.ndim != 1:
        raise ValueError("u and y must be 1-D of equal length")
    return u, y


def _check_orders(na: int, nb: int) -> None:
    if na < 0 or nb < 1:
        raise ValueError("orders must satisfy na >= 0, nb >= 1")


def _regressors_from(u, y, na: int, nb: int, start: int) -> list[Regressor]:
    u, y = _as_record(u, y)
    _check_orders(na, nb)
    if start < max(na, nb):
        raise ValueError("start must cover the longest lag")
    out = []
    for t in range(start, len(y)):
        phi = np.concatenate([-y[t - na:t][::-1], u[t - nb:t][::-1]])
        out.append(Regressor(phi=phi, target=float(y[t])))
    return out


def build_regressors(u, y, na: int, nb: int) -> list[Regressor]:
    """Regression rows for the data record, first target at t = max(na, nb)."""
    return _regressors_from(u, y, na, nb, max(na, nb))


def _lagged(u: np.ndarray, y: np.ndarray, na: int, nb: int, start: int) -> np.ndarray:
    """Regression matrix of the record from target t = start on, built from
    lagged slices: row t holds [-y(t-1) ... -y(t-na), u(t-1) ... u(t-nb)],
    the floats of the :class:`Regressor` of t."""
    n_rows = max(0, len(y) - start)
    phi = np.empty((n_rows, na + nb))
    if n_rows:
        for i in range(1, na + 1):
            phi[:, i - 1] = -y[start - i:len(y) - i]
        for j in range(1, nb + 1):
            phi[:, na + j - 1] = u[start - j:len(u) - j]
    return phi


def _record_matrix(u, y, na: int, nb: int) -> tuple[np.ndarray, np.ndarray]:
    """(phi, targets) of :func:`build_regressors`, checked as it checks them."""
    u, y = _as_record(u, y)
    _check_orders(na, nb)
    start = max(na, nb)
    phi = _lagged(u, y, na, nb, start)
    tgt = y[start:].copy()
    if not (np.isfinite(phi).all() and np.isfinite(tgt).all()):
        raise ValueError("regressor entries must be finite")
    return phi, tgt


def _stack(regressors: list[Regressor]) -> tuple[np.ndarray, np.ndarray]:
    phi = np.vstack([r.phi for r in regressors])
    tgt = np.array([r.target for r in regressors])
    return phi, tgt


def _solve_normal(phi: np.ndarray, tgt: np.ndarray) -> tuple[np.ndarray, float]:
    """Conditioning check and normal-equation solve of phi theta ~ tgt."""
    n_par = phi.shape[1]
    if phi.shape[0] < n_par:
        raise IdentifiabilityError(
            f"{phi.shape[0]} regressors cannot determine {n_par} parameters"
        )
    gram = phi.T @ phi
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > MAX_NORMAL_COND:
        raise IdentifiabilityError(
            f"normal matrix condition {cond:.3g} exceeds {MAX_NORMAL_COND:.0e}"
        )
    theta = np.linalg.solve(gram, phi.T @ tgt)
    residuals = tgt - phi @ theta
    v = float(np.mean(0.5 * residuals**2))
    return theta, v


def batch_least_squares(regressors: list[Regressor]) -> tuple[np.ndarray, float]:
    """Normal-equation solve; returns (theta_hat, V).

    V is the mean over regressors of half the squared residual.  Raises
    :class:`IdentifiabilityError` when the normal matrix is rank deficient or
    conditioned worse than 1e12.
    """
    if not regressors:
        raise IdentifiabilityError("no regressors")
    return _solve_normal(*_stack(regressors))


def arx_least_squares(u, y, na: int, nb: int) -> tuple[np.ndarray, float]:
    """Batch ARX fit of a data record; returns (theta_hat, V).

    The rows are those of :func:`build_regressors`, built as one lagged data
    matrix, so the result equals ``batch_least_squares(build_regressors(u, y,
    na, nb))`` bit for bit and fails with the same errors.
    """
    phi, tgt = _record_matrix(u, y, na, nb)
    if not len(tgt):
        raise IdentifiabilityError("no regressors")
    return _solve_normal(phi, tgt)


def order_scan(u, y, na_values=(1, 2, 3), nb_values=(1, 2, 3)) -> dict[tuple[int, int], float]:
    """Criterion value per (na, nb) over a window shared by all candidates.

    Every cell starts its regressors at the largest lag scanned, so the V
    values are comparable across orders.  Each cell's regression matrix is
    built from lagged slices of the record; the values equal those of
    :func:`batch_least_squares` on the per-row regressors of that cell.
    """
    na_values = tuple(int(v) for v in na_values)
    nb_values = tuple(int(v) for v in nb_values)
    if not na_values or not nb_values:
        raise ValueError("order ranges must be non-empty")
    _check_orders(min(na_values), min(nb_values))
    u, y = _as_record(u, y)
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(y))):
        raise ValueError("u and y must be finite")
    start = max(max(na_values), max(nb_values))
    tgt = y[start:].copy()
    table: dict[tuple[int, int], float] = {}
    for na in na_values:
        for nb in nb_values:
            _, table[(na, nb)] = _solve_normal(_lagged(u, y, na, nb, start), tgt)
    return table


# ---------------------------------------------------------------------------
# Recursive estimation


@dataclass(frozen=True)
class AdaptationState:
    """Recursive estimator state: parameter vector, gain matrix, forgetting."""

    theta_hat: np.ndarray
    F: np.ndarray
    lambda1: float = 1.0
    lambda2: float = 1.0
    lambda0: float = 0.97
    profile: str = "decreasing"

    def __post_init__(self):
        theta = np.asarray(self.theta_hat, dtype=float)
        F = np.asarray(self.F, dtype=float)
        object.__setattr__(self, "theta_hat", theta)
        object.__setattr__(self, "F", F)
        n = len(theta)
        if F.shape != (n, n):
            raise ValueError("F must be square and match theta_hat")
        if not np.allclose(F, F.T, rtol=0, atol=1e-8 * max(1.0, float(np.abs(F).max()))):
            raise ValueError("F must be symmetric")
        if len(theta) and np.linalg.eigvalsh(F)[0] <= 0:
            raise ValueError("F must be positive definite")
        if not (0.0 < self.lambda1 <= 1.0):
            raise ValueError("lambda1 must be in (0, 1]")
        if not (0.0 <= self.lambda2 < 2.0):
            raise ValueError("lambda2 must be in [0, 2)")
        if not (0.0 < self.lambda0 <= 1.0):
            raise ValueError("lambda0 must be in (0, 1]")
        if self.profile not in PROFILES:
            raise ValueError(f"profile must be one of {PROFILES}")


def initial_adaptation_state(
    n_params: int,
    gain: float = 1000.0,
    profile: str = "decreasing",
    lambda0: float = 0.97,
    theta0: np.ndarray | None = None,
) -> AdaptationState:
    """Fresh estimator state with F = gain * I.

    The default gain corresponds to the usual low-confidence initialization
    F(0) = (1/delta) I with delta = 1e-3.
    """
    if n_params < 1:
        raise ValueError("n_params must be >= 1")
    if gain <= 0:
        raise ValueError("gain must be > 0")
    theta = np.zeros(n_params) if theta0 is None else np.asarray(theta0, dtype=float).copy()
    if len(theta) != n_params:
        raise ValueError("theta0 length mismatch")
    if profile == "variable-forgetting":
        lam1 = lambda0
        lam2 = 1.0
    elif profile == "constant-gain":
        lam1, lam2 = 1.0, 0.0
    elif profile == "decreasing":
        lam1, lam2 = 1.0, 1.0
    else:
        raise ValueError(f"profile must be one of {PROFILES}")
    return AdaptationState(
        theta_hat=theta,
        F=gain * np.eye(n_params),
        lambda1=lam1,
        lambda2=lam2,
        lambda0=lambda0,
        profile=profile,
    )


def _successor(
    state: AdaptationState, theta: np.ndarray, F: np.ndarray, lambda1: float
) -> AdaptationState:
    """State after one update, without the constructor's validation.

    Only the checks a successor can fail run here: the shape is that of
    `state`, F comes out bitwise symmetric and lambda0, lambda2 and the
    profile are copied.  Finiteness is checked by the caller.
    """
    if len(theta) and np.linalg.eigvalsh(F)[0] <= 0:
        raise DivergenceError(
            "recursive estimator diverged: gain matrix F lost positive definiteness"
        )
    if not 0.0 < lambda1 <= 1.0:
        raise DivergenceError(f"recursive estimator diverged: lambda1 = {lambda1!r} left (0, 1]")
    new = object.__new__(AdaptationState)
    object.__setattr__(new, "theta_hat", theta)
    object.__setattr__(new, "F", F)
    object.__setattr__(new, "lambda1", lambda1)
    object.__setattr__(new, "lambda2", state.lambda2)
    object.__setattr__(new, "lambda0", state.lambda0)
    object.__setattr__(new, "profile", state.profile)
    return new


def rls_step(
    state: AdaptationState, phi: np.ndarray, y_new: float
) -> tuple[AdaptationState, float, float]:
    """One recursive update; returns (new state, a priori, a posteriori error).

    The a priori error is y - theta_hat' phi; the a posteriori error divides
    it by 1 + phi' F phi, and the parameter step is F phi times the a
    posteriori error.  F then shrinks through the matrix-inversion-lemma form
    of  F_new^-1 = lambda1 F^-1 + lambda2 phi phi'.

    The successor is built without rerunning the :class:`AdaptationState`
    validation, which the input state has passed.  What an update can break
    raises :class:`DivergenceError`: a new estimate or F that is not finite,
    an F that is no longer positive definite, or lambda1 outside (0, 1].
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != state.theta_hat.shape:
        raise ValueError("phi must match theta_hat")
    if not (np.all(np.isfinite(phi)) and np.isfinite(y_new)):
        raise ValueError("phi and y_new must be finite")

    F = state.F
    lam1, lam2 = state.lambda1, state.lambda2
    # Overflow and invalid values surface as the divergence error below.
    with np.errstate(over="ignore", invalid="ignore"):
        f_phi = F @ phi
        quad = float(phi @ f_phi)
        eps0 = float(y_new) - float(state.theta_hat @ phi)
        eps = eps0 / (1.0 + quad)
        theta_new = state.theta_hat + f_phi * eps
        if lam2 == 0.0:
            F_new = F / lam1
        else:
            F_new = (F - np.outer(f_phi, f_phi) / (lam1 / lam2 + quad)) / lam1
        F_new = 0.5 * (F_new + F_new.T)
        # theta' F theta is not finite whenever any entry of either is (inf * 0 is NaN).
        finite = math.isfinite(F_new.dot(theta_new).dot(theta_new))
    if not finite:
        raise DivergenceError(
            "recursive estimator diverged: parameter estimate or gain matrix F is not finite"
        )

    lam1_next = state.lambda0 * lam1 + 1.0 - state.lambda0 if state.profile == "variable-forgetting" else lam1
    return _successor(state, theta_new, F_new, lam1_next), eps0, eps


@dataclass(frozen=True)
class RlsRun:
    """Trajectories from a recursive identification pass."""

    theta: np.ndarray  # (T, n)
    F: np.ndarray  # (T, n, n)
    lambda1: np.ndarray  # (T,)
    eps_apriori: np.ndarray
    eps_aposteriori: np.ndarray
    final_state: AdaptationState


def rls_run(u, y, na: int, nb: int, init: AdaptationState) -> RlsRun:
    """Feed the data record's regressors through :func:`rls_step` in order."""
    phi, tgt = _record_matrix(u, y, na, nb)
    n = na + nb
    if len(init.theta_hat) != n:
        raise ValueError("init state dimension must equal na + nb")
    T = len(tgt)
    theta = np.empty((T, n))
    F = np.empty((T, n, n))
    lam1 = np.empty(T)
    e0 = np.empty(T)
    e1 = np.empty(T)
    state = init
    for i, (row, target) in enumerate(zip(phi, tgt.tolist())):
        state, eps0, eps = rls_step(state, row, target)
        theta[i] = state.theta_hat
        F[i] = state.F
        lam1[i] = state.lambda1
        e0[i] = eps0
        e1[i] = eps
    return RlsRun(theta, F, lam1, e0, e1, state)
