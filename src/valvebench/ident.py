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

from dataclasses import dataclass

import numpy as np

from ._kernels import kernel as _kernel, rls_source as _rls_source
from .errors import IdentifiabilityError

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
    """Recursive estimator state: parameter vector, gain matrix, forgetting.

    A successor that :func:`rls_step` or :func:`rls_run` builds
    (:meth:`_updated`) holds the update kernel's lists of theta and F in
    private entries, `_theta` and `_F`, and no arrays.  The first read of
    `theta_hat` or `F` builds both arrays and drops both lists, so the
    arrays are public, writeable and the only copy of the state.  Until then
    the next update takes the lists as they are, and the estimate is read as
    a list (:meth:`_theta_list`) without an array built per sample.
    """

    theta_hat: np.ndarray
    F: np.ndarray
    lambda1: float = 1.0
    lambda2: float = 1.0
    lambda0: float = 0.97
    profile: str = "decreasing"

    def __post_init__(self):
        # Copies: the state shares no memory with a caller's arrays or with
        # the source of a dataclasses.replace.
        theta = np.array(self.theta_hat, dtype=float)
        F = np.array(self.F, dtype=float)
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

    def __getattr__(self, name):
        # Reached only for a name missing from the instance dict: the arrays
        # of a successor, on their first read.
        d = self.__dict__
        if name in ("theta_hat", "F") and "_theta" in d:
            d["theta_hat"] = np.array(d.pop("_theta"), dtype=float)
            d["F"] = np.array(d.pop("_F"), dtype=float)
            return d[name]
        raise AttributeError(f"'AdaptationState' object has no attribute {name!r}")

    def _theta_list(self) -> list[float]:
        """The estimate as a list of floats, for reading only: the successor's
        own list while its arrays are unbuilt."""
        d = self.__dict__
        return d["_theta"] if "_theta" in d else self.theta_hat.tolist()

    def _updated(self, theta: list, F: list, lambda1: float) -> "AdaptationState":
        """This state with a new estimate, gain matrix and lambda1, built
        without the constructor's validation: the update that produced them
        (:func:`valvebench._kernels.rls_source`) has checked what it can
        break, and lambda2, lambda0 and the profile are copied.  The instance
        dict is a copy of this state's with three entries replaced: the lists
        of theta and of F's rows, which no one mutates, and lambda1; a state
        with arrays leaves them out, and the arrays are built from the lists
        on first read."""
        new = object.__new__(AdaptationState)
        d = new.__dict__
        d |= self.__dict__
        if "theta_hat" in d:
            del d["theta_hat"], d["F"]
        d["_theta"] = theta
        d["_F"] = F
        d["lambda1"] = lambda1
        return new


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


def _dot(x, y) -> float:
    """Sum of x[i] y[i] over Python floats, accumulated in index order."""
    acc = 0.0
    for a, b in zip(x, y):
        acc += a * b
    return acc


def rls_step(
    state: AdaptationState, phi: np.ndarray, y_new: float
) -> tuple[AdaptationState, float, float]:
    """One recursive update; returns (new state, a priori, a posteriori error).

    The a priori error is y - theta_hat' phi; the a posteriori error divides
    it by 1 + phi' F phi, and the parameter step is F phi times the a
    posteriori error.  F then shrinks through the matrix-inversion-lemma form
    of  F_new^-1 = lambda1 F^-1 + lambda2 phi phi'.

    The arithmetic runs on Python floats, in the kernel generated for the
    dimension (:func:`valvebench._kernels.rls_source`), each sum formed as
    :func:`_dot` forms it; :func:`rls_run` calls the same kernel directly.
    A successor's lists go to the kernel as they are; a state with arrays
    is converted.  The successor holds the kernel's lists and is
    built without rerunning the :class:`AdaptationState` validation, which
    the input state has passed.  A list phi, the closed-loop predictor's
    regressor, is taken as it is, and the kernel checks its length; its
    entries must be real numbers.  What an update can break raises
    :class:`~valvebench.errors.DivergenceError`: a new estimate or F that is not finite, an F
    that is no longer positive definite (a Cholesky pivot at or below zero),
    or lambda1 outside (0, 1].
    """
    d = state.__dict__
    if "_theta" in d:
        theta, F = d["_theta"], d["_F"]
    else:
        theta, F = state.theta_hat.tolist(), state.F.tolist()
    if type(phi) is not list:
        phi = np.asarray(phi, dtype=float)
        if phi.shape != (len(theta),):
            raise ValueError("phi must match theta_hat")
        phi = phi.tolist()
    theta, F, lambda1, eps0, eps = _kernel(_rls_source, len(theta))(
        theta, F, state.lambda1, state.lambda2, state.lambda0, state.profile, phi, float(y_new)
    )
    return state._updated(theta, F, lambda1), eps0, eps


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
    """Feed the data record's regressors through the update of
    :func:`rls_step` in order, on Python floats; the arrays and the final
    state are built once, at the end."""
    phi, tgt = _record_matrix(u, y, na, nb)
    n = na + nb
    if len(init.theta_hat) != n:
        raise ValueError("init state dimension must equal na + nb")
    theta, F, lam1 = init.theta_hat.tolist(), init.F.tolist(), init.lambda1
    thetas, Fs, lam1s, e0, e1 = [], [], [], [], []
    update = _kernel(_rls_source, n)
    for row, target in zip(phi.tolist(), tgt.tolist()):
        theta, F, lam1, eps0, eps = update(
            theta, F, lam1, init.lambda2, init.lambda0, init.profile, row, target
        )
        thetas.append(theta)
        Fs.append(F)
        lam1s.append(lam1)
        e0.append(eps0)
        e1.append(eps)
    T = len(thetas)
    return RlsRun(
        theta=np.array(thetas, dtype=float).reshape(T, n),
        F=np.array(Fs, dtype=float).reshape(T, n, n),
        lambda1=np.array(lam1s, dtype=float),
        eps_apriori=np.array(e0, dtype=float),
        eps_aposteriori=np.array(e1, dtype=float),
        final_state=init._updated(theta, F, lam1),
    )
