"""Closed-loop output-error identification.

When a plant must stay under feedback during identification, regressing on
measured signals biases least squares: the controller correlates measurement
noise with the plant input.  The closed-loop output-error scheme avoids this
by running a parallel predictor of the whole loop, driven only by the
external excitation r_u added at the controller output:

    u_hat(t) = -(R/S) y_hat(t) + r_u(t)
    y_hat(t+1) = -A*_hat y_hat(t) + B*_hat u_hat(t - d) = theta_hat' phi(t)

The adaptation error y(t+1) - y_hat(t+1) then updates theta_hat with the
same recursive machinery as open-loop estimation.  Measured y and u never
enter the regressor.

Identification runs in deviation variables around the loop's operating
reference; with integral action in S the controller's deviation recursion is
exactly S u = -R y, so the predictor needs no knowledge of the operating
duty cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import ControllerRuntime, RstController
from .fileio import write_csv
from .ident import AdaptationState, _dot, rls_step


class ClosedLoopPredictor:
    """Parallel simulated loop (controller + adjustable model) with RLS update.

    Call :meth:`predict` once per sample to form u_hat(t) and the one-step
    prediction, then :meth:`adapt` with the next measured output.  The
    histories carry a posteriori predictions.  The controller runs in its
    own unclamped :class:`ControllerRuntime`, `runtime`, whose y history is
    also the regressor's; a redesign is swapped in as `runtime.controller`.  Histories hold at least `depth`
    samples, so that a redesign longer than the initial controller fits.

    Regressors are lists of Python floats.  :func:`~valvebench.ident.rls_step`
    updates `state` with them, and predictions sum theta' phi in index
    order, as the estimator sums it, over the estimate read as a list, so
    no array of the state is built per sample.
    """

    def __init__(
        self,
        controller: RstController,
        na: int,
        nb: int,
        delay: int,
        adaptation: AdaptationState,
        y_hist: np.ndarray | None = None,
        u_hist: np.ndarray | None = None,
        depth: int = 0,
    ):
        if na < 1 or nb < 1:
            raise ValueError("predictor needs na >= 1 and nb >= 1")
        if delay < 0:
            raise ValueError("delay must be >= 0")
        if len(adaptation.theta_hat) != na + nb:
            raise ValueError("adaptation state dimension must equal na + nb")
        self.na = na
        self.nb = nb
        self.delay = delay
        self.state = adaptation
        depth = max(depth, na, nb + delay, *map(len, controller._law))

        def init_hist(values):
            hist = [0.0] * depth
            if values is not None and len(values):
                tail = np.asarray(values, dtype=float)[-depth:].tolist()
                hist[depth - len(tail):] = tail
            return hist

        self.runtime = ControllerRuntime(controller, limits=None, depth=depth)
        if y_hist is not None and len(y_hist):
            # the newest supplied sample plays the role of y_hat(t)
            self._y_current = float(np.asarray(y_hist, dtype=float)[-1])
            self.runtime._y = init_hist(np.asarray(y_hist, dtype=float)[:-1])
        else:
            self._y_current = 0.0
        self._u = init_hist(u_hist)  # u_hat history, most recent last
        # The controller's own output starts from the same record as u_hat.
        self.runtime._u = list(self._u)
        self._pending_phi: list[float] | None = None

    @property
    def theta_hat(self) -> np.ndarray:
        return self.state.theta_hat

    def predict(self, r_u: float, r_dev: float = 0.0) -> tuple[float, float]:
        """Form u_hat(t) and the a priori prediction of y(t+1).

        r_dev is the reference deviation from the operating point; it stays
        zero during plain regulation-with-excitation identification.
        """
        if self._pending_phi is not None:
            raise RuntimeError("predict called twice without adapt")
        u_ctrl, _ = self.runtime.step(self._y_current, float(r_dev))
        u_hat = u_ctrl + float(r_u)
        y_h, u_h = self.runtime._y, self._u
        u_h.append(u_hat)
        u_h.pop(0)

        # [-y(t) ... -y(t-na+1), u(t-d) ... u(t-d-nb+1)]; the controller's
        # step has just appended y(t) to the y history
        phi = [-y_h[-1 - i] for i in range(self.na)]
        phi += [u_h[-1 - self.delay - j] for j in range(self.nb)]
        self._pending_phi = phi
        return _dot(self.state._theta_list(), phi), u_hat

    def adapt(self, y_measured_next: float, update: bool = True) -> tuple[float, float]:
        """Consume the next measured output; returns (a priori, a posteriori)
        closed-loop errors.  With update=False the parameters are frozen and
        the predictor simply advances."""
        if self._pending_phi is None:
            raise RuntimeError("adapt called before predict")
        phi = self._pending_phi
        if update:
            self.state, eps0, eps = rls_step(self.state, phi, float(y_measured_next))
        # the a posteriori prediction; with frozen parameters also the a priori one
        y_post = _dot(self.state._theta_list(), phi)
        if not update:
            eps0 = eps = float(y_measured_next) - y_post
        # a posteriori prediction becomes the new current sample
        self._y_current = y_post
        self._pending_phi = None
        return eps0, eps


@dataclass(frozen=True)
class CloeRun:
    """Closed-loop identification traces (all in deviation variables)."""

    theta: np.ndarray  # (T, n)
    y: np.ndarray
    y_hat: np.ndarray
    u: np.ndarray
    u_hat: np.ndarray
    eps_apriori: np.ndarray
    eps_aposteriori: np.ndarray
    saturated: np.ndarray
    final_state: AdaptationState
    u_operating: float = 0.0  # estimated duty holding the loop at its reference
    y_last: float = 0.0  # last absolute measurement, for bumpless phase handover

    @property
    def theta_final(self) -> np.ndarray:
        return self.theta[-1] if len(self.theta) else self.final_state.theta_hat


def _operating_duty(u) -> float:
    """The duty holding a settled loop at its reference: the mean of the
    last quarter of its record (one sample at least)."""
    return float(np.mean(u[-max(1, len(u) // 4):]))


def _loop_sample(plant, predictor, runtime, y_abs, r_bar, r, r_u, update=True):
    """One CLOE sample: predict, control, inject r_u, clip to the runtime's
    limits, advance, measure, adapt.  y_abs is the current measurement and
    r_bar the operating reference the predictor works around.  Returns
    (y_pred, u_hat, u_plant, saturated, y_next, eps0, eps)."""
    y_pred, u_hat = predictor.predict(r_u, r - r_bar)
    u_cmd, sat = runtime.step(y_abs, r)
    u_plant = u_cmd + r_u
    if runtime.limits is not None:
        lo, hi = runtime.limits
        clipped = min(hi, max(lo, u_plant))
        sat = sat or (clipped != u_plant)
        u_plant = clipped
    plant.advance(u_plant)
    y_next = plant.measure()
    eps0, eps = predictor.adapt(y_next - r_bar, update=update)
    return y_pred, u_hat, u_plant, sat, y_next, eps0, eps


def cl_identify(
    plant,
    controller: RstController,
    excitation: np.ndarray,
    init: AdaptationState,
    na: int,
    nb: int,
    delay: int = 0,
    operating_reference: float = 0.0,
    warmup: int = 0,
    limits: tuple[float, float] | None = None,
    update: bool = True,
) -> CloeRun:
    """Run the real loop and the predictor in lockstep over the excitation.

    `plant` provides measure()/advance(); the loop regulates at
    operating_reference with r_u added to the controller output.  A warmup
    of that many samples settles the loop first and seeds the predictor
    histories with measured data, suppressing the initial transient of the
    parallel predictor.
    """
    excitation = np.asarray(excitation, dtype=float)
    runtime = ControllerRuntime(controller, limits=limits)
    r_bar = float(operating_reference)

    y_hist = u_hist = None
    u_bar = 0.0
    if warmup > 0:
        y_w, u_w, _ = runtime.track(plant, np.full(warmup, r_bar))
        u_bar = _operating_duty(u_w)
        y_hist, u_hist = y_w - r_bar, u_w - u_bar
    predictor = ClosedLoopPredictor(
        controller, na, nb, delay, init, y_hist=y_hist, u_hist=u_hist
    )

    T = len(excitation)
    theta = np.empty((T, na + nb))
    y_arr = np.empty(T)
    yh_arr = np.empty(T)
    u_arr = np.empty(T)
    uh_arr = np.empty(T)
    e0_arr = np.empty(T)
    e1_arr = np.empty(T)
    sat_arr = np.zeros(T, dtype=bool)

    y_abs = plant.measure()
    for k in range(T):
        y_arr[k] = y_abs - r_bar
        yh_arr[k], uh_arr[k], u_plant, sat_arr[k], y_abs, e0_arr[k], e1_arr[k] = _loop_sample(
            plant, predictor, runtime, y_abs, r_bar, r_bar, excitation[k], update
        )
        u_arr[k] = u_plant - u_bar
        theta[k] = predictor.state._theta_list()

    return CloeRun(
        theta=theta,
        y=y_arr,
        y_hat=yh_arr,
        u=u_arr,
        u_hat=uh_arr,
        eps_apriori=e0_arr,
        eps_aposteriori=e1_arr,
        saturated=sat_arr,
        final_state=predictor.state,
        u_operating=u_bar,
        y_last=y_abs,
    )


def save_cloe_csv(path, run: CloeRun) -> None:
    n = run.theta.shape[1] if run.theta.size else 0
    header = ["t", "y", "y_hat", "u", "u_hat", "eps_cl"] + [f"theta_{i + 1}" for i in range(n)]
    T = len(run.y)
    cols = [np.arange(T), run.y, run.y_hat, run.u, run.u_hat, run.eps_aposteriori]
    cols += [run.theta[:, i] for i in range(n)]
    write_csv(path, header, cols)
