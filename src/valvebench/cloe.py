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
duty cycle.  One sampled record, `_record`, runs this loop for
:func:`cl_identify` and, with a redesign per sample, for `adapt.adaptive_run`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .control import ControllerRuntime, RstController
from .errors import DesignError
from .fileio import write_csv
from .ident import AdaptationState, rls_step
from .plant import _record_sensor


@functools.lru_cache(maxsize=16)
def _predictor_kernels(na: int, nb: int, delay: int):
    """The regressor step and the theta' phi sum of a predictor of these
    orders and delay, as straight-line Python generated
    (:func:`valvebench._kernels.predictor_source` and
    :func:`valvebench._kernels.dot_source`) and compiled once per shape."""
    return (
        _kernels.compiled(
            _kernels.predictor_source(na, nb, delay),
            f"<predictor kernel na={na} nb={nb} delay={delay}>",
        ),
        _kernels.compiled(_kernels.dot_source(na + nb), f"<dot kernel n={na + nb}>"),
    )


class ClosedLoopPredictor:
    """Parallel simulated loop (controller + adjustable model) with RLS update.

    Call :meth:`predict` once per sample to form u_hat(t) and the one-step
    prediction, then :meth:`adapt` with the next measured output.  The
    histories carry a posteriori predictions.  The controller runs in its
    own unclamped :class:`ControllerRuntime`, `runtime`, whose y history is
    also the regressor's; a redesign is swapped in as `runtime.controller`.
    Histories hold at least `depth` samples, so that a redesign longer than
    the initial controller fits.

    Regressors are lists of Python floats.  :func:`~valvebench.ident.rls_step`
    updates `state` with them, and predictions sum theta' phi in index
    order, as the estimator sums it, over the estimate read as a list once
    per update, so no array of the state is built per sample.  The
    regressor and both sums run in the kernels of the predictor's shape
    (:func:`_predictor_kernels`), resolved at construction; the law step
    and :func:`rls_step` stay calls.
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
        self._regressor, self._dot = _predictor_kernels(na, nb, delay)

    @property
    def state(self) -> AdaptationState:
        """The adaptation state of the current estimate.  Setting it, as
        :meth:`adapt` does, also sets `_theta`, its estimate as a list, which
        the predictions and a record's estimate trace read."""
        return self._state

    @state.setter
    def state(self, state: AdaptationState) -> None:
        self._state = state
        self._theta = state._theta_list()

    @property
    def theta_hat(self) -> np.ndarray:
        return self._state.theta_hat

    def predict(self, r_u: float, r_dev: float = 0.0) -> tuple[float, float]:
        """Form u_hat(t) and the a priori prediction of y(t+1).

        r_dev is the reference deviation from the operating point; it stays
        zero during plain regulation-with-excitation identification.
        """
        if self._pending_phi is not None:
            raise RuntimeError("predict called twice without adapt")
        runtime = self.runtime
        u_hat = runtime.step(self._y_current, float(r_dev))[0] + float(r_u)
        # the law step has just appended y_hat(t) to the y history
        self._pending_phi, y_pred = self._regressor(self._theta, runtime._y, self._u, u_hat)
        return y_pred, u_hat

    def adapt(self, y_measured_next: float, update: bool = True) -> tuple[float, float]:
        """Consume the next measured output; returns (a priori, a posteriori)
        closed-loop errors.  With update=False the parameters are frozen and
        the predictor simply advances."""
        phi = self._pending_phi
        if phi is None:
            raise RuntimeError("adapt called before predict")
        y_next = float(y_measured_next)
        if update:
            self._state, eps0, eps = rls_step(self._state, phi, y_next)
            self._theta = self._state._theta_list()
        # the a posteriori prediction; with frozen parameters also the a priori one
        y_post = self._dot(self._theta, phi)
        if not update:
            eps0 = eps = y_next - y_post
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


def _finite(name: str, values) -> list[float]:
    """`values` as a list of floats; a ValueError names them if one is not finite."""
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite")
    return values.tolist()


def _record(plant, runtime, predictor, reference, excitation, r_bar, update=True, redesign=None):
    """The closed-loop record of :func:`cl_identify` and `adapt.adaptive_run`:
    per reference and excitation value, `predict`, the loop's `step`, the
    excitation added and clipped to the runtime's limits, `advance`, the
    plant's record-scoped `measure` (one block of noise) and `adapt` of the
    deviation from r_bar.  A `redesign` callable redesigns each estimate into
    both runtimes, or counts it rejected on DesignError.  Returns the lists
    (y: T + 1 measurements, y_hat, u, u_hat, saturated, eps0, eps, theta
    flattened) and that count."""
    ys, y_hats, us, u_hats, sats, e0s, e1s, thetas = [], [], [], [], [], [], [], []
    rejected = 0
    predict, adapt, step, advance = predictor.predict, predictor.adapt, runtime.step, plant.advance
    limits = runtime.limits
    if limits is not None:
        lo, hi = limits
    with _record_sensor(plant, len(reference) + 1) as measure:
        y_abs = measure()
        ys.append(y_abs)
        for r, r_u in zip(reference, excitation):
            y_pred, u_hat = predict(r_u, r - r_bar)
            u, sat = step(y_abs, r)
            u += r_u
            if limits is not None:
                clipped = u if u > lo else lo
                clipped = clipped if clipped < hi else hi
                sat = sat or clipped != u
                u = clipped
            advance(u)
            y_abs = measure()
            eps0, eps = adapt(y_abs - r_bar, update)
            if redesign is not None:
                try:
                    runtime.controller = predictor.runtime.controller = redesign(predictor._theta)
                except DesignError:
                    rejected += 1
            ys.append(y_abs)
            y_hats.append(y_pred)
            us.append(u)
            u_hats.append(u_hat)
            sats.append(sat)
            e0s.append(eps0)
            e1s.append(eps)
            thetas.extend(predictor._theta)
    return (ys, y_hats, us, u_hats, sats, e0s, e1s, thetas), rejected


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
    parallel predictor.  A non-finite excitation or operating reference
    raises ValueError before the plant advances.  The samples run in
    :func:`_record`, on Python floats; the arrays are built at the end.
    """
    excitation = _finite("excitation", excitation)
    r_bar = _finite("operating_reference", operating_reference)
    runtime = ControllerRuntime(controller, limits=limits)

    y_hist = u_hist = None
    u_bar = 0.0
    if warmup > 0:
        y_w, u_w, _ = runtime.track(plant, np.full(warmup, r_bar))
        u_bar = _operating_duty(u_w)
        y_hist, u_hist = y_w - r_bar, u_w - u_bar
    predictor = ClosedLoopPredictor(
        controller, na, nb, delay, init, y_hist=y_hist, u_hist=u_hist
    )
    (y, y_hat, u, u_hat, sat, e0, e1, theta), _ = _record(
        plant, runtime, predictor, [r_bar] * len(excitation), excitation, r_bar, update
    )
    return CloeRun(
        theta=np.array(theta, dtype=float).reshape(-1, na + nb),
        y=np.array(y[:-1], dtype=float) - r_bar,
        y_hat=np.array(y_hat, dtype=float),
        u=np.array(u, dtype=float) - u_bar,
        u_hat=np.array(u_hat, dtype=float),
        eps_apriori=np.array(e0, dtype=float),
        eps_aposteriori=np.array(e1, dtype=float),
        saturated=np.array(sat, dtype=bool),
        final_state=predictor.state,
        u_operating=u_bar,
        y_last=y[-1],
    )


def save_cloe_csv(path, run: CloeRun) -> None:
    n = run.theta.shape[1] if run.theta.size else 0
    header = ["t", "y", "y_hat", "u", "u_hat", "eps_cl"] + [f"theta_{i + 1}" for i in range(n)]
    T = len(run.y)
    cols = [np.arange(T), run.y, run.y_hat, run.u, run.u_hat, run.eps_aposteriori]
    cols += [run.theta[:, i] for i in range(n)]
    write_csv(path, header, cols)
