"""Iterative closed-loop identification and controller re-design.

The bench protocol: starting from a controller designed on a possibly wrong
model, repeat {excite the loop, identify with the closed-loop output-error
predictor, redo the pole placement on the fresh estimate, evaluate tracking}.
Each pass is summarized in an :class:`IterationRecord`; the first couple of
iterations carry most of the improvement.

A per-sample variant (`adaptive_run`) re-designs the controller at every
sampling instant from the running estimate.  It runs the identification's
closed-loop record with a redesign per sample; the iterative mode is the
default because it is what the evaluation protocol measures.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .control import (
    HR_NYQUIST_ZERO,
    HS_INTEGRATOR,
    ControllerRuntime,
    DelayPolynomial,
    PoleSpec,
    RstController,
    bezout_design,
    check_pole_placement,
    desired_poles,
    rst_law_length,
    sensitivity,
)
from .cloe import ClosedLoopPredictor, _finite, _operating_duty, _record, cl_identify, save_cloe_csv
from .errors import DesignError
from .fileio import write_csv
from .ident import AdaptationState, initial_adaptation_state
from .plant import DiscretePlantModel
from .signals import PrbsConfig, prbs_deviation, step_sequence

DEFAULT_LIMITS = (0.0, 100.0)


@dataclass(frozen=True)
class ExcitationSpec:
    """PRBS injection added to the controller output during identification."""

    n_registers: int = 8
    divider: int = 4
    amplitude: float = 10.0
    seed: int = 0
    length: int = 300

    def __post_init__(self):
        if not 0.0 < self.amplitude <= 50.0:
            raise ValueError("excitation amplitude must be in (0, 50] percent duty")
        if self.length < 1:
            raise ValueError("excitation length must be >= 1")

    @property
    def config(self) -> PrbsConfig:
        # mid-band offset keeps the config valid; injection strips it anyway
        return PrbsConfig(
            n_registers=self.n_registers,
            divider=self.divider,
            seed=self.seed,
            offset=50.0,
            amplitude=self.amplitude,
        )

    def sequence(self) -> np.ndarray:
        """Zero-mean two-level injection of `length` samples."""
        return prbs_deviation(self.config, self.length)


@dataclass(frozen=True)
class RstDesignSpec:
    """Everything fixed across re-designs: target poles, fixed parts, orders."""

    pole: PoleSpec
    na: int = 1
    nb: int = 1
    delay: int = 0
    hs: DelayPolynomial = HS_INTEGRATOR
    hr: DelayPolynomial = HR_NYQUIST_ZERO
    target: DelayPolynomial = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.na < 0:
            raise ValueError("na must be >= 0")
        if self.nb < 1:
            raise ValueError("nb must be >= 1")
        if self.delay < 0:
            raise ValueError("delay must be >= 0")
        object.__setattr__(self, "target", desired_poles(self.pole))

    def model_from(self, theta) -> DiscretePlantModel:
        """The model of an estimate [a1..a_na, b1..b_nb], as the constructor
        builds it; the orders and delay were checked with the spec, so only
        the check that depends on theta runs (finite coefficients).  Each
        entry is converted with float."""
        theta = list(map(float, theta))
        na = self.na
        if len(theta) != na + self.nb:
            raise ValueError("theta length must equal na + nb")
        return DiscretePlantModel._of_checked_orders(
            tuple(theta[:na]), tuple(theta[na:]), self.delay, self.pole.Ts
        )

    def design(self, theta) -> RstController:
        """Pole placement on the given estimate, verified before returning."""
        model = self.model_from(theta)
        controller = bezout_design(model, self.target, hs=self.hs, hr=self.hr)
        check_pole_placement(model, controller, self.target)
        return controller


@dataclass(frozen=True)
class EvalScenario:
    """Reference staircase used to score each controller."""

    levels: tuple[float, ...] = (40.0, 65.0, 40.0, 15.0, 40.0)
    hold: float = 3.0
    skip: int = 10

    def reference(self, Ts: float) -> np.ndarray:
        return step_sequence(np.array(self.levels), self.hold, Ts)


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    theta_hat: np.ndarray
    controller: RstController
    tracking_cost: float
    saturation_fraction: float
    margin_db: float
    redesign_error: str | None = None

    def __post_init__(self):
        if self.iteration < 0:
            raise ValueError("iteration must be >= 0")
        if not self.tracking_cost >= 0.0:
            raise ValueError("tracking_cost must be >= 0")


def tracking_cost(y, r, skip: int) -> float:
    """Mean squared tracking error (deg^2) over the samples after `skip`."""
    y = np.asarray(y, dtype=float)
    r = np.asarray(r, dtype=float)
    if y.shape != r.shape or y.ndim != 1:
        raise ValueError("y and r must be 1-D sequences of equal length")
    if not 0 <= skip < len(y):
        raise ValueError("skip must satisfy 0 <= skip < len(y)")
    e = y[skip:] - r[skip:]
    return float(np.mean(e * e))


def tracking_run(plant, controller, reference, limits=DEFAULT_LIMITS, u0=0.0, y0=0.0):
    """Drive the plant along a reference with a fixed controller.

    Histories are primed at (u0, y0, reference[0]) for a bumpless start.
    Returns (y, u, saturated) arrays, one sample per reference point.
    """
    runtime = ControllerRuntime(controller, limits=limits)
    runtime.prime(u=u0, y=y0, r=float(reference[0]))
    return runtime.track(plant, reference)


def _settle(plant, controller, level, seconds, limits=DEFAULT_LIMITS):
    """Bring the loop to `level` from zero histories, holding it there for
    `seconds` (one sample at least) before anything is scored.  Returns the
    (y, u) arrays of the hold."""
    n = max(1, int(round(seconds / controller.Ts)))
    y, u, _ = tracking_run(plant, controller, np.full(n, float(level)), limits)
    return y, u


def _margin_db(design: RstDesignSpec, theta, controller: RstController) -> float:
    try:
        return sensitivity(design.model_from(theta), controller).margin_db
    except (DesignError, ValueError):
        return float("nan")


def iterate(
    plant,
    initial_controller: RstController,
    design: RstDesignSpec,
    excitation: ExcitationSpec,
    scenario: EvalScenario,
    n_iter: int,
    theta0,
    *,
    operating_reference: float = 40.0,
    adaptation_gain: float = 1000.0,
    profile: str = "variable-forgetting",
    lambda0: float = 0.97,
    warmup: int = 40,
    settle: float = 3.0,
    limits: tuple[float, float] = DEFAULT_LIMITS,
    stop_tol: float | None = None,
    trace_dir=None,
) -> list[IterationRecord]:
    """Run the excite / identify / re-design / evaluate loop on a live plant.

    Record 0 scores the initial controller before any identification; record
    k >= 1 excites with the controller of record k-1.  A redesign that fails
    the pole-placement check keeps the previous controller and stores the
    error message.  With `stop_tol` set, iterations stop once the relative
    cost improvement drops below it.
    """
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    Ts = initial_controller.Ts
    theta = np.asarray(theta0, dtype=float).copy()
    if len(theta) != design.na + design.nb:
        raise ValueError("theta0 length must equal na + nb")
    reference = scenario.reference(Ts)
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)

    def evaluate(index: int, ctrl: RstController, u0: float, y0: float, error=None):
        y_e, u_e, sat_e = tracking_run(plant, ctrl, reference, limits, u0, y0)
        if trace_dir is not None:
            write_csv(
                os.path.join(trace_dir, f"eval_{index}.csv"),
                ["t", "r", "y", "u", "saturated"],
                [np.arange(len(y_e)), reference, y_e, u_e, sat_e],
            )
        return IterationRecord(
            iteration=index,
            theta_hat=theta.copy(),
            controller=ctrl,
            tracking_cost=tracking_cost(y_e, reference, scenario.skip),
            saturation_fraction=float(np.mean(sat_e)),
            margin_db=_margin_db(design, theta, ctrl),
            redesign_error=error,
        )

    # bring the loop to the operating point before scoring anything
    controller = initial_controller
    y_tr, u_tr = _settle(plant, controller, operating_reference, settle, limits)
    records = [evaluate(0, controller, float(u_tr[-1]), float(y_tr[-1]))]

    exc = excitation.sequence()
    for k in range(1, n_iter + 1):
        init = initial_adaptation_state(
            len(theta),
            gain=adaptation_gain,
            profile=profile,
            lambda0=lambda0,
            theta0=theta,
        )
        run = cl_identify(
            plant,
            controller,
            exc,
            init,
            na=design.na,
            nb=design.nb,
            delay=design.delay,
            operating_reference=operating_reference,
            warmup=warmup,
            limits=limits,
        )
        if trace_dir is not None:
            save_cloe_csv(os.path.join(trace_dir, f"excite_{k}.csv"), run)
        theta = run.final_state.theta_hat.copy()
        error = None
        try:
            controller = design.design(theta)
        except DesignError as exc_err:
            error = str(exc_err)
        records.append(evaluate(k, controller, run.u_operating, run.y_last, error))
        if stop_tol is not None and records[-2].tracking_cost > 0.0:
            improvement = 1.0 - records[-1].tracking_cost / records[-2].tracking_cost
            if improvement < stop_tol:
                break
    return records


def save_iteration_csv(path, records: list[IterationRecord]) -> None:
    if not records:
        raise ValueError("no records to save")
    n = len(records[0].theta_hat)
    r_len = len(records[0].controller.r.coeffs)
    s_len = len(records[0].controller.s.coeffs)
    header = (
        ["iteration"]
        + [f"theta_{i + 1}" for i in range(n)]
        + [f"r_{i}" for i in range(r_len)]
        + [f"s_{i}" for i in range(s_len)]
        + ["t_gain", "tracking_cost", "saturation_fraction", "margin_db", "redesign_failed"]
    )
    cols: list[list] = [[] for _ in header]
    for rec in records:
        row = (
            [rec.iteration]
            + list(rec.theta_hat)
            + list(rec.controller.r.coeffs)
            + list(rec.controller.s.coeffs)
            + [
                float(rec.controller.t(1.0)),
                rec.tracking_cost,
                rec.saturation_fraction,
                rec.margin_db,
                rec.redesign_error is not None,
            ]
        )
        for col, v in zip(cols, row):
            col.append(v)
    write_csv(path, header, cols)


@dataclass(frozen=True)
class AdaptiveRun:
    """Per-sample adaptive control traces."""

    y: np.ndarray
    u: np.ndarray
    reference: np.ndarray
    theta: np.ndarray
    redesigns: int
    rejected: int
    final_controller: RstController
    final_state: AdaptationState


def adaptive_run(
    plant,
    initial_controller: RstController,
    design: RstDesignSpec,
    reference,
    theta0,
    *,
    excitation=None,
    adaptation_gain: float = 1000.0,
    profile: str = "variable-forgetting",
    lambda0: float = 0.97,
    settle: float = 3.0,
    limits: tuple[float, float] = DEFAULT_LIMITS,
) -> AdaptiveRun:
    """Re-estimate and re-design at every sampling instant.

    The samples run in the record of `cl_identify` (`cloe._record`, with the
    reference deviation fed through T); after each update the controller is
    re-derived from the current estimate by :meth:`RstDesignSpec.design`
    and swapped into both the real loop and the predictor, keeping the
    histories, which fit the longest R or S the spec can design
    (:func:`rst_law_length`).  Estimates whose re-design fails the pole check
    leave the controller unchanged.  The loop settles at reference[0] with
    the initial controller before adaptation starts; that level is the
    predictor's operating point.  A non-finite reference or excitation
    raises ValueError before the plant advances.
    """
    ref = _finite("reference", reference)
    T = len(ref)
    if T < 1:
        raise ValueError("reference must be non-empty")
    exc = [0.0] * T if excitation is None else _finite("excitation", excitation)
    if len(exc) != T:
        raise ValueError("excitation must match the reference length")
    theta = np.asarray(theta0, dtype=float).copy()
    n = design.na + design.nb
    if len(theta) != n:
        raise ValueError("theta0 length must equal na + nb")

    r_bar = ref[0]
    y_tr, u_tr = _settle(plant, initial_controller, r_bar, settle, limits)
    u_bar = _operating_duty(u_tr)

    state = initial_adaptation_state(
        n, gain=adaptation_gain, profile=profile, lambda0=lambda0, theta0=theta
    )
    depth = rst_law_length(design.na, design.nb, design.delay, design.hs, design.hr)
    predictor = ClosedLoopPredictor(
        initial_controller, design.na, design.nb, design.delay, state,
        y_hist=y_tr - r_bar, u_hist=u_tr - u_bar, depth=depth,
    )
    runtime = ControllerRuntime(initial_controller, limits=limits, depth=depth)
    runtime.prime(u=float(u_tr[-1]), y=float(y_tr[-1]), r=r_bar)

    (y, _, u, _, _, _, _, thetas), rejected = _record(
        plant, runtime, predictor, ref, exc, r_bar, redesign=design.design
    )
    return AdaptiveRun(
        y=np.array(y[1:], dtype=float),
        u=np.array(u, dtype=float),
        reference=np.asarray(reference, dtype=float),
        theta=np.array(thetas, dtype=float).reshape(T, n),
        redesigns=T - rejected,
        rejected=rejected,
        final_controller=runtime.controller,
        final_state=predictor.state,
    )
