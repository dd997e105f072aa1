"""Iterative excite/identify/redesign protocol and the per-sample variant."""

import numpy as np
import pytest

from valvebench.adapt import (
    AdaptiveRun,
    EvalScenario,
    ExcitationSpec,
    IterationRecord,
    RstDesignSpec,
    adaptive_run,
    iterate,
    save_iteration_csv,
    tracking_cost,
    tracking_run,
)
from valvebench.control import (
    HR_NYQUIST_ZERO,
    ONE,
    DelayPolynomial,
    PoleSpec,
    dominant_poles,
    pi_design,
    rst_law_length,
)
from valvebench.errors import DesignError
from valvebench.plant import DiscretePlantModel, LinearSimulator
from valvebench.signals import step_sequence

Ts = 0.05
THETA_TRUE = np.array([-0.9152, -0.0609])
THETA_WRONG = np.array([-0.6, -0.2])
TRUE = DiscretePlantModel((-0.9152,), (-0.0609,), 0, Ts)


def design_spec(**overrides) -> RstDesignSpec:
    return RstDesignSpec(pole=PoleSpec(5.0, 1.0, Ts), **overrides)


def small_scenario() -> EvalScenario:
    return EvalScenario(levels=(0.0, 4.0, 0.0, -4.0, 0.0), hold=1.5, skip=5)


def small_excitation() -> ExcitationSpec:
    return ExcitationSpec(amplitude=2.0, length=200)


def run_iterate(plant, n_iter, design=None, **kwargs):
    design = design or design_spec()
    ctrl0 = design_spec().design(THETA_WRONG)
    return iterate(
        plant,
        ctrl0,
        design,
        small_excitation(),
        small_scenario(),
        n_iter,
        THETA_WRONG,
        operating_reference=0.0,
        warmup=20,
        settle=1.0,
        limits=None,
        **kwargs,
    )


def test_excitation_spec_basics():
    spec = ExcitationSpec()
    assert spec.config.offset == 50.0
    seq = spec.sequence()
    assert len(seq) == 300
    assert set(np.unique(seq)) == {-10.0, 10.0}
    with pytest.raises(ValueError):
        ExcitationSpec(amplitude=0.0)
    with pytest.raises(ValueError):
        ExcitationSpec(amplitude=60.0)
    with pytest.raises(ValueError):
        ExcitationSpec(length=0)


def test_design_spec_round_trip():
    spec = design_spec()
    model = spec.model_from(THETA_TRUE)
    assert model == TRUE
    ctrl = spec.design(THETA_TRUE)
    assert ctrl.s_on_circle(np.array([0.0]))[0] == 0.0  # integral action
    with pytest.raises(ValueError):
        spec.model_from([1.0, 2.0, 3.0])
    with pytest.raises(DesignError):
        spec.design([-0.9, 0.0])


def test_model_from_builds_the_constructed_model():
    """model_from fills the model's instance dict itself; the model compares
    and hashes equal to the constructor's, and fails with its messages."""
    spec = design_spec(na=2, nb=2, delay=1)
    for theta in ([-1.2, 0.35, 0.5, 0.2], np.array([-1.2, 0.35, 0.5, 0.2]), [-1, 0, 1, 2]):
        model = spec.model_from(theta)
        ref = DiscretePlantModel(theta[:2], theta[2:], 1, Ts)
        assert model == ref and hash(model) == hash(ref) and vars(model) == vars(ref)
        assert all(type(c) is float for c in model.a_coeffs + model.b_coeffs)
    with pytest.raises(ValueError, match=r"^theta length must equal na \+ nb$"):
        spec.model_from([-1.2, 0.35, 0.5])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^coefficients must be finite$"):
            spec.model_from([-1.2, 0.35, bad, 0.2])


@pytest.mark.parametrize(
    "overrides, message",
    [({"na": -1}, "na must be >= 0"), ({"nb": 0}, "nb must be >= 1"), ({"delay": -1}, "delay must be >= 0")],
)
def test_design_spec_rejects_orders_no_model_has(overrides, message):
    """Orders and a delay that no DiscretePlantModel accepts fail when the
    spec is built, not at each redesign."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        design_spec(**overrides)


def test_eval_scenario_reference():
    ref = EvalScenario().reference(Ts)
    assert len(ref) == 300
    assert np.all(ref[:60] == 40.0)
    assert np.all(ref[60:120] == 65.0)


def test_tracking_cost_definition():
    y = np.array([0.0, 2.0, 4.0])
    r = np.array([0.0, 1.0, 2.0])
    assert tracking_cost(y, r, 1) == pytest.approx((1.0 + 4.0) / 2.0)
    with pytest.raises(ValueError):
        tracking_cost(y, r, 3)
    with pytest.raises(ValueError):
        tracking_cost(y, r[:2], 0)


def test_tracking_run_settles_with_integral_action():
    ctrl = design_spec().design(THETA_TRUE)
    plant = LinearSimulator(TRUE)
    y, u, sat = tracking_run(plant, ctrl, np.full(120, 5.0), limits=None)
    assert y[-1] == pytest.approx(5.0, abs=1e-6)
    assert not sat.any()
    # steady input matches the DC inverse of the plant
    assert u[-1] == pytest.approx(5.0 * (1.0 + THETA_TRUE[0]) / THETA_TRUE[1], abs=1e-4)


def test_iterate_improves_then_plateaus():
    plant = LinearSimulator(TRUE)
    records = run_iterate(plant, 2)
    assert [r.iteration for r in records] == [0, 1, 2]
    assert records[0].tracking_cost > 3.5
    assert records[1].tracking_cost < 2.6
    assert records[1].tracking_cost < records[0].tracking_cost
    # one excitation pass already recovers the plant
    assert np.max(np.abs(records[1].theta_hat - THETA_TRUE)) < 0.01
    assert np.max(np.abs(records[2].theta_hat - THETA_TRUE)) < 0.01
    for rec in records:
        assert rec.saturation_fraction == 0.0
        assert np.isfinite(rec.margin_db)
        assert rec.redesign_error is None


def test_iterate_stop_tol_and_traces(tmp_path):
    plant = LinearSimulator(TRUE)
    records = run_iterate(plant, 4, stop_tol=2.0, trace_dir=tmp_path)
    # the relative improvement can never reach 200 percent, so one
    # identification pass is performed and the loop stops
    assert len(records) == 2
    for name in ("eval_0.csv", "eval_1.csv", "excite_1.csv"):
        assert (tmp_path / name).exists()


def test_iterate_failed_redesign_keeps_controller():
    # degree-2 auxiliary pushes the target polynomial past what the
    # first-order Sylvester system can place, so every redesign fails
    plant = LinearSimulator(TRUE)
    overdetermined = PoleSpec(5.0, 1.0, Ts, auxiliary=DelayPolynomial((1.0, -0.5, 0.06)))
    strict = RstDesignSpec(pole=overdetermined)
    ctrl0 = design_spec().design(THETA_WRONG)
    records = iterate(
        plant,
        ctrl0,
        strict,
        small_excitation(),
        small_scenario(),
        1,
        THETA_WRONG,
        operating_reference=0.0,
        warmup=20,
        settle=1.0,
        limits=None,
    )
    assert records[1].redesign_error is not None
    assert "solvable degree" in records[1].redesign_error
    assert records[1].controller is ctrl0


def test_iterate_validation():
    plant = LinearSimulator(TRUE)
    with pytest.raises(ValueError):
        run_iterate(plant, 0)
    ctrl0 = design_spec().design(THETA_WRONG)
    with pytest.raises(ValueError):
        iterate(
            plant,
            ctrl0,
            design_spec(),
            small_excitation(),
            small_scenario(),
            1,
            np.array([1.0, 2.0, 3.0]),
        )


def test_iteration_record_validation():
    ctrl = design_spec().design(THETA_TRUE)
    with pytest.raises(ValueError):
        IterationRecord(-1, THETA_TRUE, ctrl, 1.0, 0.0, 8.0)
    with pytest.raises(ValueError):
        IterationRecord(0, THETA_TRUE, ctrl, -1.0, 0.0, 8.0)


def test_save_iteration_csv(tmp_path):
    ctrl = design_spec().design(THETA_TRUE)
    records = [
        IterationRecord(0, THETA_TRUE, ctrl, 1.5, 0.0, 8.25),
        IterationRecord(1, THETA_TRUE, ctrl, 0.75, 0.1, 8.25, redesign_error="boom"),
    ]
    path = tmp_path / "iterations.csv"
    save_iteration_csv(path, records)
    lines = path.read_text().splitlines()
    head = lines[0].split(",")
    assert head[0] == "iteration"
    assert "t_gain" in head and "redesign_failed" in head
    row0 = dict(zip(head, lines[1].split(",")))
    row1 = dict(zip(head, lines[2].split(",")))
    assert row0["redesign_failed"] == "false"
    assert row1["redesign_failed"] == "true"
    assert float(row0["t_gain"]) == pytest.approx(float(ctrl.t(1.0)), rel=1e-8)
    assert float(row0["tracking_cost"]) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        save_iteration_csv(tmp_path / "none.csv", [])


def test_adaptive_run_converges_and_tracks():
    plant = LinearSimulator(TRUE)
    spec = design_spec()
    ctrl0 = spec.design(THETA_WRONG)
    reference = step_sequence(np.array([0.0, 4.0, -4.0, 0.0]), 2.0, Ts)
    run = adaptive_run(
        plant, ctrl0, spec, reference, THETA_WRONG, settle=1.0, limits=None
    )
    assert isinstance(run, AdaptiveRun)
    assert run.redesigns == len(reference)
    assert run.rejected == 0
    # end of each hold: the adapted loop has pulled y onto the reference
    for idx, level in ((39, 0.0), (79, 4.0), (119, -4.0), (159, 0.0)):
        assert run.y[idx] == pytest.approx(level, abs=0.05)
    truth = spec.design(THETA_TRUE)
    err = np.max(np.abs(np.array(run.final_controller.r.coeffs) - np.array(truth.r.coeffs)))
    assert err < 1e-2
    assert np.max(np.abs(run.final_state.theta_hat - THETA_TRUE)) < 1e-3


def test_adaptive_run_validation():
    spec = design_spec()
    ctrl0 = spec.design(THETA_WRONG)
    plant = LinearSimulator(TRUE)
    with pytest.raises(ValueError):
        adaptive_run(plant, ctrl0, spec, np.array([]), THETA_WRONG)
    with pytest.raises(ValueError):
        adaptive_run(
            plant, ctrl0, spec, np.zeros(10), THETA_WRONG, excitation=np.zeros(5)
        )
    with pytest.raises(ValueError):
        adaptive_run(plant, ctrl0, spec, np.zeros(10), np.array([1.0]))


DEGREE_0 = "A H_S has degree 0: it leaves no R', so no feedback can place the poles"


@pytest.mark.parametrize("hr", [ONE, HR_NYQUIST_ZERO], ids=["no-hr", "nyquist-hr"])
def test_design_rejects_an_a_hs_of_degree_0(hr):
    """With na = 0 and H_S = 1 there is no R' to solve for: the design says
    so as a DesignError, whatever H_R is.  With H_R = 1 + q^-1 the solve
    would give R = 0 and T = 0, the law S u = 0 that reads neither y nor r,
    so that estimate is rejected as well."""
    spec = RstDesignSpec(PoleSpec(5.0, 1.0, 0.05), na=0, nb=3, hs=ONE, hr=hr)
    with pytest.raises(DesignError, match=f"^{DEGREE_0}$"):
        spec.design([0.5, 0.2, 0.1])


def test_adaptive_run_rejects_redesigns_on_an_a_hs_of_degree_0():
    """An estimate whose a1 trims away under H_S = 1 leaves A H_S of degree
    0; every such redesign is rejected and the loop keeps its controller.
    A constant gain of 1e-300 keeps a1 within 1e-12 of zero; nb = 3 lets
    the Sylvester system reach P's degree, so the solve itself runs."""
    spec = RstDesignSpec(PoleSpec(5.0, 1.0, Ts), na=1, nb=3, hs=ONE, hr=ONE)
    ctrl0 = pi_design(-0.6, -0.2, dominant_poles(PoleSpec(5.0, 1.0, Ts)), Ts)
    theta0 = np.array([0.0, -0.2, 0.1, 0.05])
    with pytest.raises(DesignError, match=f"^{DEGREE_0}$"):
        spec.design([1e-300, -0.2, 0.1, 0.05])
    reference = np.zeros(20)
    run = adaptive_run(
        LinearSimulator(TRUE), ctrl0, spec, reference, theta0,
        adaptation_gain=1e-300, profile="constant-gain", settle=0.5, limits=None,
    )
    assert (run.redesigns, run.rejected) == (0, len(reference))
    assert run.final_controller is ctrl0
    assert np.all(np.abs(run.theta[:, 0]) <= 1e-12)


def test_adaptive_run_with_initial_controller_of_lower_degree():
    """The histories of both loops are as deep as the spec's designs: a PI
    start under a second-order spec with one step of delay, whose S has
    length 5, runs through every swap.  The zero estimates of a_2 and b_2
    also make the first designs drop degrees."""
    spec = RstDesignSpec(PoleSpec(5.0, 1.0, Ts), na=2, nb=2, delay=1)
    ctrl0 = pi_design(-0.6, -0.2, dominant_poles(PoleSpec(5.0, 1.0, Ts)), Ts)
    assert len(ctrl0.s.coeffs) == 2
    assert rst_law_length(spec.na, spec.nb, spec.delay, spec.hs, spec.hr) == 5
    reference = step_sequence(np.array([0.0, 2.0, 0.0]), 1.0, Ts)
    run = adaptive_run(
        LinearSimulator(TRUE), ctrl0, spec, reference, np.array([-0.6, 0.0, -0.2, 0.0]),
        excitation=ExcitationSpec(amplitude=2.0, length=len(reference)).sequence(),
        settle=1.0, limits=None,
    )
    assert run.redesigns + run.rejected == len(reference)
    assert run.redesigns > 0
    assert len(run.final_controller.s.coeffs) == 5
    assert np.all(np.isfinite(run.y))
