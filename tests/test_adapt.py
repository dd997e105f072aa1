"""Iterative excite/identify/redesign protocol and the per-sample variant."""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from valvebench import control

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
    HS_INTEGRATOR,
    ONE,
    DelayPolynomial,
    PoleSpec,
    bezout_design,
    check_pole_placement,
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


def _bits(ctrl):
    return [[c.hex() for c in getattr(ctrl, name).coeffs] for name in ("r_core", "s_core", "t", "r", "s")]


def _outcome(fn, *args):
    """fn(*args), or the error type and message."""
    try:
        return fn(*args)
    except (DesignError, ValueError) as err:
        return type(err), str(err)


def _outcome_bits(design, *args):
    """The bits of r_core, s_core, t, r and s of a design, or the error type
    and message."""
    return _outcome(lambda: _bits(design(*args)))


def _unprepared_design(spec, theta):
    """The public path a redesign replaces, on a fresh copy of the target:
    nothing prepared, every kernel and target looked up."""
    model = spec.model_from(theta)
    target = DelayPolynomial(spec.target.coeffs)
    controller = bezout_design(model, target, spec.hs, spec.hr)
    check_pole_placement(model, controller, target)
    return controller


def _retarget(spec, coeffs):
    """The spec with its target replaced, before its first design."""
    object.__setattr__(spec, "target", DelayPolynomial(tuple(coeffs)))
    return spec


@st.composite
def redesign_cases(draw):
    """A spec (na, nb in {1, 2, 3}, delay in {0, 1}, H_S and H_R each on or
    off, 0 to 2 auxiliary poles, and on request a target with a -0.0) and
    estimates for it: generic, b = 0, A sharing a root with B or with H_R,
    and non-finite."""
    na, nb = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    aux = draw(st.lists(st.floats(-0.95, 0.95), max_size=2))
    pole = PoleSpec(draw(st.floats(0.5, 30.0)), draw(st.floats(0.3, 2.0)), Ts, DelayPolynomial((1.0, *aux)))
    spec = RstDesignSpec(
        pole, na=na, nb=nb, delay=draw(st.integers(0, 1)),
        hs=draw(st.sampled_from([ONE, HS_INTEGRATOR])), hr=draw(st.sampled_from([ONE, HR_NYQUIST_ZERO])),
    )
    if draw(st.booleans()):  # a target with a -0.0, which no PoleSpec gives
        coeffs = list(spec.target.coeffs)
        coeffs[draw(st.integers(1, len(coeffs) - 1))] = -0.0
        _retarget(spec, coeffs)
    coeff = st.floats(-2.0, 2.0)
    thetas = []
    for kind in draw(st.lists(st.sampled_from(["generic", "zero_b", "common", "non_finite"]), min_size=1, max_size=4)):
        a, b = draw(st.lists(coeff, min_size=na, max_size=na)), draw(st.lists(coeff, min_size=nb, max_size=nb))
        if kind == "zero_b":
            b = [0.0] * nb
        elif kind == "common":  # A and B share a root, or A shares H_R's at z = -1
            root = draw(st.floats(-0.99, 0.99)) if nb >= 2 else -1.0
            a = np.convolve([1.0, -root], [1.0, *a[: na - 1]])[1:].tolist()
            if nb >= 2:
                b = np.convolve([1.0, -root], b[: nb - 1]).tolist()
        elif kind == "non_finite":
            a[draw(st.integers(0, na - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        thetas.append(a + b)
    return spec, thetas


@settings(max_examples=300, deadline=None)
@given(case=redesign_cases())
@example(
    case=(
        _retarget(RstDesignSpec(PoleSpec(5.0, 1.0, Ts), na=2, hs=ONE, hr=ONE), (1.0, -0.0, 0.25)),
        [[0.0, 0.3, 0.5]],
    )
)
def test_redesign_on_the_prepared_target_is_the_unprepared_design(case):
    """Every redesign of a spec, the first and those after it, gives the
    bits of r_core, s_core, t, r and s that bezout_design and
    check_pole_placement give on a fresh copy of the target, or the same
    error type and message.  The explicit example is a target whose -0.0
    gives R'_0 = -0.0 unless the padded target reads it as 0.0."""
    spec, thetas = case
    for theta in thetas:
        assert _outcome_bits(spec.design, theta) == _outcome_bits(_unprepared_design, spec, theta)


THETA_NEAR = [[-0.9152 + 0.002 * k, -0.0609 - 0.0005 * k] for k in range(50)]
THETA_NEAR_2 = [[-1.2 + 0.003 * k, 0.35, 0.5, 0.2 - 0.001 * k] for k in range(50)]


@pytest.mark.parametrize(
    "overrides, thetas", [({}, THETA_NEAR), ({"na": 2, "nb": 2, "delay": 1}, THETA_NEAR_2)], ids=["1-1-0", "2-2-1"]
)
def test_a_spec_redesigns_without_lookups_and_pickles_without_kernels(monkeypatch, overrides, thetas):
    """After the first design, a redesign looks up no kernel and no prepared
    target: with the lookups replaced by stubs that raise, 50 redesigns give
    the unprepared path's bits.  A pickled spec holds no compiled kernel,
    only its fields, and designs the same bits."""
    spec = design_spec(**overrides)
    want = [_bits(_unprepared_design(spec, theta)) for theta in thetas]
    spec.design(thetas[0])

    def lookup(*args):
        raise AssertionError("a redesign looked up a kernel or a target")

    for name in ("_kernel", "_padded_target", "_monic_target", "_bezout_general", "_placement_error"):
        monkeypatch.setattr(control, name, lookup)
    assert [_bits(spec.design(theta)) for theta in thetas] == want
    monkeypatch.undo()

    copy = pickle.loads(pickle.dumps(spec))
    assert copy == spec and set(vars(copy)) == {f.name for f in dataclasses.fields(spec)}
    assert [_bits(copy.design(theta)) for theta in thetas] == want


def test_a_prepared_target_decides_what_it_does_not_fit_as_the_plain_target():
    """A prepared target given a model of other orders or delay, other
    fixed parts, or a controller of other lengths than its kernels' (a PI
    law, a general-route design) is decided as its plain copy: the same
    bits, error value or error.  With na = 0 its kernels read no a
    coefficient, and still reject a model that has one."""
    spec = RstDesignSpec(PoleSpec(5.0, 1.0, Ts), na=0, nb=3)
    b = (-0.05, 0.02, 0.01)
    spec.design(b)
    prepared, plain = spec._prepared, DelayPolynomial(spec.target.coeffs)
    cases = [
        (DiscretePlantModel((), b, 0, Ts), spec.hs, spec.hr),
        (DiscretePlantModel((-0.9,), b, 0, Ts), spec.hs, spec.hr),
        (DiscretePlantModel((), b[:2], 0, Ts), spec.hs, spec.hr),
        (DiscretePlantModel((), (*b, 0.005), 0, Ts), spec.hs, spec.hr),
        (DiscretePlantModel((), b, 1, Ts), spec.hs, spec.hr),
        (DiscretePlantModel((), b, 0, Ts), DelayPolynomial((1.0, -1.0)), spec.hr),
        (DiscretePlantModel((), b, 0, Ts), ONE, spec.hr),
        (DiscretePlantModel((), b, 0, Ts), spec.hs, ONE),
        (DiscretePlantModel((-0.9,), b, 0, Ts), ONE, ONE),
        (DiscretePlantModel((), (-0.05, 0.02, 1e-15), 0, Ts), spec.hs, spec.hr),  # general route
    ]
    for model, hs, hr in cases:
        assert _outcome_bits(bezout_design, model, prepared, hs, hr) == _outcome_bits(
            bezout_design, model, plain, hs, hr
        )
    general = bezout_design(cases[-1][0], plain, spec.hs, spec.hr)
    assert len(general.s.coeffs) < len(spec.design(b).s.coeffs)
    controllers = [spec.design(b), general, pi_design(-0.9, -0.05, dominant_poles(spec.pole), Ts)]
    models = [DiscretePlantModel((-0.9,), (-0.05,), 0, Ts)] + [model for model, _, _ in cases]
    for ctrl in controllers:
        for model in models:
            checks = [
                _outcome(lambda: check_pole_placement(model, ctrl, target).hex())
                for target in (prepared, plain)
            ]
            assert checks[0] == checks[1]


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
