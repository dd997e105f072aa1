import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valvebench.adapt import RstDesignSpec
from valvebench.control import (
    HR_NYQUIST_ZERO,
    HS_INTEGRATOR,
    ONE,
    SYLVESTER_MAX_COND,
    ControllerRuntime,
    DelayPolynomial,
    PoleSpec,
    RstController,
    bezout_design,
    check_pole_placement,
    closed_loop_polynomial,
    controller_to_text,
    desired_poles,
    dominant_poles,
    model_polynomials,
    pi_design,
    sensitivity,
    unit_circle,
)
from valvebench.errors import DesignError
from valvebench.fileio import parse_key_values
from valvebench.plant import DiscretePlantModel

Ts = 0.05
PLANT = DiscretePlantModel((-0.9152,), (-0.0609,), 0, Ts)

coeff_lists = st.lists(st.floats(-5, 5), min_size=1, max_size=5)


@settings(max_examples=80, deadline=None)
@given(p=coeff_lists, q=coeff_lists, omega=st.floats(0.1, 62.0))
def test_delay_polynomial_algebra(p, q, omega):
    P = DelayPolynomial(tuple(p))
    Q = DelayPolynomial(tuple(q))
    z = complex(np.exp(1j * omega * Ts))
    np.testing.assert_allclose((P * Q)(z), P(z) * Q(z), rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose((P + Q)(z), P(z) + Q(z), rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose((3.0 * P)(z), 3.0 * P(z), rtol=1e-12, atol=1e-12)


def test_delay_polynomial_degree_and_trim():
    p = DelayPolynomial((1.0, 2.0, 0.0, 0.0))
    assert p.degree == 1
    assert p.trimmed().coeffs == (1.0, 2.0)
    assert DelayPolynomial((0.0,)).is_zero()
    assert DelayPolynomial(()).coeffs == (0.0,)
    roots = DelayPolynomial((1.0, -0.5)).roots()
    np.testing.assert_allclose(roots, [0.5])


def test_unit_circle_snaps_nyquist():
    z = unit_circle(np.array([math.pi / Ts]), Ts)
    assert z[0] == -1.0 + 0.0j


def test_dominant_poles_damping_cases():
    crit = dominant_poles(PoleSpec(5.0, 1.0, Ts))
    z1 = math.exp(-5.0 * Ts)
    np.testing.assert_allclose(crit.coeffs, (1.0, -2 * z1, z1 * z1), rtol=1e-12)
    under = dominant_poles(PoleSpec(5.0, 0.7, Ts))
    r = np.roots(under.coeffs)
    assert abs(r[0].imag) > 0  # complex pair
    np.testing.assert_allclose(abs(r[0]), math.exp(-0.7 * 5.0 * Ts), rtol=1e-12)


def test_pole_spec_validation():
    with pytest.raises(ValueError):
        PoleSpec(0.0, 1.0, Ts)
    with pytest.raises(ValueError):
        PoleSpec(5.0, -0.1, Ts)
    with pytest.raises(ValueError):
        PoleSpec(70.0, 1.0, Ts)  # omega0 Ts above pi


def test_desired_poles_include_auxiliary():
    spec = PoleSpec(5.0, 1.0, Ts, auxiliary=DelayPolynomial((1.0, -0.3)))
    full = desired_poles(spec)
    assert full.degree == 3
    # the auxiliary factor 1 - 0.3 q^-1 vanishes at z = 0.3
    assert abs(full(0.3)) < 1e-12
    assert any(abs(r - 0.3) < 1e-9 for r in full.roots())


def test_pi_places_the_poles():
    """The defining property: A S + B R equals the requested polynomial."""
    target = dominant_poles(PoleSpec(5.0, 1.0, Ts))
    ctrl = pi_design(-0.9152, -0.0609, target, Ts)
    achieved = closed_loop_polynomial(PLANT, ctrl).trimmed(1e-12)
    np.testing.assert_allclose(achieved.coeffs, target.coeffs, rtol=0, atol=1e-12)
    # T = R(1) makes the closed-loop DC gain exactly one
    t_gain = ctrl.t(1.0)
    b1 = PLANT.b_coeffs[0]
    p_at_1 = achieved(1.0)
    np.testing.assert_allclose(t_gain * b1 / p_at_1, 1.0, rtol=1e-12)


def test_pi_design_rejects_degenerate_inputs():
    target = dominant_poles(PoleSpec(5.0, 1.0, Ts))
    with pytest.raises(DesignError):
        pi_design(-0.9, 0.0, target, Ts)
    with pytest.raises(DesignError):
        pi_design(-0.9, 0.5, DelayPolynomial((1.0, -0.5)), Ts)


def test_bezout_with_unit_hr_reduces_to_pi():
    target = dominant_poles(PoleSpec(5.0, 1.0, Ts))
    pi = pi_design(-0.9152, -0.0609, target, Ts)
    bz = bezout_design(PLANT, target, hs=HS_INTEGRATOR, hr=ONE)
    np.testing.assert_allclose(bz.r.coeffs, pi.r.coeffs, rtol=1e-12)
    np.testing.assert_allclose(bz.s.coeffs, pi.s.coeffs, rtol=1e-12)


def test_bezout_fixed_parts_give_exact_nulls():
    target = dominant_poles(PoleSpec(5.0, 1.0, Ts))
    ctrl = bezout_design(PLANT, target, hs=HS_INTEGRATOR, hr=HR_NYQUIST_ZERO)
    assert ctrl.r_on_circle(np.array([math.pi / Ts]))[0] == 0.0
    assert ctrl.s_on_circle(np.array([0.0]))[0] == 0.0
    assert check_pole_placement(PLANT, ctrl, target) < 1e-12


def test_bezout_failure_modes():
    target = dominant_poles(PoleSpec(5.0, 1.0, Ts))
    with pytest.raises(DesignError):
        bezout_design(DiscretePlantModel((-0.9,), (0.0,), 0, Ts), target)
    with pytest.raises(DesignError):
        # plant pole at z = -1 shares a root with H_R: singular Sylvester system
        bezout_design(DiscretePlantModel((1.0,), (0.5,), 0, Ts), target)
    with pytest.raises(DesignError):
        too_high = target * target  # degree 4 beats the solvable degree
        bezout_design(PLANT, too_high)
    with pytest.raises(ValueError, match="s0 = 1"):
        # H_S leads with 2, so S does too: the controller's normalization
        bezout_design(PLANT, target, hs=DelayPolynomial((2.0, -2.0)))


def test_check_pole_placement_flags_mismatch():
    target = dominant_poles(PoleSpec(5.0, 1.0, Ts))
    ctrl = bezout_design(PLANT, target)
    other = dominant_poles(PoleSpec(8.0, 1.0, Ts))
    with pytest.raises(DesignError):
        check_pole_placement(PLANT, ctrl, other)


def test_controller_normalization_enforced():
    with pytest.raises(ValueError):
        RstController(
            r_core=DelayPolynomial((1.0,)),
            s_core=DelayPolynomial((2.0,)),
            t=DelayPolynomial((1.0,)),
            Ts=Ts,
        )


def test_sensitivity_functions_sum_to_one():
    target = dominant_poles(PoleSpec(5.0, 1.0, Ts))
    ctrl = bezout_design(PLANT, target)
    analysis = sensitivity(PLANT, ctrl)
    a_poly, b_poly = model_polynomials(PLANT)
    z = unit_circle(analysis.omegas, Ts)
    p_v = a_poly(z) * ctrl.s_on_circle(analysis.omegas) + b_poly(z) * ctrl.r_on_circle(
        analysis.omegas
    )
    syb = b_poly(z) * ctrl.r_on_circle(analysis.omegas) / p_v
    np.testing.assert_allclose(analysis.syp + syb, 1.0, rtol=0, atol=1e-10)
    # margin bookkeeping is consistent with the raw arrays
    np.testing.assert_allclose(analysis.modulus_margin, 1.0 / np.max(np.abs(analysis.syp)))
    np.testing.assert_allclose(analysis.margin_db, 20 * np.log10(analysis.modulus_margin))
    assert analysis.omegas[-1] == pytest.approx(math.pi / Ts)


def test_sensitivity_rejects_tiny_grids():
    target = dominant_poles(PoleSpec(5.0, 1.0, Ts))
    ctrl = bezout_design(PLANT, target)
    with pytest.raises(ValueError):
        sensitivity(PLANT, ctrl, n_freq=16)


def test_controller_text_round_trip():
    """Every polynomial of the controller reads back from its text at the
    9 significant digits it is written with."""
    target = dominant_poles(PoleSpec(5.0, 1.0, Ts))
    ctrl = bezout_design(PLANT, target, hs=HS_INTEGRATOR, hr=HR_NYQUIST_ZERO)
    entries = {e.key: e.value for e in parse_key_values(controller_to_text(ctrl))}
    assert float(entries["Ts"]) == ctrl.Ts
    polys = {"R": ctrl.r, "S": ctrl.s, "T": ctrl.t, "H_R": ctrl.hr, "H_S": ctrl.hs,
             "R_core": ctrl.r_core, "S_core": ctrl.s_core}
    assert set(entries) == {"Ts", *polys}
    for key, poly in polys.items():
        back = [float(v) for v in entries[key].split(",")]
        np.testing.assert_allclose(back, poly.coeffs, rtol=1e-8, atol=0)


def test_runtime_holds_steady_state():
    target = dominant_poles(PoleSpec(5.0, 1.0, Ts))
    ctrl = bezout_design(PLANT, target)
    rt = ControllerRuntime(ctrl, limits=None)
    rt.prime(u=-55.7, y=40.0, r=40.0)
    u, sat = rt.step(40.0, 40.0)
    assert not sat
    assert u == pytest.approx(-55.7, abs=1e-9)


def test_runtime_saturation_flag():
    target = dominant_poles(PoleSpec(5.0, 1.0, Ts))
    ctrl = bezout_design(PLANT, target)
    rt = ControllerRuntime(ctrl, limits=(0.0, 100.0))
    u, sat = rt.step(-500.0, 0.0)
    assert sat and u in (0.0, 100.0)


def controller_step_oracle(controller, u_hist, y_hist, r_hist, y_t, r_t, limits=(0.0, 100.0)):
    """The RST law as a free function over numpy histories, as it stood
    before ControllerRuntime.step took it over."""
    u_hist = np.asarray(u_hist, dtype=float)
    y_hist = np.asarray(y_hist, dtype=float)
    r_hist = np.asarray(r_hist, dtype=float)
    s_c = controller.s.coeffs
    r_c = controller.r.coeffs
    t_c = controller.t.coeffs
    if len(u_hist) < len(s_c) - 1 or len(y_hist) < len(r_c) - 1 or len(r_hist) < len(t_c) - 1:
        raise ValueError("history too short for controller degrees")
    u = t_c[0] * r_t - r_c[0] * y_t
    for i in range(1, len(s_c)):
        u -= s_c[i] * u_hist[-i]
    for i in range(1, len(r_c)):
        u -= r_c[i] * y_hist[-i]
    for i in range(1, len(t_c)):
        u += t_c[i] * r_hist[-i]
    saturated = False
    if limits is not None:
        lo, hi = limits
        if u < lo:
            u, saturated = lo, True
        elif u > hi:
            u, saturated = hi, True
    return float(u), saturated


values = st.floats(-200.0, 200.0)
taps = st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(
    s_tail=st.lists(st.floats(-1.5, 1.5), max_size=3),
    r=taps,
    t=taps,
    limits=st.sampled_from([None, (0.0, 100.0)]),
    data=st.data(),
)
def test_runtime_step_matches_oracle(s_tail, r, t, limits, data):
    ctrl = RstController(
        r_core=DelayPolynomial(tuple(r)),
        s_core=DelayPolynomial((1.0, *s_tail)),
        t=DelayPolynomial(tuple(t)),
        Ts=Ts,
    )
    rt = ControllerRuntime(ctrl, limits=limits)
    depth = len(rt._u)
    hists = [data.draw(st.lists(values, min_size=depth, max_size=depth)) for _ in range(3)]
    rt._u, rt._y, rt._r = (list(h) for h in hists)
    u_h, y_h, r_h = (list(h) for h in hists)
    for y_t, r_t in data.draw(st.lists(st.tuples(values, values), min_size=1, max_size=6)):
        want = controller_step_oracle(ctrl, u_h, y_h, r_h, y_t, r_t, limits)
        assert rt.step(y_t, r_t) == want
        for hist, v in ((u_h, want[0]), (y_h, y_t), (r_h, r_t)):
            hist.append(v)
            hist.pop(0)


def test_runtime_track_is_measure_step_advance():
    target = dominant_poles(PoleSpec(5.0, 1.0, Ts))
    ctrl = bezout_design(PLANT, target)

    class Recorder:
        def __init__(self):
            self.calls = []

        def measure(self):
            self.calls.append("measure")
            return 0.5 * len(self.calls)

        def advance(self, u):
            self.calls.append(("advance", u))

    plant = Recorder()
    rt = ControllerRuntime(ctrl, limits=(0.0, 100.0))
    rt.prime(u=20.0, y=30.0, r=30.0)
    ref = np.array([30.0, 30.0, 35.0, 35.0])
    y, u, sat = rt.track(plant, ref)

    oracle = ControllerRuntime(ctrl, limits=(0.0, 100.0))
    oracle.prime(u=20.0, y=30.0, r=30.0)
    want = [oracle.step(yk, rk) for yk, rk in zip(y, ref)]
    assert list(u) == [w[0] for w in want] and list(sat) == [w[1] for w in want]
    assert plant.calls[0::2] == ["measure"] * 4
    assert plant.calls[1::2] == [("advance", uk) for uk in u]


# ---------------------------------------------------------------------------
# Object-level reference design: every product a DelayPolynomial


def _trimmed_oracle(poly, rel_tol=1e-12):
    cs = np.array(poly.coeffs)
    scale = np.abs(cs).max()
    if scale == 0.0:
        return DelayPolynomial((0.0,))
    keep = len(cs)
    while keep > 1 and abs(cs[keep - 1]) <= rel_tol * scale:
        keep -= 1
    return DelayPolynomial(tuple(cs[:keep]))


def _model_polynomials_oracle(model):
    a = DelayPolynomial((1.0, *model.a_coeffs))
    b = DelayPolynomial((0.0,) * (model.delay + 1) + model.b_coeffs)
    return a, b


def _sylvester_oracle(a1p, b1p):
    n_a, n_b = a1p.degree, b1p.degree
    M = np.zeros((n_a + n_b, n_a + n_b))
    a_c = np.array(a1p.coeffs)
    b_c = np.array(b1p.coeffs)
    for j in range(n_b):
        M[j : j + len(a_c), j] = a_c
    for j in range(n_a):
        M[j : j + len(b_c), n_b + j] = b_c
    return M


def _bezout_design_oracle(model, pole_poly, hs=HS_INTEGRATOR, hr=HR_NYQUIST_ZERO):
    a_poly, b_poly = _model_polynomials_oracle(model)
    a1p = _trimmed_oracle(a_poly * hs)
    b1p = _trimmed_oracle(b_poly * hr)
    if b1p.is_zero():
        raise DesignError("plant numerator is zero")
    n_a = a1p.degree
    n_b = b1p.degree
    if n_b < 1:
        raise DesignError("plant must have at least one step of delay")
    n_unknowns = n_a + n_b
    p = _trimmed_oracle(pole_poly)
    if p.degree > n_unknowns - 1:
        raise DesignError(
            f"desired polynomial degree {p.degree} exceeds solvable degree {n_unknowns - 1}"
        )
    M = _sylvester_oracle(a1p, b1p)
    cond = np.linalg.cond(M)
    if not np.isfinite(cond) or cond > SYLVESTER_MAX_COND:
        raise DesignError(
            f"Sylvester matrix condition {cond:.3g} exceeds {SYLVESTER_MAX_COND:.0e}; "
            "plant and fixed parts likely share a common factor"
        )
    rhs = np.zeros(n_unknowns)
    rhs[: p.degree + 1] = p.coeffs[: p.degree + 1]
    sol = np.linalg.solve(M, rhs)
    s_core = sol[:n_b]
    r_core = sol[n_b:]
    lead = s_core[0]
    if lead == 0.0 or not np.isfinite(lead):
        raise DesignError("degenerate solution with s0 = 0")
    s_core = s_core / lead
    r_core = r_core / lead
    r_poly = _trimmed_oracle(hr * DelayPolynomial(tuple(r_core)))
    t_gain = float(np.real(r_poly(1.0)))
    return RstController(
        r_core=DelayPolynomial(tuple(r_core)),
        s_core=DelayPolynomial(tuple(s_core)),
        t=DelayPolynomial((t_gain,)),
        Ts=model.Ts,
        hr=hr,
        hs=hs,
    )


def _closed_loop_polynomial_oracle(model, controller):
    a_poly, b_poly = _model_polynomials_oracle(model)
    return a_poly * controller.s + b_poly * controller.r


def _check_pole_placement_oracle(model, controller, pole_poly, tol=1e-9):
    achieved = _trimmed_oracle(_closed_loop_polynomial_oracle(model, controller), 1e-9)
    wanted = _trimmed_oracle(pole_poly, 1e-9)
    if achieved.coeffs[0] == 0.0 or wanted.coeffs[0] == 0.0:
        raise DesignError("closed-loop polynomial lost its leading coefficient")
    a = np.array(achieved.coeffs) / achieved.coeffs[0]
    w = np.array(wanted.coeffs) / wanted.coeffs[0]
    n = max(len(a), len(w))
    a = np.pad(a, (0, n - len(a)))
    w = np.pad(w, (0, n - len(w)))
    err = float(np.max(np.abs(a - w)))
    if err > tol:
        raise DesignError(f"pole placement error {err:.3g} exceeds {tol:.1e}")
    return err


def _outcome(fn, *args, **kwargs):
    """(result, None) or (None, (error type, message))."""
    try:
        return fn(*args, **kwargs), None
    except (DesignError, ValueError) as err:
        return None, (type(err), str(err))


unit_coeff = st.floats(-0.95, 0.95, allow_subnormal=False)


@st.composite
def design_cases(draw):
    na = draw(st.sampled_from([1, 2, 3]))
    nb = draw(st.sampled_from([1, 2, 3]))
    delay = draw(st.sampled_from([0, 1]))
    hr = draw(st.sampled_from([ONE, HR_NYQUIST_ZERO]))
    a_poly = np.array([1.0] + draw(st.lists(st.floats(-2, 2), min_size=na, max_size=na)))
    b = np.array(draw(st.lists(st.floats(-2, 2), min_size=nb, max_size=nb)))
    case = draw(st.sampled_from(["generic", "zero_b", "a_nyquist", "b_integrator"]))
    if case == "zero_b":
        b[:] = 0.0
    elif case == "a_nyquist":  # A shares the root z = -1 of H_R
        a_poly = np.convolve([1.0, 1.0], a_poly[:na])
    elif case == "b_integrator" and nb >= 2:  # B shares the root z = 1 of H_S
        b = np.convolve([1.0, -1.0], b[: nb - 1])
    model = DiscretePlantModel(tuple(a_poly[1:]), tuple(b), delay, Ts)
    aux = DelayPolynomial(
        (1.0, *draw(st.lists(unit_coeff, min_size=0, max_size=2)))
    )
    pole = PoleSpec(
        draw(st.floats(0.5, 30.0)), draw(st.floats(0.3, 2.0)), Ts, auxiliary=aux
    )
    return model, pole, hr


def _assert_spec_design_matches_oracle(model, pole, hr):
    """RstDesignSpec.design is the oracle's design followed by its pole
    check at 1e-9: the same controller or the same error."""
    spec = RstDesignSpec(
        pole, na=model.na, nb=model.nb, delay=model.delay, hs=HS_INTEGRATOR, hr=hr
    )
    designed = _outcome(spec.design, model.a_coeffs + model.b_coeffs)
    ref, ref_err = _outcome(_bezout_design_oracle, model, spec.target, hr=hr)
    if ref_err is None:
        _, ref_err = _outcome(_check_pole_placement_oracle, model, ref, spec.target, 1e-9)
    assert designed == ((ref, None) if ref_err is None else (None, ref_err))
    return designed


@settings(max_examples=300, deadline=None)
@given(case=design_cases(), other=st.floats(0.5, 30.0))
def test_array_design_matches_object_oracle(case, other):
    """The list-level design and pole check equal the DelayPolynomial ones,
    and so does RstDesignSpec.design: same r, s, t coefficients, or the same
    error message."""
    model, pole, hr = case
    target = desired_poles(pole)
    ctrl, err = _outcome(bezout_design, model, target, hs=HS_INTEGRATOR, hr=hr)
    ref, ref_err = _outcome(_bezout_design_oracle, model, target, hs=HS_INTEGRATOR, hr=hr)
    assert err == ref_err
    _assert_spec_design_matches_oracle(model, pole, hr)
    a_poly, b_poly = model_polynomials(model)
    assert (a_poly, b_poly) == _model_polynomials_oracle(model)
    if ctrl is None:
        return
    assert ctrl.r.coeffs == ref.r.coeffs
    assert ctrl.s.coeffs == ref.s.coeffs
    assert ctrl.t.coeffs == ref.t.coeffs
    assert closed_loop_polynomial(model, ctrl) == _closed_loop_polynomial_oracle(model, ctrl)
    mismatch = dominant_poles(PoleSpec(other, 1.0, Ts))
    for wanted in (target, mismatch):
        assert _outcome(check_pole_placement, model, ctrl, wanted) == _outcome(
            _check_pole_placement_oracle, model, ctrl, wanted
        )


@pytest.mark.parametrize("hr", [ONE, HR_NYQUIST_ZERO], ids=["no-hr", "nyquist-hr"])
@pytest.mark.parametrize(
    "model",
    [PLANT, DiscretePlantModel((-1.2, 0.35), (0.5, 0.2), 1, Ts)],
    ids=["first-order", "second-order-delayed"],
)
def test_designed_controller_is_the_constructed_one(model, hr):
    """bezout_design fills the instance dicts itself; its controller compares
    and hashes equal to the one the constructors build from the same parts,
    field by field, with the same fields set."""
    ctrl = bezout_design(model, desired_poles(PoleSpec(5.0, 1.0, Ts)), hs=HS_INTEGRATOR, hr=hr)
    ref = RstController(
        r_core=DelayPolynomial(ctrl.r_core.coeffs),
        s_core=DelayPolynomial(ctrl.s_core.coeffs),
        t=DelayPolynomial(ctrl.t.coeffs),
        Ts=ctrl.Ts,
        hr=hr,
        hs=HS_INTEGRATOR,
    )
    assert ctrl == ref and hash(ctrl) == hash(ref)
    assert vars(ctrl).keys() == vars(ref).keys()
    for name, value in vars(ref).items():
        got = getattr(ctrl, name)
        assert type(got) is type(value)
        if isinstance(value, DelayPolynomial):
            assert vars(got) == vars(value) and hash(got) == hash(value)
            assert all(type(c) is float for c in got.coeffs)


# A plant pole 5.62e-10 inside z = -1, the root of H_R: the Sylvester matrix
# is conditioned 8.1e9 in the 2-norm but 1.19e10 by the Frobenius bound.
NEAR_COMMON = 1.0 - 5.62e-10


@pytest.mark.parametrize(
    "a, b, message",
    [
        ((1.0,), (0.5,), "common factor"),  # A = 1 + q^-1: M is singular
        ((-0.9,), (0.0,), "plant numerator is zero"),
        ((-0.9, 0.0), (0.5, 0.1), None),  # a_2 = 0 drops a degree of R'
        ((NEAR_COMMON,), (0.5,), "pole placement error"),  # cond_F > 1e10 >= cond_2
    ],
)
def test_design_edge_cases_match_oracle(monkeypatch, a, b, message):
    """bezout_design and RstDesignSpec.design at each edge of the design
    against the object-level oracle, which checks every Sylvester matrix by
    its SVD: bezout_design takes the SVD only when the Frobenius bound on the
    condition number exceeds SYLVESTER_MAX_COND, or M is singular."""
    model = DiscretePlantModel(a, b, 0, Ts)
    pole = PoleSpec(5.0, 1.0, Ts)
    target = desired_poles(pole)
    svd_calls = []
    cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda M: svd_calls.append(M) or cond(M))
    got = _outcome(bezout_design, model, target)
    monkeypatch.undo()
    assert got == _outcome(_bezout_design_oracle, model, target)
    designed = _assert_spec_design_matches_oracle(model, pole, HR_NYQUIST_ZERO)
    assert (designed[1] is None) == (message is None)
    if message is not None:
        assert message in designed[1][1]
    if b == (0.0,):
        assert svd_calls == []
        return
    a_poly, b_poly = _model_polynomials_oracle(model)
    M = _sylvester_oracle(
        _trimmed_oracle(a_poly * HS_INTEGRATOR), _trimmed_oracle(b_poly * HR_NYQUIST_ZERO)
    )
    try:
        bound = np.linalg.norm(M) * np.linalg.norm(np.linalg.inv(M))
    except np.linalg.LinAlgError:
        bound = math.inf
    assert len(svd_calls) == (not bound <= SYLVESTER_MAX_COND)
    if a == (NEAR_COMMON,):
        assert np.linalg.cond(M) <= SYLVESTER_MAX_COND < bound
