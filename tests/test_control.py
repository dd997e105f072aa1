import copy
import dataclasses
import math
import pickle
import struct
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valvebench.adapt import RstDesignSpec
from valvebench import _kernels
from valvebench.control import (
    HR_NYQUIST_ZERO,
    HS_INTEGRATOR,
    ONE,
    SYLVESTER_MAX_COND,
    ControllerRuntime,
    DelayPolynomial,
    PoleSpec,
    RstController,
    _closed_loop,
    _convolve,
    _design_source,
    _model_arrays,
    _monic_target,
    _padded_target,
    _pole_check_source,
    _trimmed,
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


def _runtime_step_loop(runtime, y_t, r_t):
    """ControllerRuntime.step as the loop over the controller's polynomials
    that it was before the law kernel took it over; it updates the
    runtime's histories as the step does."""
    ctrl = runtime.controller
    s_c, r_c, t_c = ctrl.s.coeffs, ctrl.r.coeffs, ctrl.t.coeffs
    u_h, y_h, r_h = runtime._u, runtime._y, runtime._r
    u = t_c[0] * r_t - r_c[0] * y_t
    for i in range(1, len(s_c)):
        u -= s_c[i] * u_h[-i]
    for i in range(1, len(r_c)):
        u -= r_c[i] * y_h[-i]
    for i in range(1, len(t_c)):
        u += t_c[i] * r_h[-i]
    saturated = False
    if runtime.limits is not None:
        lo, hi = runtime.limits
        if u < lo:
            u, saturated = lo, True
        elif u > hi:
            u, saturated = hi, True
    u = float(u)
    u_h.append(u)
    u_h.pop(0)
    y_h.append(float(y_t))
    y_h.pop(0)
    r_h.append(float(r_t))
    r_h.pop(0)
    return u, saturated


def _random_controller(rng, len_s, len_r, len_t):
    return RstController(
        r_core=DelayPolynomial(tuple(rng.uniform(-3, 3, len_r))),
        s_core=DelayPolynomial((1.0, *rng.uniform(-1.5, 1.5, len_s - 1))),
        t=DelayPolynomial(tuple(rng.uniform(-3, 3, len_t))),
        Ts=Ts,
    )


def _runtime_bits(runtime, out):
    """(u, saturated) and the three histories, floats as their bytes."""
    u, sat = out
    hists = (runtime._u, runtime._y, runtime._r)
    return struct.pack("d", u), sat, [struct.pack(f"{len(h)}d", *h) for h in hists]


LAW_LENGTHS = [(ls, lr, lt) for ls in range(1, 6) for lr in range(1, 6) for lt in range(1, 6)]


def test_law_kernel_matches_loop_oracle(monkeypatch):
    """The compiled law against the loop it replaced, bit for bit in u, the
    saturation flag and all three histories: every length of S, R and T
    from 1 to 5, clamped and unclamped, outputs beyond each limit, a swap
    to a longer controller within the depth, and non-finite measurements,
    which pass through as the loop passes them.  One kernel is built per
    shape."""
    built = []
    compiled = _kernels.compiled

    def counting(code, name):
        built.append(name)
        return compiled(code, name)

    monkeypatch.setattr(_kernels, "compiled", counting)
    _kernels.kernel.cache_clear()
    rng = np.random.default_rng(11)
    ys = [0.0, 1.5, -2.0, 1e4, -1e4, 35.0, 7.0, -3e3, 0.25, math.inf, -math.inf, math.nan]
    shapes = set()
    for lengths in LAW_LENGTHS:
        for limits in ((-10.0, 10.0), None):
            ctrl = _random_controller(rng, *lengths)
            longer = _random_controller(rng, 5, 5, 5)
            runs = [ControllerRuntime(ctrl, limits=limits, depth=5) for _ in range(2)]
            hists = [rng.uniform(-20, 20, 5).tolist() for _ in range(3)]
            for rt in runs:
                rt._u, rt._y, rt._r = (list(h) for h in hists)
            kernel_rt, loop_rt = runs
            saturated = set()
            for k, y_t in enumerate(ys):
                if k == len(ys) // 2:  # swap mid-run, keeping the histories
                    kernel_rt.controller = loop_rt.controller = longer
                r_t = float(rng.uniform(-20, 20))
                got = kernel_rt.step(y_t, r_t)
                want = _runtime_step_loop(loop_rt, y_t, r_t)
                assert _runtime_bits(kernel_rt, got) == _runtime_bits(loop_rt, want)
                if got[1]:
                    saturated.add(got[0])
            assert saturated == ({-10.0, 10.0} if limits else set())
            shapes |= {(*lengths, limits is not None), (5, 5, 5, limits is not None)}
    assert len(built) == len(shapes) == len(set(built))


def test_law_kernel_leaves_its_polynomials_alone():
    """The kernel reads S, R and T, given as lists here, and changes only
    the three histories."""
    s, r, t = [1.0, -0.5, 0.25], [2.0, -1.0], [1.0]
    law = copy.deepcopy((s, r, t))
    hists = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]
    _kernels.kernel(_kernels.law_source, 3, 2, 1, True)(s, r, t, *hists, 4.5, 5.5, (0.0, 100.0))
    assert (s, r, t) == law
    assert hists[0][:2] == [2.0, 3.0]
    assert hists[1] == [5.0, 6.0, 4.5] and hists[2] == [8.0, 9.0, 5.5]


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


def test_runtime_resolves_its_kernel_when_the_controller_changes():
    """The kernel is resolved per installed controller: after each swap (to
    longer S, R and T, back, and to new coefficients of the same lengths),
    every step of a clamped and of an unclamped runtime agrees with the
    loop oracle reading the current controller, so no stale kernel runs.
    `limits` is fixed at construction."""
    rng = np.random.default_rng(3)
    short, long = _random_controller(rng, 2, 2, 1), _random_controller(rng, 4, 3, 2)
    for limits in ((0.0, 100.0), None):
        runtime = ControllerRuntime(short, limits=limits, depth=4)
        oracle = ControllerRuntime(short, limits=limits, depth=4)
        saturated = []
        for controller in (long, short, _random_controller(rng, 2, 2, 1)):
            runtime.controller = oracle.controller = controller
            for y_t, r_t in rng.uniform(-300.0, 300.0, (6, 2)).tolist():
                got = runtime.step(y_t, r_t)
                want = _runtime_step_loop(oracle, y_t, r_t)
                assert _runtime_bits(runtime, got) == _runtime_bits(oracle, want)
                saturated.append(got[1])
            assert runtime.controller is controller and runtime.limits == limits
        assert any(saturated) != (limits is None) and not all(saturated)
        with pytest.raises(AttributeError):
            runtime.limits = (0.0, 100.0)


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


# The design kernel solves the Sylvester system in its own order of
# operations, so its r, s and t differ from the LAPACK solve of the oracle by
# rounding (the general route is the oracle's solve, bit for bit):
# at most K_COND cond_2(M) eps relative to the largest coefficient of R and
# S (times the length of R for t = R(1), a sum of R's coefficients).
# Backward-stable elimination on both sides bounds the difference by a small
# multiple of cond_2(M) eps; on 20 000 seeded designs
# (scripts/design_agreement.py) it stays below 0.7 of it.
K_COND = 32
EPS = np.finfo(float).eps
# The pole check compares rounding residue of size about cond_2(M) eps with
# its tolerance, and the two solves round differently, so near the tolerance
# one side may accept what the other rejects.  That is allowed only where the
# oracle's pole-check error lies within the band _pole_check_band gives
# around POLE_TOL: the most by which R and S within K_COND cond_2(M) eps can
# move a coefficient of A S + q^-d B R.
POLE_TOL = 1e-9
POLE_CHECK_ERROR = "pole placement error"


def _design_matrix(model, hs, hr):
    """The oracle's Sylvester matrix of the design, with its trimmed A1 and
    B1 as coefficient lists."""
    a_poly, b_poly = _model_polynomials_oracle(model)
    a1p, b1p = _trimmed_oracle(a_poly * hs), _trimmed_oracle(b_poly * hr)
    return _sylvester_oracle(a1p, b1p), list(a1p.coeffs), list(b1p.coeffs)


def _assert_controllers_close(ctrl, ref, cond):
    tol = K_COND * cond * EPS * max(map(abs, ref.r.coeffs + ref.s.coeffs))
    for got, want in ((ctrl.r.coeffs, ref.r.coeffs), (ctrl.s.coeffs, ref.s.coeffs)):
        assert len(got) == len(want)
        assert max(abs(g - w) for g, w in zip(got, want)) <= tol
    (t_got,), (t_want,) = ctrl.t.coeffs, ref.t.coeffs
    assert abs(t_got - t_want) <= tol * len(ref.r.coeffs)


def _assert_outcomes_agree(got, ref, model, target, hs, hr, pole_check=False):
    """Two _outcome pairs of a design, the second the oracle's: the same
    error type and message, or controllers within K_COND cond_2(M) eps.
    With pole_check, a pole-check rejection matches one with any error
    value, and one side may pass the check the other fails only where the
    oracle's error is inside the band of _pole_check_band."""
    (ctrl, err), (ref_ctrl, ref_err) = got, ref
    if err is not None and ref_err is not None:
        assert err[0] is ref_err[0]
        if pole_check and ref_err[1].startswith(POLE_CHECK_ERROR):
            assert err[1].startswith(POLE_CHECK_ERROR)
        else:
            assert err == ref_err
    elif err is None and ref_err is None:
        _assert_controllers_close(ctrl, ref_ctrl, np.linalg.cond(_design_matrix(model, hs, hr)[0]))
    else:
        assert pole_check and (err or ref_err)[1].startswith(POLE_CHECK_ERROR)
        ref_ctrl = _bezout_design_oracle(model, target, hs=hs, hr=hr)
        oracle_error = _check_pole_placement_oracle(model, ref_ctrl, target, math.inf)
        assert abs(oracle_error - POLE_TOL) <= _pole_check_band(model, ref_ctrl, hs, hr)


def _pole_check_band(model, ctrl, hs, hr):
    """Half-width of the band around POLE_TOL in which the two designs may
    differ in their pole check: K_COND cond_2(M) eps times the largest
    coefficient of R and S times |A|_1 + |B|_1.  A S + q^-d B R is monic
    here (a_0 = s_0 = 1, and q^-d B has a zero lead)."""
    a_poly, b_poly = _model_polynomials_oracle(model)
    M = _design_matrix(model, hs, hr)[0]
    coeffs = max(map(abs, ctrl.r.coeffs + ctrl.s.coeffs))
    norms = sum(map(abs, a_poly.coeffs)) + sum(map(abs, b_poly.coeffs))
    return K_COND * np.linalg.cond(M) * EPS * coeffs * norms


def _gepp_sylvester_source(n_a, n_b, pole_coeffs):
    """Source of kernel(a1, b1) -> (x, bound): the Sylvester solve that the
    design kernel inlines, from _kernels.sylvester_lines for A1 of degree
    n_a and B1 of degree n_b (B1[0] = 0) and this target.  It is Gaussian
    elimination with partial pivoting, bit for bit the kernel's, and the
    kernel's bound on cond_2(M); a zero pivot raises ZeroDivisionError."""
    p = _padded_target(n_a + n_b, pole_coeffs)
    return [
        "def kernel(a, b):",
        f"    {', '.join(f'a{k}' for k in range(n_a + 1))}, = a",
        f"    _, {', '.join(f'b{k}' for k in range(1, n_b + 1))}, = b",
        *_kernels.indented(_kernels.sylvester_lines(n_a, n_b, p)),
        f"    return [{', '.join(f'x{k}' for k in range(n_a + n_b))}], bound",
    ]


def _kernel_bound(model, target, hs, hr):
    """The condition bound of the design kernel's Sylvester solve, inf where
    its elimination meets a zero pivot; None where no solve applies."""
    M, a1, b1 = _design_matrix(model, hs, hr)
    if not any(b1) or len(b1) < 2 or len(target.trimmed().coeffs) > len(M):
        return None
    kernel = _kernels.kernel(_gepp_sylvester_source, len(a1) - 1, len(b1) - 1, target.coeffs)
    try:
        return kernel(a1, b1)[1]
    except ZeroDivisionError:
        return math.inf


def _cond_bound(M):
    """|M|_F^n / ((n - 1)^((n - 1) / 2) |det M|), inf for a singular M."""
    n = len(M)
    det = abs(np.linalg.det(M))
    return math.inf if det == 0.0 else np.linalg.norm(M) ** n / ((n - 1) ** ((n - 1) / 2) * det)


# Up to this 2-norm condition number the SVD's value keeps a few correct
# digits; past it M is numerically singular, and both the SVD's value and
# the kernel's bound are rounding residue.
COND_RESOLVED = 1e12


def _assert_bound_holds(bound, M):
    """The kernel's bound is at least cond_2(M) where the SVD resolves it,
    and past SYLVESTER_MAX_COND wherever the SVD does not."""
    assert bound >= min(np.linalg.cond(M), COND_RESOLVED) * (1 - 1e-3)


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
    check at 1e-9: the same controller within K_COND cond_2(M) eps, or the
    same error."""
    spec = RstDesignSpec(
        pole, na=model.na, nb=model.nb, delay=model.delay, hs=HS_INTEGRATOR, hr=hr
    )
    designed = _outcome(spec.design, model.a_coeffs + model.b_coeffs)
    ref, ref_err = _outcome(_bezout_design_oracle, model, spec.target, hr=hr)
    if ref_err is None:
        _, ref_err = _outcome(_check_pole_placement_oracle, model, ref, spec.target, POLE_TOL)
    _assert_outcomes_agree(
        designed, (ref if ref_err is None else None, ref_err), model, spec.target,
        HS_INTEGRATOR, hr, pole_check=True,
    )
    return designed


@settings(max_examples=300, deadline=None)
@given(case=design_cases(), other=st.floats(0.5, 30.0))
def test_array_design_matches_object_oracle(case, other):
    """The list-level design and pole check agree with the DelayPolynomial
    ones, and so does RstDesignSpec.design: r, s, t coefficients within
    K_COND cond_2(M) eps, or the same error message.  The kernel's
    condition bound is never below the SVD's condition number."""
    model, pole, hr = case
    target = desired_poles(pole)
    ctrl, err = got = _outcome(bezout_design, model, target, hs=HS_INTEGRATOR, hr=hr)
    ref = _outcome(_bezout_design_oracle, model, target, hs=HS_INTEGRATOR, hr=hr)
    _assert_outcomes_agree(got, ref, model, target, HS_INTEGRATOR, hr)
    _assert_spec_design_matches_oracle(model, pole, hr)
    a_poly, b_poly = model_polynomials(model)
    assert (a_poly, b_poly) == _model_polynomials_oracle(model)
    bound = _kernel_bound(model, target, HS_INTEGRATOR, hr)
    if bound is not None:
        _assert_bound_holds(bound, _design_matrix(model, HS_INTEGRATOR, hr)[0])
    if ctrl is None:
        return
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


def _designed():
    return bezout_design(PLANT, desired_poles(PoleSpec(5.0, 1.0, Ts)))


def _assert_same_controller(got, want):
    """Equal field by field, bit for bit, with the law of the polynomials."""
    assert got == want and hash(got) == hash(want)
    for f in dataclasses.fields(RstController):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert type(a) is type(b)
        if isinstance(b, DelayPolynomial):
            assert struct.pack(f"{len(a.coeffs)}d", *a.coeffs) == struct.pack(
                f"{len(b.coeffs)}d", *b.coeffs
            )
    assert got._law == (got.s.coeffs, got.r.coeffs, got.t.coeffs)


@pytest.mark.parametrize(
    "view",
    [
        lambda c: c,
        lambda c: pickle.loads(pickle.dumps(c)),
        copy.copy,
        copy.deepcopy,
        lambda c: dataclasses.replace(c),
    ],
    ids=["as-built", "pickle", "copy", "deepcopy", "replace"],
)
def test_designed_controller_builds_its_polynomials_on_first_read(view):
    """A design holds its law and its R' and S' until a polynomial is read;
    then it builds all five, drops R' and S', and is the constructor's
    controller.  A pickle, a copy or a replace of the unread design is too."""
    ctrl = _designed()
    assert {"r_core", "s_core", "t", "r", "s"}.isdisjoint(vars(ctrl))
    got = view(ctrl)
    ref = RstController(
        r_core=DelayPolynomial(got.r_core.coeffs),
        s_core=DelayPolynomial(got.s_core.coeffs),
        t=DelayPolynomial(got.t.coeffs),
        Ts=Ts,
        hr=HR_NYQUIST_ZERO,
        hs=HS_INTEGRATOR,
    )
    assert "_cores" not in vars(got) and "_law" in vars(got)
    _assert_same_controller(got, ref)
    assert vars(got).keys() == vars(ref).keys()
    assert _designed() == ctrl  # the original builds the same polynomials


def test_controller_reads_of_unknown_names_fail_as_attribute_errors():
    ctrl = _designed()
    for name in ("missing", "__setstate__", "_cores_x"):
        with pytest.raises(AttributeError, match=name):
            getattr(ctrl, name)
    bare = object.__new__(RstController)  # as an unpickler first sees it
    with pytest.raises(AttributeError, match="'r'"):
        bare.r


# A plant pole 5.62e-10 inside z = -1, the root of H_R: the Sylvester matrix
# is conditioned 8.1e9 in the 2-norm but 1.71e10 by the kernel's bound.
NEAR_COMMON = 1.0 - 5.62e-10


@pytest.mark.parametrize(
    "a, b, message",
    [
        ((1.0,), (0.5,), "common factor"),  # A = 1 + q^-1: M is singular
        ((-0.9,), (0.0,), "plant numerator is zero"),
        ((-0.9, 0.0), (0.5, 0.1), None),  # a_2 = 0 drops a degree of R'
        ((NEAR_COMMON,), (0.5,), "pole placement error"),  # bound > 1e10 >= cond_2
        ((-0.9,), (0.5,), None),  # the design kernel answers
    ],
)
def test_design_edge_cases_match_oracle(monkeypatch, a, b, message):
    """bezout_design and RstDesignSpec.design at each edge of the design
    against the object-level oracle, which checks every Sylvester matrix by
    its SVD.  bezout_design takes one SVD on the general route once its
    degree checks pass, and none where the design kernel answers; the
    kernel's bound |M|_F^n / ((n - 1)^((n - 1) / 2) |det M|) on the
    condition number is never below the SVD's."""
    model = DiscretePlantModel(a, b, 0, Ts)
    pole = PoleSpec(5.0, 1.0, Ts)
    target = desired_poles(pole)
    svd_calls = []
    cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda M: svd_calls.append(M) or cond(M))
    got = _outcome(bezout_design, model, target)
    monkeypatch.undo()
    ref = _outcome(_bezout_design_oracle, model, target)
    _assert_outcomes_agree(got, ref, model, target, HS_INTEGRATOR, HR_NYQUIST_ZERO)
    designed = _assert_spec_design_matches_oracle(model, pole, HR_NYQUIST_ZERO)
    assert (designed[1] is None) == (message is None)
    if message is not None:
        assert message in designed[1][1]
    general = not _kernel_answers(model, target, HS_INTEGRATOR, HR_NYQUIST_ZERO)
    if b == (0.0,):
        assert general and svd_calls == []
        return
    assert len(svd_calls) == general
    M = _design_matrix(model, HS_INTEGRATOR, HR_NYQUIST_ZERO)[0]
    bound = _cond_bound(M)
    kernel_bound = _kernel_bound(model, target, HS_INTEGRATOR, HR_NYQUIST_ZERO)
    _assert_bound_holds(kernel_bound, M)
    if math.isfinite(bound):
        assert kernel_bound == pytest.approx(bound, rel=1e-6)
    if a == (NEAR_COMMON,):
        assert np.linalg.cond(M) <= SYLVESTER_MAX_COND < bound


# ---------------------------------------------------------------------------
# Generic list-level design and pole check: the bit-for-bit references of
# the generated design and pole-check kernels


def _reference_bezout_design(model, pole_poly, hs=HS_INTEGRATOR, hr=HR_NYQUIST_ZERO):
    """The design kernel as generic Python on coefficient lists, for an
    input the kernel answers: the plain-loop elimination of _gepp_loop,
    within the kernel's bound (from _gepp_sylvester_source), then the
    normalisation, R = H_R R', S = H_S S' and T = R(1)."""
    a, b = _model_arrays(model)
    a1 = _trimmed(_convolve(a, hs.coeffs))
    b1 = _trimmed(_convolve(b, hr.coeffs))
    solve = _kernels.kernel(_gepp_sylvester_source, len(a1) - 1, len(b1) - 1, pole_poly.coeffs)
    assert solve(a1, b1)[1] <= SYLVESTER_MAX_COND
    sol = _gepp_loop(a1, b1, _padded_target(len(a1) + len(b1) - 2, pole_poly.coeffs))
    n_b = len(b1) - 1
    s_core = [v / sol[0] for v in sol[:n_b]]
    r_core = [v / sol[0] for v in sol[n_b:]]
    r = _convolve(hr.coeffs, r_core)
    t_gain = 0.0
    for c in reversed(_trimmed(r)):
        t_gain += c
    return RstController._solved(
        r_core, s_core, t_gain, r, _convolve(hs.coeffs, s_core), model.Ts, hr, hs
    )


def _reference_check_pole_placement(model, controller, pole_poly, tol=1e-9):
    """check_pole_placement as generic Python on coefficient lists."""
    achieved = _trimmed(_closed_loop(model, controller), 1e-9)
    wanted = _monic_target(pole_poly.coeffs)
    lead = achieved[0]
    if lead == 0.0 or wanted is None:
        raise DesignError("closed-loop polynomial lost its leading coefficient")
    err = max([abs(c / lead - v) for c, v in zip_longest(achieved, wanted, fillvalue=0.0)])
    if err > tol:
        raise DesignError(f"pole placement error {err:.3g} exceeds {tol:.1e}")
    return err


def _hex(values):
    return [v.hex() for v in values]


def _design_bits(fn, model, target, hs, hr):
    """r_core, s_core, t, r and s of a design as the hex of each float, or
    the error type and message."""
    try:
        ctrl = fn(model, target, hs=hs, hr=hr)
    except (DesignError, ValueError) as err:
        return type(err), str(err)
    return [_hex(getattr(ctrl, name).coeffs) for name in ("r_core", "s_core", "t", "r", "s")]


def _pole_check_bits(fn, model, ctrl, target, tol=1e-9):
    try:
        return fn(model, ctrl, target, tol).hex()
    except (DesignError, ValueError) as err:
        return type(err), str(err)


def _kernel_answers(model, target, hs, hr):
    """Whether the design kernel of this input answers it, rather than
    leaving it to the general route."""
    kernel = _kernels.kernel(
        _design_source, len(model.a_coeffs), len(model.b_coeffs), model.delay, hs.coeffs,
        hr.coeffs, target.coeffs,
    )
    return kernel is not None and kernel(model.a_coeffs, model.b_coeffs) is not None


def _assert_design_bits_match_reference(model, target, hs, hr):
    """bezout_design gives the bits of the kernel's reference where the
    design kernel answers, and of the LAPACK oracle where it declines: the
    same r_core, s_core, t, r and s, or the same error.  check_pole_placement
    gives its reference's bits: the same error value, or the same error."""
    reference = (
        _reference_bezout_design if _kernel_answers(model, target, hs, hr)
        else _bezout_design_oracle
    )
    got = _design_bits(bezout_design, model, target, hs, hr)
    assert got == _design_bits(reference, model, target, hs, hr)
    if isinstance(got, tuple):
        return got
    ctrl = bezout_design(model, target, hs=hs, hr=hr)
    _assert_pole_check_bits_match_reference(model, ctrl, target)
    return got


def _assert_pole_check_bits_match_reference(model, ctrl, target):
    """check_pole_placement gives its reference's bits, against the target
    and a shorter one, at the default tolerance and at none: the same error
    value, or the same error."""
    for wanted in (target, DelayPolynomial(target.coeffs[:2])):
        for tol in (1e-9, math.inf):
            assert _pole_check_bits(check_pole_placement, model, ctrl, wanted, tol) == (
                _pole_check_bits(_reference_check_pole_placement, model, ctrl, wanted, tol)
            )


FIXED_PARTS = [ONE, HS_INTEGRATOR, HR_NYQUIST_ZERO]


@settings(max_examples=300, deadline=None)
@given(
    na=st.integers(1, 3),
    nb=st.integers(1, 3),
    delay=st.integers(0, 2),
    hs=st.sampled_from(FIXED_PARTS),
    hr=st.sampled_from(FIXED_PARTS),
    n_aux=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_design_kernels_match_reference_bits(na, nb, delay, hs, hr, n_aux, seed):
    """On seeded estimates, bezout_design gives the bits of the design
    kernel's reference where the kernel answers and of the LAPACK oracle
    where it declines, and the pole-check kernel those of its reference:
    r_core, s_core, t, r, s and the pole-check error, or the same error type
    and message."""
    rng = np.random.default_rng(seed)
    model = DiscretePlantModel(
        tuple(rng.uniform(-2, 2, na)), tuple(rng.uniform(-2, 2, nb)), delay, Ts
    )
    aux = DelayPolynomial((1.0, *rng.uniform(-0.9, 0.9, n_aux)))
    pole = PoleSpec(float(rng.uniform(0.5, 30.0)), float(rng.uniform(0.3, 2.0)), Ts, aux)
    _assert_design_bits_match_reference(model, desired_poles(pole), hs, hr)


def test_design_kernel_runs_on_the_adaptive_redesign():
    """The default spec's redesign takes the generated kernels, not the
    general route, and their results are the reference's."""
    spec = RstDesignSpec(PoleSpec(5.0, 1.0, Ts))
    model = spec.model_from([-0.9152, -0.0609])
    key = (1, 1, 0, spec.hs.coeffs, spec.hr.coeffs, spec.target.coeffs)
    solved = _kernels.kernel(_design_source, *key)(model.a_coeffs, model.b_coeffs)
    ctrl = spec.design([-0.9152, -0.0609])
    assert solved is not None
    r_core, s_core, t_gain, r, s = solved
    assert [_hex(part) for part in (r_core, s_core, (t_gain,), r, s)] == [
        _hex(ctrl.r_core.coeffs), _hex(ctrl.s_core.coeffs), _hex(ctrl.t.coeffs),
        _hex(ctrl.r.coeffs), _hex(ctrl.s.coeffs),
    ]
    err = _kernels.kernel(_pole_check_source, 1, 1, 0, 3, 3, spec.target.coeffs)(
        model.a_coeffs, model.b_coeffs, ctrl.s.coeffs, ctrl.r.coeffs
    )
    assert err == _reference_check_pole_placement(model, ctrl, spec.target)


trim_values = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-12, 1.0, -1.0, 1e300, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(trim_values, min_size=1, max_size=5),
    constant=st.lists(st.booleans(), min_size=5, max_size=5),
)
def test_untrimmed_condition_is_the_trim_test(values, constant):
    """The trim guard a kernel evaluates, with each finite entry a name or a
    constant, holds exactly where |last| > 1e-12 max |e|, the test by which
    control._trimmed keeps every entry: at signed zeros, ties, subnormal and
    1e300-scale values."""
    entries = [v if c else f"e{k}" for k, (v, c) in enumerate(zip(values, constant))]
    held = _kernels.untrimmed_source(entries, 1e-12)
    if isinstance(held, str):
        held = eval(held, {f"e{k}": v for k, v in enumerate(values)})
    assert held == (abs(values[-1]) > 1e-12 * max(map(abs, values)))


def _gepp_loop(a1, b1, p):
    """x of M x = p for the Sylvester matrix M of A1 and B1 (B1[0] = 0), as
    plain loops over every entry: x_0 = p_0 / A1[0] from row 0, then
    Gaussian elimination with partial pivoting on rows and columns 1..n-1,
    in which row r takes the place of the pivot row k only where |m[r][k]|
    exceeds |m[k][k]|, so that the first of the largest magnitudes wins a
    tie.  It is the kernel's solve, with the operations on zero entries
    that the kernel leaves out."""
    n_a, n_b = len(a1) - 1, len(b1) - 1
    n = n_a + n_b
    M = [[0.0] * n for _ in range(n)]
    for j in range(n_b):
        for i, c in enumerate(a1):
            M[i + j][j] = c
    for j in range(n_a):
        for i, c in enumerate(b1):
            M[i + j][n_b + j] = c
    x0 = p[0] / M[0][0]
    m = [row[1:] for row in M[1:]]
    v = [p[i] - M[i][0] * x0 for i in range(1, n)]
    for k in range(n - 1):
        for r in range(k + 1, n - 1):
            if abs(m[r][k]) > abs(m[k][k]):
                m[k], m[r], v[k], v[r] = m[r], m[k], v[r], v[k]
        for r in range(k + 1, n - 1):
            q = m[r][k] / m[k][k]
            for j in range(k + 1, n - 1):
                m[r][j] -= q * m[k][j]
            v[r] -= q * v[k]
    x = [0.0] * (n - 1)
    for k in reversed(range(n - 1)):
        acc = v[k]
        for j in range(k + 1, n - 1):
            acc -= m[k][j] * x[j]
        x[k] = acc / m[k][k]
    return [x0, *x]


P2 = desired_poles(PoleSpec(5.0, 1.0, Ts)).coeffs[2]


@pytest.mark.parametrize(
    "a, b, delay, hs, hr, aux, general, message",
    [
        # a_2 at 1e-14 of A1: A1 trims a degree
        ((-0.9, 1e-14), (0.5, 0.1), 0, HS_INTEGRATOR, HR_NYQUIST_ZERO, None, True, None),
        # b_2 at 1e-14 of B1: B1 trims a degree
        ((-0.9,), (0.5, 1e-14), 0, HS_INTEGRATOR, HR_NYQUIST_ZERO, None, True, None),
        # a_2 = 0: A1 drops a degree
        ((-0.9, 0.0), (0.5, 0.1), 0, HS_INTEGRATOR, HR_NYQUIST_ZERO, None, True, None),
        ((-0.9,), (0.0,), 1, HS_INTEGRATOR, HR_NYQUIST_ZERO, None, True, "plant numerator is zero"),
        ((NEAR_COMMON,), (0.5,), 0, HS_INTEGRATOR, HR_NYQUIST_ZERO, None, True,
         "pole placement error"),
        ((1.0,), (0.5,), 0, HS_INTEGRATOR, HR_NYQUIST_ZERO, None, True, "common factor"),
        # B1 = q^-1 (b_1 + b_2) (1 + q^-1) overflows
        ((-0.9,), (1e308, 1e308), 0, ONE, HR_NYQUIST_ZERO, None, True,
         "coefficients must be finite"),
        # an auxiliary of degree 2 makes P of degree 4, past the 3 the system solves
        ((-0.9,), (0.5,), 0, HS_INTEGRATOR, HR_NYQUIST_ZERO, (1.0, -0.5, 0.06), True,
         "exceeds solvable degree"),
        ((-0.9,), (0.5,), 0, DelayPolynomial((2.0, -2.0)), ONE, None, True, "s0 = 1"),
        # a_2 = -0.0: A1 drops a degree on a signed zero
        ((-0.9, -0.0), (0.5, 0.1), 0, HS_INTEGRATOR, HR_NYQUIST_ZERO, None, True, None),
        # a_1 = -p_2 makes r'_1 zero in exact arithmetic: R's trailing term is
        # rounding residue, which the trim drops
        ((-P2,), (0.5,), 0, HS_INTEGRATOR, ONE, None, True, None),
        # |a_1| = |a_2|, the trim's largest magnitude twice
        ((-0.5, 0.5), (0.5,), 0, ONE, HR_NYQUIST_ZERO, None, False, None),
        # A1 = 1 - 0.5 q^-1 + 0 q^-2 - 0.5 q^-3 and B1 = q^-1 (0.5 + q^-1 + 0.5 q^-2):
        # each trailing magnitude ties an earlier one
        ((0.5, 0.5), (0.5, 0.5), 0, HS_INTEGRATOR, HR_NYQUIST_ZERO, None, False, None),
        # |m[2][1]| = |m[1][1]| = 1 > |m[3][1]|: the first row stays the
        # pivot (taking the second moves bits of R' and S')
        ((-1.0, 0.3), (0.37, 0.2), 0, ONE, HR_NYQUIST_ZERO, None, False, None),
        # subnormal coefficients: the trailing a_2 trims, a subnormal B1
        # leaves a numerically singular M
        ((-0.9, 5e-324), (0.5,), 0, HS_INTEGRATOR, HR_NYQUIST_ZERO, None, True, None),
        ((-0.9,), (5e-324,), 0, HS_INTEGRATOR, HR_NYQUIST_ZERO, None, True, "common factor"),
        # 1e300-scale coefficients: finite, with a condition bound that overflows
        ((-0.9,), (1e300,), 0, HS_INTEGRATOR, HR_NYQUIST_ZERO, None, True, "common factor"),
        ((1e300,), (0.5,), 0, HS_INTEGRATOR, HR_NYQUIST_ZERO, None, True, "common factor"),
    ],
    ids=["trimmed-a1", "trimmed-b1", "a2-zero", "zero-numerator", "near-common-factor",
         "common-factor", "non-finite", "p-too-high", "s0-not-one", "a2-minus-zero",
         "r-trailing-residue", "a-magnitude-tie", "a1-and-b1-magnitude-ties", "pivot-tie",
         "subnormal-a2", "subnormal-b", "huge-b", "huge-a"],
)
def test_design_kernel_edges_match_reference(a, b, delay, hs, hr, aux, general, message):
    """Each input the design kernel leaves to the general route takes it, and
    one it answers gives the bits of the plain-loop elimination; the design
    and RstDesignSpec.design raise what the reference raises, or give its
    bits, and so does the pole check."""
    model = DiscretePlantModel(a, b, delay, Ts)
    pole = PoleSpec(5.0, 1.0, Ts, DelayPolynomial(aux or (1.0,)))
    wanted = desired_poles(pole)
    assert _kernel_answers(model, wanted, hs, hr) != general
    got = _assert_design_bits_match_reference(model, wanted, hs, hr)
    if not general:
        a_arr, b_arr = _model_arrays(model)
        a1, b1 = _convolve(a_arr, hs.coeffs), _convolve(b_arr, hr.coeffs)
        x = _gepp_loop(a1, b1, _padded_target(len(a1) + len(b1) - 2, wanted.coeffs))
        n_b = len(b1) - 1
        ctrl = bezout_design(model, wanted, hs, hr)
        assert _hex(ctrl.s_core.coeffs) == _hex([v / x[0] for v in x[:n_b]])
        assert _hex(ctrl.r_core.coeffs) == _hex([v / x[0] for v in x[n_b:]])
    spec = RstDesignSpec(pole, na=len(a), nb=len(b), delay=delay, hs=hs, hr=hr)
    designed = _outcome(spec.design, a + b)
    if message is None:
        assert not isinstance(got, tuple) and designed[1] is None
    else:
        assert message in designed[1][1]
        if not message.startswith("pole placement"):
            assert designed[1] == got


@pytest.mark.parametrize(
    "a, b, r_core",
    [
        # a_1 = -0.0 and R = 0.3 - 0.0 q^-1: the trailing closed-loop
        # coefficient a_1 s_1 + b_1 r_1 is a sum of signed zeros, which the trim drops
        ((-0.0,), (0.5,), (0.3, -0.0)),
        # a trailing subnormal R
        ((-0.9,), (0.5,), (0.3, 5e-324)),
        # |c_0| = |c_1| = |c_2| = 1, the tolerance's largest magnitude three times
        ((-0.5,), (0.5,), (1.0, 1.0)),
        # 1e300-scale R: a closed loop far from the target, still finite
        ((-0.9,), (0.5,), (1e300, -1e300)),
        # 1e300-scale closed loop whose sum overflows
        ((-0.9,), (1e300,), (1e300, 1e300)),
    ],
    ids=["trailing-minus-zero", "trailing-subnormal", "magnitude-tie", "huge", "overflow"],
)
def test_pole_check_kernel_edges_match_reference(a, b, r_core):
    """On hand-made controllers with S = 1 - q^-1, the pole check gives its
    reference's bits at signed zeros, ties, subnormal and 1e300-scale
    coefficients."""
    model = DiscretePlantModel(a, b, 0, Ts)
    # R = R' as given, a -0.0 kept (the constructor's H_R R' would add it to 0.0)
    ctrl = RstController._solved(r_core, (1.0,), 1.0, r_core, (1.0, -1.0), Ts, ONE, HS_INTEGRATOR)
    assert ctrl._law[1] == r_core
    _assert_pole_check_bits_match_reference(model, ctrl, desired_poles(PoleSpec(5.0, 1.0, Ts)))
