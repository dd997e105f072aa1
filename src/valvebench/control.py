"""Digital controller synthesis and execution in RST form.

A controller  S(q^-1) u(t) = -R(q^-1) y(t) + T(q^-1) r(t)  is synthesised by
pole placement: the closed-loop characteristic polynomial  A S + q^-d B R  is
assigned a desired P, factored as dominant second-order dynamics times
optional auxiliary poles.  Fixed parts H_S and H_R (integral action, a zero
at the Nyquist frequency, ...) are imposed by solving the Bezout identity for
the remaining factors with a Sylvester matrix.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from itertools import zip_longest

import numpy as np

from .errors import DesignError
from .fileio import format_float
from .plant import DiscretePlantModel

SYLVESTER_MAX_COND = 1e10
DB_FLOOR = -400.0


@dataclass(frozen=True)
class DelayPolynomial:
    """Polynomial in the delay operator q^-1 with real coefficients c0..cm."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        cs = tuple(map(float, self.coeffs))
        if not cs:
            cs = (0.0,)
        if not all(map(math.isfinite, cs)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        for i in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[i] != 0.0:
                return i
        return 0

    def __mul__(self, other):
        if isinstance(other, DelayPolynomial):
            return DelayPolynomial(tuple(_convolve(self.coeffs, other.coeffs)))
        return DelayPolynomial(tuple(float(other) * c for c in self.coeffs))

    __rmul__ = __mul__

    def __add__(self, other: "DelayPolynomial") -> "DelayPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = np.zeros(n)
        b = np.zeros(n)
        a[: len(self.coeffs)] = self.coeffs
        b[: len(other.coeffs)] = other.coeffs
        return DelayPolynomial(tuple(a + b))

    def __call__(self, z):
        """Evaluate sum c_i z^-i for scalar or array z (z != 0)."""
        z = np.asarray(z, dtype=complex)
        acc = np.zeros_like(z)
        for c in reversed(self.coeffs):
            acc = acc / z + c
        if np.isscalar(z) or z.ndim == 0:
            val = complex(acc)
            return val.real if val.imag == 0.0 else val
        return acc

    def trimmed(self, rel_tol: float = 1e-12) -> "DelayPolynomial":
        return DelayPolynomial(tuple(_trimmed(self.coeffs, rel_tol)))

    def roots(self) -> np.ndarray:
        """Roots in the z plane of z^m P(z^-1)."""
        cs = self.trimmed().coeffs
        if len(cs) == 1:
            return np.array([], dtype=complex)
        return np.roots(cs)

    def is_zero(self, rel_tol: float = 0.0) -> bool:
        return all(abs(c) <= rel_tol for c in self.coeffs)


def _trimmed(cs, rel_tol: float = 1e-12) -> list[float]:
    """Coefficients without the trailing terms at or below rel_tol times the
    largest magnitude; all zero trims to [0].  The last kept term is nonzero
    unless the polynomial is zero, so the degree is len - 1.  Raises the
    same ValueError as :class:`DelayPolynomial` on a non-finite coefficient.
    """
    vals = list(cs)
    if not all(map(math.isfinite, vals)):
        raise ValueError("coefficients must be finite")
    scale = max(map(abs, vals))
    if scale == 0.0:
        return [0.0]
    keep = len(vals)
    while keep > 1 and abs(vals[keep - 1]) <= rel_tol * scale:
        keep -= 1
    return vals[:keep]


def _convolve(a, b) -> list[float]:
    """Coefficients of the product of two polynomials, as Python floats,
    each sum accumulated in index order.  Every product of polynomials in
    this module is formed here, so that a product carries the same bits
    whichever function forms it."""
    out = [0.0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


ONE = DelayPolynomial((1.0,))
# Common fixed parts: an integrator in S, and a zero of R at the Nyquist
# frequency (opens the loop at 0.5 fs, nulling the input sensitivity there).
HS_INTEGRATOR = DelayPolynomial((1.0, -1.0))
HR_NYQUIST_ZERO = DelayPolynomial((1.0, 1.0))


def unit_circle(omegas: np.ndarray, Ts: float) -> np.ndarray:
    """e^{j w Ts}, with the Nyquist point snapped to exactly -1."""
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    z = np.exp(1j * omegas * Ts)
    z[np.abs(omegas * Ts - math.pi) < 1e-12] = -1.0
    return z


def _model_arrays(model: DiscretePlantModel) -> tuple[list[float], list[float]]:
    """Coefficients of A and q^-d B, B including its implicit one-step delay."""
    return [1.0, *model.a_coeffs], [0.0] * (model.delay + 1) + list(model.b_coeffs)


def model_polynomials(model: DiscretePlantModel) -> tuple[DelayPolynomial, DelayPolynomial]:
    """(A, q^-d B) of the model, B including its implicit one-step delay."""
    a, b = _model_arrays(model)
    return DelayPolynomial(tuple(a)), DelayPolynomial(tuple(b))


@dataclass(frozen=True)
class PoleSpec:
    """Desired dominant closed-loop dynamics plus optional auxiliary poles."""

    omega0: float
    zeta: float
    Ts: float
    auxiliary: DelayPolynomial = ONE

    def __post_init__(self):
        if self.omega0 <= 0:
            raise ValueError("omega0 must be > 0")
        if self.zeta <= 0:
            raise ValueError("zeta must be > 0")
        if self.Ts <= 0:
            raise ValueError("Ts must be > 0")
        if self.omega0 * self.Ts >= math.pi:
            raise ValueError("omega0 Ts must be below pi (sampling too slow)")
        if self.auxiliary.is_zero():
            raise ValueError("auxiliary polynomial must not be zero")


def dominant_poles(spec: PoleSpec) -> DelayPolynomial:
    """Second-order polynomial 1 + p1 q^-1 + p2 q^-2 from (omega0, zeta).

    The continuous pole pair  s = -zeta w0 +/- w0 sqrt(zeta^2 - 1)  is mapped
    through z = exp(s Ts); complex pairs yield real coefficients.
    """
    w0, zeta, Ts = spec.omega0, spec.zeta, spec.Ts
    if zeta >= 1.0:
        root = math.sqrt(zeta * zeta - 1.0)
        z1 = math.exp((-zeta * w0 + w0 * root) * Ts)
        z2 = math.exp((-zeta * w0 - w0 * root) * Ts)
        p1 = -(z1 + z2)
        p2 = z1 * z2
    else:
        s = complex(-zeta * w0, w0 * math.sqrt(1.0 - zeta * zeta))
        z1 = cmath.exp(s * Ts)
        p1 = -2.0 * z1.real
        p2 = abs(z1) ** 2
    return DelayPolynomial((1.0, p1, p2))


def desired_poles(spec: PoleSpec) -> DelayPolynomial:
    return dominant_poles(spec) * spec.auxiliary


@dataclass(frozen=True)
class RstController:
    """RST control law with its generating factorization retained.

    R = H_R * R' and S = H_S * S'; keeping the parts lets evaluations at the
    fixed parts' zeros (z = 1 for the integrator, z = -1 for the Nyquist
    zero) return exact nulls instead of rounding residue.
    """

    r_core: DelayPolynomial
    s_core: DelayPolynomial
    t: DelayPolynomial
    Ts: float
    hr: DelayPolynomial = ONE
    hs: DelayPolynomial = ONE
    r: DelayPolynomial = field(init=False)
    s: DelayPolynomial = field(init=False)

    def __post_init__(self):
        if self.Ts <= 0:
            raise ValueError("Ts must be > 0")
        object.__setattr__(self, "r", self.hr * self.r_core)
        object.__setattr__(self, "s", self.hs * self.s_core)
        if abs(self.s.coeffs[0] - 1.0) > 1e-9:
            raise ValueError("S must be normalized with s0 = 1")

    def r_on_circle(self, omegas, Ts=None) -> np.ndarray:
        z = unit_circle(omegas, Ts or self.Ts)
        return self.hr(z) * self.r_core(z)

    def s_on_circle(self, omegas, Ts=None) -> np.ndarray:
        z = unit_circle(omegas, Ts or self.Ts)
        return self.hs(z) * self.s_core(z)


def _solved_controller(r_core, s_core, t_gain, r, s, Ts, hr, hs) -> RstController:
    """The :class:`RstController` of a solved design, whose R = H_R R' and
    S = H_S S' are already formed by :func:`_convolve` as the constructor
    forms them.  The constructor's checks on values run here (coefficients
    finite, s0 = 1); Ts is a validated model's."""
    if not all(map(math.isfinite, (*r_core, *s_core, t_gain, *r, *s))):
        raise ValueError("coefficients must be finite")
    if abs(s[0] - 1.0) > 1e-9:
        raise ValueError("S must be normalized with s0 = 1")
    ctrl = object.__new__(RstController)
    parts = (("r_core", r_core), ("s_core", s_core), ("t", (t_gain,)), ("r", r), ("s", s))
    for name, coeffs in parts:
        poly = object.__new__(DelayPolynomial)
        object.__setattr__(poly, "coeffs", tuple(coeffs))
        object.__setattr__(ctrl, name, poly)
    object.__setattr__(ctrl, "Ts", Ts)
    object.__setattr__(ctrl, "hr", hr)
    object.__setattr__(ctrl, "hs", hs)
    return ctrl


def pi_design(a1_hat: float, b1_hat: float, pole_poly: DelayPolynomial, Ts: float = 0.05) -> RstController:
    """Digital PI placing the poles of a first-order model at pole_poly.

    With S = 1 - q^-1 and R = r0 + r1 q^-1 the closed-loop polynomial of
    y(t) = -a1 y(t-1) + b1 u(t-1) matches 1 + p1 q^-1 + p2 q^-2 for

        r0 = (p1 - a1 + 1) / b1        r1 = (p2 + a1) / b1

    and T = r0 + r1 gives unit DC gain.
    """
    if b1_hat == 0.0 or not math.isfinite(b1_hat) or not math.isfinite(a1_hat):
        raise DesignError("PI design needs a finite model with b1 != 0")
    cs = pole_poly.trimmed().coeffs
    if len(cs) != 3 or cs[0] != 1.0:
        raise DesignError("pole polynomial must be monic of degree 2")
    _, p1, p2 = cs
    r0 = (p1 - a1_hat + 1.0) / b1_hat
    r1 = (p2 + a1_hat) / b1_hat
    return RstController(
        r_core=DelayPolynomial((r0, r1)),
        s_core=ONE,
        t=DelayPolynomial((r0 + r1,)),
        Ts=Ts,
        hr=ONE,
        hs=HS_INTEGRATOR,
    )


def _check_sylvester(M: np.ndarray) -> None:
    cond = np.linalg.cond(M)
    if not np.isfinite(cond) or cond > SYLVESTER_MAX_COND:
        raise DesignError(
            f"Sylvester matrix condition {cond:.3g} exceeds {SYLVESTER_MAX_COND:.0e}; "
            "plant and fixed parts likely share a common factor"
        )


@functools.lru_cache(maxsize=32)
def _sylvester_rhs(n: int, pole_coeffs: tuple) -> np.ndarray:
    """Right-hand sides of the Sylvester solve for n unknowns, each a single
    column: the trimmed target P first, so that its solution carries the
    bits of np.linalg.solve(M, P) alone, then the unit vectors, whose
    solutions are the columns of M^-1.  Read-only, shared by every design
    with this n and target."""
    p = _trimmed(pole_coeffs)
    if len(p) - 1 > n - 1:
        raise DesignError(
            f"desired polynomial degree {len(p) - 1} exceeds solvable degree {n - 1}"
        )
    rhs = np.eye(n + 1, n, -1)
    rhs[0, : len(p)] = p
    rhs = rhs[:, :, None]
    rhs.flags.writeable = False
    return rhs


def bezout_design(
    model: DiscretePlantModel,
    pole_poly: DelayPolynomial,
    hs: DelayPolynomial = HS_INTEGRATOR,
    hr: DelayPolynomial = HR_NYQUIST_ZERO,
) -> RstController:
    """Solve  A H_S S' + q^-d B H_R R' = P  for S', R' via a Sylvester system.

    Degrees follow the minimal unique solution: deg S' = deg(B1) - 1 and
    deg R' = deg(A1) - 1 with A1 = A H_S, B1 = q^-d B H_R.  T = R(1) yields
    unit closed-loop DC gain whenever S contains an integrator.  Raises
    :class:`DesignError` when the Sylvester matrix M is conditioned worse
    than SYLVESTER_MAX_COND (a common factor), the numerator is zero or P is
    of too high a degree.

    Works on coefficient lists; only M and its solve are numpy.  The same
    call that solves M x = P solves M for the unit vectors, which gives
    M^-1.  cond_F(M) = |M|_F |M^-1|_F is never below the 2-norm condition
    number (Golub & Van Loan, sec. 2.3), so the SVD of the condition check
    runs only when that bound exceeds SYLVESTER_MAX_COND, or when M is
    singular; then it decides, with the value it reports.  The right-hand
    sides are built once per size and target (:func:`_sylvester_rhs`).
    """
    a, b = _model_arrays(model)
    a1 = _trimmed(_convolve(a, hs.coeffs))
    b1 = _trimmed(_convolve(b, hr.coeffs))
    if not any(b1):
        raise DesignError("plant numerator is zero")
    n_a = len(a1) - 1
    n_b = len(b1) - 1
    if n_b < 1:
        raise DesignError("plant must have at least one step of delay")
    n = n_a + n_b
    rhs = _sylvester_rhs(n, pole_poly.coeffs)

    rows = [[0.0] * n for _ in range(n)]
    for j in range(n_b):  # columns for S' coefficients
        for i, c in enumerate(a1):
            rows[i + j][j] = c
    for j in range(n_a):  # columns for R' coefficients
        for i, c in enumerate(b1):
            rows[i + j][n_b + j] = c
    M = np.array(rows)
    try:
        x = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        _check_sylvester(M)
        raise
    sol, *inverse = x[:, :, 0].tolist()  # x, then the columns of M^-1
    norm_sq = n_b * sum([c * c for c in a1]) + n_a * sum([c * c for c in b1])
    inv_norm_sq = sum([v * v for col in inverse for v in col])
    if not norm_sq * inv_norm_sq <= SYLVESTER_MAX_COND**2:
        _check_sylvester(M)
    # Monic P against monic A1 pins s'_0 = 1; renormalize defensively so the
    # stored controller always has s0 = 1.
    lead = sol[0]
    if lead == 0.0 or not math.isfinite(lead):
        raise DesignError("degenerate solution with s0 = 0")
    s_core = [v / lead for v in sol[:n_b]]
    r_core = [v / lead for v in sol[n_b:]]
    r = _convolve(hr.coeffs, r_core)
    # R(1), summed from the highest power down as DelayPolynomial evaluates it
    t_gain = 0.0
    for c in reversed(_trimmed(r)):
        t_gain += c
    return _solved_controller(
        r_core, s_core, t_gain, r, _convolve(hs.coeffs, s_core), model.Ts, hr, hs
    )


def rst_law_length(
    na: int, nb: int, delay: int, hs: DelayPolynomial, hr: DelayPolynomial
) -> int:
    """The most coefficients an R or S of :func:`bezout_design` can have for
    a model of these orders and delay: the lengths before trimming, of
    S = H_S S' and R = H_R R'."""
    hs_len, hr_len = len(hs.coeffs), len(hr.coeffs)
    len_s = hs_len + delay + nb + hr_len - 2
    len_r = hr_len + na + hs_len - 2
    return max(len_s, len_r)


def _closed_loop(model: DiscretePlantModel, controller: RstController) -> list[float]:
    """Coefficients of A S + q^-d B R."""
    a, b = _model_arrays(model)
    as_ = _convolve(a, controller.s.coeffs)
    br = _convolve(b, controller.r.coeffs)
    if len(as_) < len(br):
        as_, br = br, as_
    for i, c in enumerate(br):
        as_[i] += c
    return as_


def closed_loop_polynomial(model: DiscretePlantModel, controller: RstController) -> DelayPolynomial:
    return DelayPolynomial(tuple(_closed_loop(model, controller)))


@functools.lru_cache(maxsize=32)
def _monic_target(coeffs: tuple) -> tuple | None:
    """A prescribed polynomial as the pole check compares it: trimmed at
    1e-9 and divided by its leading coefficient; None when that is zero."""
    wanted = _trimmed(coeffs, 1e-9)
    lead = wanted[0]
    return None if lead == 0.0 else tuple(c / lead for c in wanted)


def check_pole_placement(
    model: DiscretePlantModel,
    controller: RstController,
    pole_poly: DelayPolynomial,
    tol: float = 1e-9,
) -> float:
    """Distance between achieved and prescribed closed-loop polynomials.

    Compared coefficient-wise after monic normalization; root positions are
    ill-conditioned near multiple poles (the critically damped target has a
    double root) while the coefficients are not.  Raises
    :class:`DesignError` above tol.
    """
    achieved = _trimmed(_closed_loop(model, controller), 1e-9)
    wanted = _monic_target(pole_poly.coeffs)
    lead = achieved[0]
    if lead == 0.0 or wanted is None:
        raise DesignError("closed-loop polynomial lost its leading coefficient")
    diff = [c / lead for c in achieved]
    err = max(abs(d - v) for d, v in zip_longest(diff, wanted, fillvalue=0.0))
    if err > tol:
        raise DesignError(f"pole placement error {err:.3g} exceeds {tol:.1e}")
    return err


# ---------------------------------------------------------------------------
# Sensitivity analysis


@dataclass(frozen=True)
class SensitivityAnalysis:
    """Output and input sensitivity on a frequency grid."""

    omegas: np.ndarray
    syp: np.ndarray
    sup: np.ndarray
    Ts: float

    @property
    def syp_db(self) -> np.ndarray:
        return _db_floor(self.syp)

    @property
    def sup_db(self) -> np.ndarray:
        return _db_floor(self.sup)

    @property
    def max_syp_db(self) -> float:
        return float(np.max(self.syp_db))

    @property
    def modulus_margin(self) -> float:
        return float(1.0 / np.max(np.abs(self.syp)))

    @property
    def margin_db(self) -> float:
        """Modulus margin in dB (>= -6 dB means |Syp| stays under 6 dB)."""
        return float(20.0 * math.log10(self.modulus_margin))

    @property
    def sup_db_at_nyquist(self) -> float:
        return float(self.sup_db[-1])


def _db_floor(values: np.ndarray) -> np.ndarray:
    mag = np.abs(values)
    out = np.full(mag.shape, DB_FLOOR)
    nz = mag > 10 ** (DB_FLOOR / 20.0)
    out[nz] = 20.0 * np.log10(mag[nz])
    return out


def sensitivity(
    model: DiscretePlantModel, controller: RstController, n_freq: int = 512
) -> SensitivityAnalysis:
    """Evaluate Syp = A S / P and Sup = -A R / P on a log grid.

    The grid spans 0.01/Ts .. pi/Ts rad/s inclusive, so the Nyquist endpoint
    is always present.  P is the achieved polynomial A S + q^-d B R.
    """
    if n_freq < 64:
        raise ValueError("n_freq must be >= 64")
    Ts = controller.Ts
    omegas = np.geomspace(0.01 / Ts, math.pi / Ts, n_freq)
    omegas[-1] = math.pi / Ts
    a_poly, b_poly = model_polynomials(model)
    z = unit_circle(omegas, Ts)
    a_v = a_poly(z)
    b_v = b_poly(z)
    r_v = controller.hr(z) * controller.r_core(z)
    s_v = controller.hs(z) * controller.s_core(z)
    p_v = a_v * s_v + b_v * r_v
    if np.any(np.abs(p_v) == 0.0):
        raise DesignError("closed-loop polynomial vanishes on the unit circle")
    syp = a_v * s_v / p_v
    sup = -a_v * r_v / p_v
    return SensitivityAnalysis(omegas=omegas, syp=syp, sup=sup, Ts=Ts)


# ---------------------------------------------------------------------------
# Controller execution


class ControllerRuntime:
    """Mutable execution state (u, y, r histories) around an RST law.

    :meth:`step` is the one place the RST law S u = -R y + T r is evaluated:
    the real loop, the closed-loop predictor's parallel controller and every
    tracking run go through it.  Histories hold past values, most recent
    last, `depth` of them or more; the controller may be swapped for one
    whose R, S and T fit in them.
    """

    def __init__(
        self,
        controller: RstController,
        limits: tuple[float, float] | None = (0.0, 100.0),
        depth: int = 2,
    ):
        self.controller = controller
        self.limits = limits
        depth = max(
            depth, len(controller.s.coeffs), len(controller.r.coeffs), len(controller.t.coeffs)
        )
        self._u = [0.0] * depth
        self._y = [0.0] * depth
        self._r = [0.0] * depth

    def prime(self, u: float = 0.0, y: float = 0.0, r: float = 0.0) -> None:
        """Fill histories with steady values (bumpless start at a setpoint)."""
        self._u = [float(u)] * len(self._u)
        self._y = [float(y)] * len(self._y)
        self._r = [float(r)] * len(self._r)

    def step(self, y_t: float, r_t: float) -> tuple[float, bool]:
        """u(t) from S u = -R y + T r, clamped to `limits`; returns (u, saturated).

        No anti-windup correction is applied beyond the clamp.
        """
        ctrl = self.controller
        s_c, r_c, t_c = ctrl.s.coeffs, ctrl.r.coeffs, ctrl.t.coeffs
        u_h, y_h, r_h = self._u, self._y, self._r
        u = t_c[0] * r_t - r_c[0] * y_t
        for i in range(1, len(s_c)):
            u -= s_c[i] * u_h[-i]
        for i in range(1, len(r_c)):
            u -= r_c[i] * y_h[-i]
        for i in range(1, len(t_c)):
            u += t_c[i] * r_h[-i]
        saturated = False
        if self.limits is not None:
            lo, hi = self.limits
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

    def track(self, plant, reference) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sampled loop measure -> step -> advance, once per reference
        sample, from the current histories.  `plant` provides
        measure()/advance().  Returns (y, u, saturated) arrays."""
        T = len(reference)
        y = np.empty(T)
        u = np.empty(T)
        sat = np.zeros(T, dtype=bool)
        for k in range(T):
            yk = plant.measure()
            uk, s = self.step(yk, float(reference[k]))
            plant.advance(uk)
            y[k] = yk
            u[k] = uk
            sat[k] = s
        return y, u, sat


# ---------------------------------------------------------------------------
# Text export


def controller_to_text(controller: RstController) -> str:
    def fmt(poly: DelayPolynomial) -> str:
        return ", ".join(format_float(c) for c in poly.coeffs)

    lines = [
        f"Ts = {format_float(controller.Ts)}",
        f"R = {fmt(controller.r)}",
        f"S = {fmt(controller.s)}",
        f"T = {fmt(controller.t)}",
        f"H_R = {fmt(controller.hr)}",
        f"H_S = {fmt(controller.hs)}",
        f"R_core = {fmt(controller.r_core)}",
        f"S_core = {fmt(controller.s_core)}",
    ]
    return "\n".join(lines) + "\n"
