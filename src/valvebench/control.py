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

from . import _kernels
from ._kernels import SYLVESTER_MAX_COND, kernel as _kernel, law_source as _law_source
from .errors import DesignError
from .fileio import format_float
from .plant import DiscretePlantModel, _record_sensor

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

    @classmethod
    def _of_floats(cls, coeffs) -> "DelayPolynomial":
        """The polynomial the constructor builds from a non-empty sequence of
        finite floats, which the caller has checked; the instance dict is
        filled directly."""
        poly = object.__new__(cls)
        poly.__dict__["coeffs"] = tuple(coeffs)
        return poly

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
    if abs(vals[-1]) > rel_tol * scale:
        return vals
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
        k = i
        for y in b:
            out[k] += x * y
            k += 1
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

    Every controller carries `_law`, the coefficient tuples (S, R, T) that
    :class:`ControllerRuntime` and :func:`check_pole_placement` read.  A
    solved design (:meth:`_of_parts`) holds `_law` and its R' and S' in
    private entries and builds its five polynomial fields (`r_core`,
    `s_core`, `t`, `r`, `s`) at the first read of any of them, dropping
    R' and S' then; an adaptive loop that redesigns every sample builds
    none of them.
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
        object.__setattr__(self, "_law", (self.s.coeffs, self.r.coeffs, self.t.coeffs))

    def __getattr__(self, name):
        # Reached only for a name missing from the instance dict: the
        # polynomials of a solved design, on their first read.
        d = self.__dict__
        if name in ("r_core", "s_core", "t", "r", "s") and "_cores" in d:
            poly = DelayPolynomial._of_floats
            (s, r, t), (r_core, s_core) = d["_law"], d.pop("_cores")
            d.update(r_core=poly(r_core), s_core=poly(s_core), t=poly(t), r=poly(r), s=poly(s))
            return d[name]
        raise AttributeError(f"'RstController' object has no attribute {name!r}")

    @classmethod
    def _solved(cls, r_core, s_core, t_gain, r, s, Ts, hr, hs) -> "RstController":
        """The controller of a solved design, whose R = H_R R' and
        S = H_S S' are already formed by :func:`_convolve` as the constructor
        forms them; they are stored as tuples.  The constructor's checks on values run here
        (coefficients finite, s0 = 1); Ts is a validated model's.  The
        instance dicts are filled directly."""
        if not all(map(math.isfinite, (*r_core, *s_core, t_gain, *r, *s))):
            raise ValueError("coefficients must be finite")
        if abs(s[0] - 1.0) > 1e-9:
            raise ValueError("S must be normalized with s0 = 1")
        return cls._of_parts(r_core, s_core, t_gain, tuple(r), tuple(s), Ts, hr, hs)

    @classmethod
    def _of_parts(cls, r_core, s_core, t_gain, r, s, Ts, hr, hs) -> "RstController":
        """The controller of checked parts, as :meth:`_solved` builds it: the
        law, whose R and S are tuples of floats, and the cores are stored
        as given, the polynomials built on first read."""
        ctrl = object.__new__(cls)
        ctrl.__dict__.update(_law=(s, r, (t_gain,)), _cores=(r_core, s_core), Ts=Ts, hr=hr, hs=hs)
        return ctrl

    def r_on_circle(self, omegas, Ts=None) -> np.ndarray:
        z = unit_circle(omegas, Ts or self.Ts)
        return self.hr(z) * self.r_core(z)

    def s_on_circle(self, omegas, Ts=None) -> np.ndarray:
        z = unit_circle(omegas, Ts or self.Ts)
        return self.hs(z) * self.s_core(z)


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


@functools.lru_cache(maxsize=32)
def _padded_target(n: int, pole_coeffs: tuple) -> tuple | None:
    """P trimmed and padded with zeros to the n rows of a Sylvester system,
    as the design kernel reads it, each -0.0 as 0.0 (x + 0.0), since a
    cache key takes the two as one; None when its degree exceeds n - 1."""
    p = _trimmed(pole_coeffs)
    return None if len(p) > n else tuple([c + 0.0 for c in p] + [0.0] * (n - len(p)))


def _design_kernel(na, nb, delay, hs, hr, pole_coeffs):
    """(design kernel, padded target) for a model of these orders and delay,
    these fixed parts and this target; (None, None) where no kernel applies
    or the target does not fit the Sylvester system."""
    kernel = _kernel(_kernels.design_source, na, nb, delay, hs.coeffs, hr.coeffs)
    p = None if kernel is None else _padded_target(
        na + len(hs.coeffs) + delay + nb + len(hr.coeffs) - 2, pole_coeffs
    )
    return (None, None) if p is None else (kernel, p)


def _designed_by_lookup(model, pole_poly, hs, hr):
    """The design kernel's answer, the kernel found by the model's shape, or
    None where no kernel applies or the kernel declines."""
    a, b = model.a_coeffs, model.b_coeffs
    kernel, p = _design_kernel(len(a), len(b), model.delay, hs, hr, pole_poly.coeffs)
    return None if kernel is None else kernel(a, b, p)


def _declined(*args) -> None:
    """The answer of a prepared target's kernel where no kernel applies."""
    return None


class _PreparedTarget(DelayPolynomial):
    """A target with what a redesign looks up resolved once, for the fixed
    parts `hs`, `hr` and the `delay` it holds: the design kernel of the
    spec's shape and the padded target (`design`, `padded`), and the
    pole-check kernel of the S and R lengths a kernel design gives and the
    monic target (`check`, `wanted`); `_declined` where no kernel applies.
    It holds compiled kernels, so it is never pickled."""


def _prepared_target(pole_poly, na, nb, delay, hs, hr) -> _PreparedTarget:
    """pole_poly prepared for models of these orders and delay under these
    fixed parts (:class:`_PreparedTarget`)."""
    design, padded = _design_kernel(na, nb, delay, hs, hr, pole_poly.coeffs)
    wanted = _monic_target(pole_poly.coeffs)
    check = _declined if wanted is None else _kernel(
        _kernels.pole_check_source, na, nb, delay, *_law_lengths(na, nb, delay, hs, hr), len(wanted)
    )
    target = object.__new__(_PreparedTarget)
    target.__dict__.update(
        coeffs=pole_poly.coeffs, hs=hs, hr=hr, delay=delay, design=design or _declined,
        padded=padded, check=check, wanted=wanted,
    )
    return target


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

    Runs the design kernel of the model's orders and delay and the fixed
    parts (:func:`valvebench._kernels.design_source`) on the padded target
    (:func:`_padded_target`); the general route (:func:`_bezout_general`)
    decides each input that the kernel or the padding declines.  A target
    that :class:`valvebench.adapt.RstDesignSpec` prepared
    (:class:`_PreparedTarget`), with the fixed parts and delay it was
    prepared for, brings its kernel and padded target, so nothing is looked
    up; a model of other orders, which that kernel rejects by its
    unpacking, is designed as above.
    """
    if (pole_poly.__class__ is _PreparedTarget and hs is pole_poly.hs and hr is pole_poly.hr
            and model.delay == pole_poly.delay):
        try:
            solved = pole_poly.design(model.a_coeffs, model.b_coeffs, pole_poly.padded)
        except ValueError:  # a model of other orders than the target's
            solved = _designed_by_lookup(model, pole_poly, hs, hr)
    else:
        solved = _designed_by_lookup(model, pole_poly, hs, hr)
    if solved is None:
        return _bezout_general(model, pole_poly, hs, hr)
    return RstController._of_parts(*solved, model.Ts, hr, hs)


def _bezout_general(model, pole_poly, hs, hr) -> RstController:
    """:func:`bezout_design` on coefficient lists, for any input: the
    Sylvester matrix M is checked by its SVD and M x = P solved by LAPACK.
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
    if n_a < 1:
        raise DesignError(
            "A H_S has degree 0: it leaves no R', so no feedback can place the poles"
        )
    n = n_a + n_b
    p = _trimmed(pole_poly.coeffs)  # not _padded_target's: a -0.0 stays, as in the oracle
    if len(p) > n:
        raise DesignError(f"desired polynomial degree {len(p) - 1} exceeds solvable degree {n - 1}")
    p += [0.0] * (n - len(p))
    # Column j < n_b of M holds A1 from row j down, column n_b + j holds B1.
    M = np.zeros((n, n))
    for j in range(n_b):
        M[j:j + n_a + 1, j] = a1
    for j in range(n_a):
        M[j:j + n_b + 1, n_b + j] = b1
    cond = np.linalg.cond(M)
    if not cond <= SYLVESTER_MAX_COND:
        raise DesignError(
            f"Sylvester matrix condition {cond:.3g} exceeds {SYLVESTER_MAX_COND:.0e}; "
            "plant and fixed parts likely share a common factor"
        )
    sol = np.linalg.solve(M, p).tolist()
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
    return RstController._solved(
        r_core, s_core, t_gain, r, _convolve(hs.coeffs, s_core), model.Ts, hr, hs
    )


def _law_lengths(na, nb, delay, hs, hr) -> tuple[int, int]:
    """The lengths of S = H_S S' and R = H_R R' that the design kernel
    gives for a model of these orders and delay: the lengths before
    trimming."""
    hs_len, hr_len = len(hs.coeffs), len(hr.coeffs)
    return hs_len + delay + nb + hr_len - 2, hr_len + na + hs_len - 2


def rst_law_length(
    na: int, nb: int, delay: int, hs: DelayPolynomial, hr: DelayPolynomial
) -> int:
    """The most coefficients an R or S of :func:`bezout_design` can have for
    a model of these orders and delay: the lengths before trimming, of
    S = H_S S' and R = H_R R'."""
    return max(_law_lengths(na, nb, delay, hs, hr))


def _closed_loop(model: DiscretePlantModel, controller: RstController) -> list[float]:
    """Coefficients of A S + q^-d B R."""
    a, b = _model_arrays(model)
    s, r, _ = controller._law
    as_ = _convolve(a, s)
    br = _convolve(b, r)
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

    Runs the kernel of the model's orders and delay and the lengths of S, R
    and the monic target (:func:`valvebench._kernels.pole_check_source`) on
    :func:`_monic_target`; :func:`_placement_error` decides the rest.  A
    prepared target (:class:`_PreparedTarget`), with the delay it was
    prepared for, brings its monic target and the kernel of the lengths a
    kernel design gives, so nothing is looked up; a model or controller of
    other lengths (a general-route design), which that kernel rejects by
    its unpacking, is checked as above.
    """
    s, r, _ = controller._law
    if pole_poly.__class__ is _PreparedTarget and model.delay == pole_poly.delay:
        wanted = pole_poly.wanted
        try:
            err = pole_poly.check(model.a_coeffs, model.b_coeffs, s, r, wanted)
        except ValueError:  # S, R or the model of other lengths than the target's
            err = _checked_by_lookup(model, s, r, wanted)
    else:
        wanted = _monic_target(pole_poly.coeffs)
        err = _checked_by_lookup(model, s, r, wanted)
    if err is None:
        err = _placement_error(model, controller, wanted)
    if err > tol:
        raise DesignError(f"pole placement error {err:.3g} exceeds {tol:.1e}")
    return err


def _checked_by_lookup(model, s, r, wanted) -> float | None:
    """The pole-check kernel's error, the kernel found by the lengths of the
    model, S, R and the monic target; None where there is no monic target or
    the kernel declines."""
    a, b = model.a_coeffs, model.b_coeffs
    return None if wanted is None else _kernel(
        _kernels.pole_check_source, len(a), len(b), model.delay, len(s), len(r), len(wanted),
    )(a, b, s, r, wanted)


def _placement_error(model, controller, wanted) -> float:
    """The error of :func:`check_pole_placement` for any input, against the
    monic target `wanted` (:func:`_monic_target`)."""
    achieved = _trimmed(_closed_loop(model, controller), 1e-9)
    lead = achieved[0]
    if lead == 0.0 or wanted is None:
        raise DesignError("closed-loop polynomial lost its leading coefficient")
    # a padded 0.0 / lead is +-0.0, so the shorter side compares as zeros
    return max([abs(c / lead - v) for c, v in zip_longest(achieved, wanted, fillvalue=0.0)])


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

    `limits` is fixed at construction and stored as a pair of floats, so
    a clamped output is a float.  The law kernel
    (:func:`valvebench._kernels.law_source`) is resolved when `controller`
    is set, and looked up again only when the new law's length of S, R or
    T differs from the old one's, so a step looks nothing up and a swap
    between designs of one shape keeps its kernel.  :meth:`track` runs a
    record on Python floats, sensed by the plant's record-scoped sensor.
    """

    def __init__(
        self,
        controller: RstController,
        limits: tuple[float, float] | None = (0.0, 100.0),
        depth: int = 2,
    ):
        if limits is not None:
            lo, hi = limits
            limits = float(lo), float(hi)
        self._limits = limits
        self._shape = None  # the lengths of S, R and T the kernel is for
        self.controller = controller
        depth = max(depth, *map(len, controller._law))
        self._u = [0.0] * depth
        self._y = [0.0] * depth
        self._r = [0.0] * depth

    @property
    def controller(self) -> RstController:
        return self._controller

    @controller.setter
    def controller(self, controller: RstController) -> None:
        self._controller = controller
        s, r, t = self._law = controller._law
        shape = len(s), len(r), len(t)
        if shape != self._shape:
            self._shape = shape
            self._kernel = _kernel(_law_source, *shape, self._limits is not None)

    @property
    def limits(self) -> tuple[float, float] | None:
        return self._limits

    def prime(self, u: float = 0.0, y: float = 0.0, r: float = 0.0) -> None:
        """Fill histories with steady values (bumpless start at a setpoint)."""
        self._u = [float(u)] * len(self._u)
        self._y = [float(y)] * len(self._y)
        self._r = [float(r)] * len(self._r)

    def step(self, y_t: float, r_t: float) -> tuple[float, bool]:
        """u(t) from S u = -R y + T r, clamped to `limits`; returns (u, saturated).

        No anti-windup correction is applied beyond the clamp.  The law runs
        in the kernel of the controller's lengths of S, R and T
        (:func:`valvebench._kernels.law_source`), resolved when the
        controller was set, which converts y_t and r_t to floats, appends
        u, y_t and r_t to the histories and drops their oldest values; u is
        a Python float.
        """
        s, r, t = self._law
        return self._kernel(s, r, t, self._u, self._y, self._r, y_t, r_t, self._limits)

    def track(self, plant, reference) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sampled loop measure -> step -> advance, once per reference
        sample, from the current histories.  `plant` provides
        measure()/advance(); its record-scoped sensor, where it has one,
        senses the record as measure() would.  Returns (y, u, saturated)
        arrays, built once the loop ends."""
        ys, us, sats = [], [], []
        step, advance = self.step, plant.advance
        references = np.asarray(reference, dtype=float).tolist()
        with _record_sensor(plant, len(references)) as measure:
            for r_k in references:
                y_k = measure()
                u_k, saturated = step(y_k, r_k)
                advance(u_k)
                ys.append(y_k)
                us.append(u_k)
                sats.append(saturated)
        return np.array(ys, dtype=float), np.array(us, dtype=float), np.array(sats, dtype=bool)


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
