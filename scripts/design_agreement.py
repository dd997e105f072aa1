"""Agreement of bezout_design with the LAPACK oracle on seeded random designs.

bezout_design solves the Sylvester system with its straight-line design
kernel; every design the kernel declines takes the general route, which
checks the Sylvester matrix by its SVD and solves it with np.linalg.solve.
The oracle (`_bezout_design_oracle` in tests/test_control.py) forms every
product as a DelayPolynomial, checks every Sylvester matrix by its SVD and
solves it with np.linalg.solve.  This script runs both, each followed by its
pole check at 1e-9, on plants with na, nb in {1, 2, 3} and delay in
{0, 1, 2}, H_S and H_R each on or off, 0 to 2 auxiliary poles, and five
kinds of plant: generic, a small gain (|b| down to 1e-3), a pole near the
Nyquist zero of H_R, a zero near the integrator of H_S, and A and B near a
common root.

It prints the largest difference of R, S and T scaled by cond_2(M) eps and
the largest coefficient, the SVD calls on each side, the kernels compiled
(the misses of `_kernels.kernel`, one per source and shape), the designs
that take the general route, the accept/reject differences inside the pole
check's band, and the mismatches: any pair of outcomes that breaks the
agreement rule of tests/test_control.py, and any general-route design whose
r_core, s_core, t, r and s, or error, are not the oracle's bit for bit.  It
exits 1 if there is a mismatch.

Run:  python scripts/design_agreement.py [--designs 20000] [--seed 0]
"""

import argparse
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tests"))

import test_control as oracle  # noqa: E402

from valvebench import _kernels  # noqa: E402
from valvebench.control import (  # noqa: E402
    HR_NYQUIST_ZERO,
    HS_INTEGRATOR,
    ONE,
    DelayPolynomial,
    PoleSpec,
    bezout_design,
    check_pole_placement,
    desired_poles,
)
from valvebench.plant import DiscretePlantModel  # noqa: E402

KINDS = ("generic", "small_b", "a_near_nyquist", "b_near_integrator", "near_common_root")
TS = 0.05


def draw_case(rng: np.random.Generator, kind: str):
    """(model, target, hs, hr) of one random design of the given kind."""
    na, nb, delay = (int(v) for v in rng.integers((1, 1, 0), (4, 4, 3)))
    hs = HS_INTEGRATOR if rng.random() < 0.5 else ONE
    hr = HR_NYQUIST_ZERO if rng.random() < 0.5 else ONE
    a = np.concatenate(([1.0], rng.uniform(-2, 2, na)))
    b = rng.uniform(-2, 2, nb)
    gap = 10.0 ** rng.uniform(-12, -2)
    if kind == "small_b":
        b *= 10.0 ** rng.uniform(-3, 0)
    elif kind == "a_near_nyquist":  # a pole near z = -1, the root of H_R
        a = np.convolve([1.0, 1.0 - gap], a[:na])
        hr = HR_NYQUIST_ZERO
    elif kind == "b_near_integrator" and nb >= 2:  # a zero near z = 1, H_S's
        b = np.convolve([1.0, -(1.0 - gap)], b[: nb - 1])
        hs = HS_INTEGRATOR
    elif kind == "near_common_root" and nb >= 2:
        root = rng.uniform(-0.99, 0.99)
        a = np.convolve([1.0, -root], a[:na])
        b = np.convolve([1.0, -(root + gap)], b[: nb - 1])
    model = DiscretePlantModel(tuple(a[1:].tolist()), tuple(b.tolist()), delay, TS)
    aux = DelayPolynomial((1.0, *rng.uniform(-0.95, 0.95, int(rng.integers(0, 3))).tolist()))
    pole = PoleSpec(rng.uniform(0.5, 30.0), rng.uniform(0.3, 2.0), TS, auxiliary=aux)
    return model, desired_poles(pole), hs, hr


def checked(design, check, model, target, hs, hr):
    """(outcome of the design and its pole check, controller or None)."""
    ctrl, err = oracle._outcome(design, model, target, hs=hs, hr=hr)
    if err is None:
        _, err = oracle._outcome(check, model, ctrl, target, oracle.POLE_TOL)
    return (ctrl if err is None else None, err), ctrl


def scaled_deviation(ctrl, ref, M) -> float:
    """Largest difference of R, S and T over cond_2(M) eps times the
    largest coefficient of the oracle's R and S."""
    scale = oracle.EPS * np.linalg.cond(M) * max(map(abs, ref.r.coeffs + ref.s.coeffs))
    diffs = [abs(g - w) for g, w in zip(ctrl.r.coeffs + ctrl.s.coeffs, ref.r.coeffs + ref.s.coeffs)]
    diffs.append(abs(ctrl.t.coeffs[0] - ref.t.coeffs[0]) / len(ref.r.coeffs))
    return max(diffs) / scale


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--designs", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    svd = dict.fromkeys(("kernel", "oracle", "rule"), 0)
    counting = ["rule"]
    real_cond = np.linalg.cond

    def counted_cond(M):
        svd[counting[0]] += 1
        return real_cond(M)

    worst, accepted, n_general, mismatches = 0.0, 0, 0, []
    in_band = {"kernel": 0, "oracle": 0}  # differences, by the side that accepts
    np.linalg.cond = counted_cond
    try:
        for i in range(args.designs):
            kind = KINDS[i % len(KINDS)]
            model, target, hs, hr = draw_case(rng, kind)
            counting[0] = "kernel"
            got, ctrl = checked(bezout_design, check_pole_placement, model, target, hs, hr)
            counting[0] = "oracle"
            ref, ref_ctrl = checked(
                oracle._bezout_design_oracle, oracle._check_pole_placement_oracle,
                model, target, hs, hr,
            )
            counting[0] = "rule"  # the agreement rule's own SVDs, and the bit checks'
            if not oracle._kernel_answers(model, target, hs, hr):  # the general route
                n_general += 1
                bits = [
                    oracle._design_bits(fn, model, target, hs, hr)
                    for fn in (bezout_design, oracle._bezout_design_oracle)
                ]
                if bits[0] != bits[1]:
                    mismatches.append((i, kind, model, target, hs, hr, *bits))
            try:
                oracle._assert_outcomes_agree(got, ref, model, target, hs, hr, pole_check=True)
            except AssertionError:
                mismatches.append((i, kind, model, target, hs, hr, got[1], ref[1]))
            else:
                if (got[1] is None) != (ref[1] is None):
                    in_band["kernel" if got[1] is None else "oracle"] += 1
            if ctrl is not None and ref_ctrl is not None:
                M = oracle._design_matrix(model, hs, hr)[0]
                worst = max(worst, scaled_deviation(ctrl, ref_ctrl, M))
                accepted += got[1] is None
    finally:
        np.linalg.cond = real_cond

    print(f"designs: {args.designs} (seed {args.seed}), accepted by both pole checks: {accepted}")
    print(f"largest deviation of R, S, T: {worst:.3g} cond_2(M) eps "
          f"(the tests allow {oracle.K_COND})")
    print(f"SVD calls: kernel {svd['kernel']}, oracle {svd['oracle']}")
    print(f"kernels compiled: {_kernels.kernel.cache_info().misses} (one per source and shape)")
    print(f"general-route designs: {n_general} (each checked bit for bit against the oracle)")
    print(f"accept/reject differences inside the pole check's band: kernel accepts "
          f"{in_band['kernel']}, oracle accepts {in_band['oracle']}")
    print(f"mismatches: {len(mismatches)}")
    for i, kind, model, target, hs, hr, err, ref_err in mismatches[:10]:
        print(f"  design {i} ({kind}): {model}, P = {target.coeffs}, H_S = {hs.coeffs}, "
              f"H_R = {hr.coeffs}: {err} against the oracle's {ref_err}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
