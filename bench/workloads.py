"""The three benchmark workloads and the output check of their ops.

An op is one call sequence into valvebench's public entry points
(`valvebench.cli.main`, `valvebench.adaptive_run`) that writes into its own
scratch directory and yields a report: the `name = value` lines of its
`report.txt` files, or the summary values of an adaptive run.  One pass is
eight ops, `PASS_OPS`; the timed loop repeats passes.

Only valvebench imports happen lazily, after `run.py` has put the checkout's
`src/` on `sys.path`.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
GOLDEN_PATH = os.path.join(BENCH_DIR, "golden.json")
OUT_DIR = os.path.join(BENCH_DIR, "out")  # op scratch space and spans
ADAPT_CONFIG = os.path.join(ROOT, "configs", "adapt_valve6.cfg")

PASS_OPS = 8
REFERENCE_SEED = 0
# Relative tolerance of the golden comparison; the absolute floor only
# matters for values that are exactly zero at the reference.
REL_TOL = 1e-6
ABS_TOL = 1e-12

# adaptive_model: the nominal valve model, identified from a wrong start.
TS = 0.05
THETA_TRUE = (-0.9152, -0.0609)
THETA_WRONG = (-0.6, -0.2)
DEVIATION_LEVELS = (0.0, 4.0, -4.0, 2.0, -2.0, 0.0)
HOLD_S = 10.0
SETTLE_S = 1.0
NOISE_STD = 0.02
INJECTION_AMPLITUDE = 2.0


def parse_report(path: str) -> dict[str, str]:
    out = {}
    with open(path) as fh:
        for line in fh:
            key, _, value = line.partition(" = ")
            out[key.strip()] = value.strip()
    return out


def _cli(argv: list[str]) -> None:
    from valvebench import cli

    rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"valvebench {' '.join(argv)} exited with {rc}")


class PresetOps:
    """Op `index` runs on preset valve<index mod 8> at the workload seed."""

    def prepare(self, seed: int) -> None:
        self.seed = seed

    def key(self, index: int) -> str:
        return f"valve{index % PASS_OPS}"


class OpenLoopChar(PresetOps):
    """sweep, etfe and identify with default configs on one preset."""

    name = "open_loop_char"
    commands = ("sweep", "etfe", "identify")
    # sweep: 9 levels x 2 branches x 50; etfe and identify: 100 settle + 3 x 1022
    samples_per_op = 900 + 3166 + 3166

    def run(self, index: int, out_dir: str) -> None:
        for cmd in self.commands:
            _cli([cmd, "--set", f"plant.preset={self.key(index)}", "--seed", str(self.seed),
                  "--out", os.path.join(out_dir, cmd)])

    def report(self, index: int, out_dir: str, result) -> dict[str, str]:
        out = {}
        for cmd in self.commands:
            for k, v in parse_report(os.path.join(out_dir, cmd, "report.txt")).items():
                out[f"{cmd}.{k}"] = v
        return out

    def sane(self, rep: dict[str, str]) -> list[str]:
        bad = []
        if not float(rep["sweep.hysteresis_width_deg"]) > 0:
            bad.append("hysteresis width not positive")
        if not float(rep["identify.theta_2"]) < 0:
            bad.append("identified b1 not negative")
        if not -1.0 < float(rep["identify.theta_1"]) < 0.0:
            bad.append("identified a1 outside (-1, 0)")
        return bad


class AdaptFleet(PresetOps):
    """CLI adapt with configs/adapt_valve6.cfg retargeted to one preset."""

    name = "adapt_fleet"
    # 60 settle + 5 evaluations x 300 + 4 identifications x (40 warmup + 300)
    samples_per_op = 60 + 5 * 300 + 4 * 340

    def run(self, index: int, out_dir: str) -> None:
        _cli(["adapt", "--config", ADAPT_CONFIG, "--set", f"plant.preset={self.key(index)}",
              "--seed", str(self.seed), "--out", out_dir])

    def report(self, index: int, out_dir: str, result) -> dict[str, str]:
        return parse_report(os.path.join(out_dir, "report.txt"))

    def sane(self, rep: dict[str, str]) -> list[str]:
        bad = []
        if rep["redesign_failures"] != "0":
            bad.append("a redesign failed")
        if rep["iterations"] != "4":
            bad.append("iterations != 4")
        if not float(rep["theta_2"]) < 0:
            bad.append("final b1 estimate not negative")
        return bad


class AdaptiveModel:
    """adaptive_run with a redesign at every sample on the nominal linear model."""

    name = "adaptive_model"
    samples_per_op = round(SETTLE_S / TS) + round(HOLD_S / TS) * len(DEVIATION_LEVELS)

    def prepare(self, seed: int) -> None:
        import valvebench as vb

        self.seed = seed
        self.spec = vb.RstDesignSpec(pole=vb.PoleSpec(5.0, 1.0, TS))
        self.ctrl0 = self.spec.design(np.array(THETA_WRONG))
        self.reference = vb.step_sequence(np.array(DEVIATION_LEVELS), HOLD_S, TS)
        self.excitation = vb.ExcitationSpec(
            amplitude=INJECTION_AMPLITUDE, length=len(self.reference)
        ).sequence()
        self.model = vb.DiscretePlantModel(THETA_TRUE[:1], THETA_TRUE[1:], 0, TS)

    def key(self, index: int) -> str:
        return f"op{index}"

    def noise_seed(self, index: int) -> int:
        return self.seed * 100_000 + index

    def run(self, index: int, out_dir: str):
        import valvebench as vb

        plant = vb.LinearSimulator(self.model, noise_std=NOISE_STD, rng_seed=self.noise_seed(index))
        return vb.adaptive_run(
            plant, self.ctrl0, self.spec, self.reference, np.array(THETA_WRONG),
            excitation=self.excitation, settle=SETTLE_S, limits=None,
        )

    def report(self, index: int, out_dir: str, run) -> dict[str, str]:
        from valvebench.fileio import format_value

        err = run.y - run.reference
        theta = run.final_state.theta_hat
        items = {
            "noise_seed": self.noise_seed(index),
            "redesigns": run.redesigns,
            "rejected": run.rejected,
            "theta_1": theta[0],
            "theta_2": theta[1],
            "y_final": run.y[-1],
            "u_final": run.u[-1],
            "tracking_rms": float(np.sqrt(np.mean(err * err))),
        }
        items.update({f"r{i}": c for i, c in enumerate(run.final_controller.r.coeffs)})
        items.update({f"s{i}": c for i, c in enumerate(run.final_controller.s.coeffs)})
        return {k: format_value(v) for k, v in items.items()}

    def sane(self, rep: dict[str, str]) -> list[str]:
        bad = []
        n = len(self.reference)
        if rep["redesigns"] != str(n) or rep["rejected"] != "0":
            bad.append(f"redesigns {rep['redesigns']} rejected {rep['rejected']} of {n}")
        # The final estimate is not checked: under noise it is usually within
        # 1e-3 of the truth, but on rare noise seeds it wanders off (a1 = -1.04
        # on seed 1500045) while every redesign is still accepted.
        return bad


WORKLOADS = {w.name: w for w in (OpenLoopChar(), AdaptFleet(), AdaptiveModel())}


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def _close(got: str, want: str) -> bool:
    try:
        g, w = float(got), float(want)
    except ValueError:
        return got == want
    if math.isnan(g) or math.isnan(w):
        return math.isnan(g) and math.isnan(w)
    return abs(g - w) <= max(REL_TOL * abs(w), ABS_TOL)  # never true for inf


def compare(got: dict[str, str], want: dict[str, str]) -> list[str]:
    """Differences of `got` from `want` beyond REL_TOL.  NaN equals NaN; an
    infinite value never matches."""
    if got.keys() != want.keys():
        return [f"report keys differ: {sorted(got.keys() ^ want.keys())}"]
    return [f"{k} = {got[k]}, expected {want[k]}" for k in want if not _close(got[k], want[k])]


def check(workload, report: dict[str, str], reference: dict[str, str]) -> list[str]:
    """Output check of one op: its values against `reference` (the golden
    report, or the first report of the same op in this run) and the
    workload's physical sanity checks."""
    return compare(report, reference) + workload.sane(report)
