"""Regenerate the golden reports and trace digests under tests/golden/.

Runs `design` (default config and configs/design_robust.cfg) and `sweep`,
`etfe`, `identify`, `track` and `adapt` (configs/adapt_valve6.cfg) on every
preset at seed 0, and keeps each run's report.txt as
tests/golden/<case>/<preset>/report.txt.  Next to it, traces.json holds a
digest of every column of every CSV the run wrote (:func:`digest`).  The
per-sample adaptive run of the adaptive_model benchmark workload is pinned
the same way: tests/golden/adaptive_model/traces.json digests the y, u and
theta traces of its eight ops at seed 0.  tests/test_golden.py reruns the
same cases and compares every value.

Run it only when a change is meant to change results, and say so where the
change is described.

Run:  python scripts/make_golden_reports.py
"""

import csv
import json
import math
import os
import shutil
import sys
import tempfile
from collections import Counter

import numpy as np

import valvebench as vb
from valvebench.cli import main as cli
from valvebench.presets import PRESET_NAMES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(ROOT, "configs")
GOLDEN = os.path.join(ROOT, "tests", "golden")
SEED = 0
TRACES = "traces.json"
DIGEST_STEP = 50

_ALL_PRESETS = ["--set", "plant.preset=" + ",".join(PRESET_NAMES)]
CASES = {
    "design/default": ["design"],
    "design/design_robust": ["design", "--config", os.path.join(CONFIGS, "design_robust.cfg")],
    "sweep": ["sweep", *_ALL_PRESETS],
    "etfe": ["etfe", *_ALL_PRESETS],
    "identify": ["identify", *_ALL_PRESETS],
    "track": ["track", *_ALL_PRESETS],
    "adapt": ["adapt", "--config", os.path.join(CONFIGS, "adapt_valve6.cfg"), *_ALL_PRESETS],
}

# The adaptive_model workload of the benchmark (bench/workloads.py): the
# nominal valve model identified from a wrong start, with a redesign at every
# sample.  Op i runs with plant noise seed SEED * 100_000 + i.
ADAPTIVE_MODEL = "adaptive_model"
ADAPTIVE_OPS = 8
TS = 0.05
THETA_TRUE = (-0.9152, -0.0609)
THETA_WRONG = (-0.6, -0.2)
DEVIATION_LEVELS = (0.0, 4.0, -4.0, 2.0, -2.0, 0.0)
HOLD_S = 10.0
SETTLE_S = 1.0
NOISE_STD = 0.02
INJECTION_AMPLITUDE = 2.0


def digest(cells) -> dict:
    """Compact fingerprint of one trace column.  A numeric column keeps its
    row count, first, last, min, max, sum, sum of |x|, sum of squares and
    every DIGEST_STEP-th row; any other column its row count, the count of
    each value and every DIGEST_STEP-th cell."""
    cells = list(cells)
    try:
        xs = [float(c) for c in cells]
    except ValueError:
        return {"rows": len(cells), "counts": dict(sorted(Counter(cells).items())),
                "every": cells[::DIGEST_STEP]}
    if not xs:
        return {"rows": 0}
    return {
        "rows": len(xs),
        "first": xs[0],
        "last": xs[-1],
        "min": min(xs),
        "max": max(xs),
        "sum": math.fsum(xs),
        "abs_sum": math.fsum(map(abs, xs)),
        "sum_sq": math.fsum(x * x for x in xs),
        "every": xs[::DIGEST_STEP],
    }


def csv_digests(path: str) -> dict:
    """{column name: digest} of one CSV file."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: digest(row[i] for row in body) for i, name in enumerate(header)}


def run_case(case: str, out_dir: str) -> dict[str, str]:
    """Run one case into out_dir; returns {relative report path: text}."""
    rc = cli(CASES[case] + ["--seed", str(SEED), "--out", out_dir])
    if rc != 0:
        raise RuntimeError(f"valvebench {' '.join(CASES[case])} exited with {rc}")
    reports = {}
    for dirpath, _, files in os.walk(out_dir):
        if "report.txt" in files:
            path = os.path.join(dirpath, "report.txt")
            with open(path) as fh:
                reports[os.path.relpath(path, out_dir)] = fh.read()
    return reports


def trace_digests(out_dir: str) -> dict[str, dict]:
    """{relative path of a traces.json: {CSV name: {column: digest}}} for
    every directory under out_dir that holds CSV files."""
    traces = {}
    for dirpath, _, files in os.walk(out_dir):
        csvs = sorted(f for f in files if f.endswith(".csv"))
        if csvs:
            rel = os.path.relpath(os.path.join(dirpath, TRACES), out_dir)
            traces[rel] = {f: csv_digests(os.path.join(dirpath, f)) for f in csvs}
    return traces


def adaptive_model_digests() -> dict[str, dict]:
    """{op<i>: {trace: digest}} of y, u and each theta component of the
    adaptive_model ops at seed SEED."""
    spec = vb.RstDesignSpec(pole=vb.PoleSpec(5.0, 1.0, TS))
    ctrl0 = spec.design(np.array(THETA_WRONG))
    reference = vb.step_sequence(np.array(DEVIATION_LEVELS), HOLD_S, TS)
    excitation = vb.ExcitationSpec(amplitude=INJECTION_AMPLITUDE, length=len(reference)).sequence()
    model = vb.DiscretePlantModel(THETA_TRUE[:1], THETA_TRUE[1:], 0, TS)
    out = {}
    for i in range(ADAPTIVE_OPS):
        plant = vb.LinearSimulator(model, noise_std=NOISE_STD, rng_seed=SEED * 100_000 + i)
        run = vb.adaptive_run(
            plant, ctrl0, spec, reference, np.array(THETA_WRONG),
            excitation=excitation, settle=SETTLE_S, limits=None,
        )
        traces = {"y": run.y, "u": run.u}
        traces.update({f"theta_{j + 1}": run.theta[:, j] for j in range(run.theta.shape[1])})
        out[f"op{i}"] = {name: digest(x.tolist()) for name, x in traces.items()}
    return out


def _write_json(path: str, data) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main():
    if os.path.isdir(GOLDEN):
        shutil.rmtree(GOLDEN)
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            out_dir = os.path.join(tmp, case)
            for rel, text in run_case(case, out_dir).items():
                path = os.path.join(GOLDEN, case, rel)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "w", newline="\n") as fh:
                    fh.write(text)
            for rel, traces in trace_digests(out_dir).items():
                _write_json(os.path.join(GOLDEN, case, rel), traces)
    _write_json(os.path.join(GOLDEN, ADAPTIVE_MODEL, TRACES), adaptive_model_digests())
    print(f"golden reports and trace digests written under {GOLDEN}")


if __name__ == "__main__":
    sys.exit(main())
