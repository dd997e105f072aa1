"""Regenerate the golden reports and trace digests under tests/golden/.

Runs `design` (default config and configs/design_robust.cfg) and `sweep`,
`etfe`, `identify`, `track` and `adapt` (configs/adapt_valve6.cfg) on every
preset at seed 0, and keeps each run's report.txt as
tests/golden/<case>/<preset>/report.txt.  Next to it, traces.json holds a
digest of every column of every CSV the run wrote (:func:`digest`).  The
per-sample adaptive run of the adaptive_model benchmark workload is pinned
the same way: tests/golden/adaptive_model/traces.json digests the y, u and
theta traces of its eight ops at seed 0.  tests/test_golden.py reruns the
same cases and compares every value, by the rule defined here
(:func:`report_problems`, :func:`traces_problems`).

A golden file whose regenerated values agree with it by that rule is left
as it is, so last-digit differences of a platform do not churn the files;
only the files that moved are rewritten, golden files no case makes any
more are removed, and each is named.  Run it only when a change is meant to
change results, and say so where the change is described.

Run:  python scripts/make_golden_reports.py
"""

import csv
import json
import math
import os
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


# The comparison rule: values agree within a relative REL_TOL (absolute
# ABS_TOL for a golden zero); NaN equals NaN, an infinite value never
# matches, and text matches exactly.
REL_TOL = 1e-6
ABS_TOL = 1e-12


def close_float(g: float, w: float, scale: float | None = None) -> bool:
    """g within REL_TOL of `scale` (default |w|), or ABS_TOL for a zero."""
    if math.isnan(g) or math.isnan(w):
        return math.isnan(g) and math.isnan(w)
    return abs(g - w) <= max(REL_TOL * (abs(w) if scale is None else scale), ABS_TOL)


def close(got: str, want: str) -> bool:
    try:
        g, w = float(got), float(want)
    except ValueError:
        return got == want
    return close_float(g, w)


def parse_report(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(" = ")
        out[key.strip()] = value.strip()
    return out


def report_problems(got: str, want: str) -> list[str]:
    """Differences of one report's text from the golden one."""
    g, w = parse_report(got), parse_report(want)
    if g.keys() != w.keys():
        return [f"keys differ: {sorted(g.keys() ^ w.keys())}"]
    return [f"{k} = {g[k]}, golden {w[k]}" for k in w if not close(g[k], w[k])]


def digest_problems(got: dict, want: dict) -> list[str]:
    """Entries of one column digest that differ from the golden one.  A
    column's sum is held to REL_TOL of its sum of |x| instead of its own
    value, since a zero-mean column sums to nearly 0."""
    if got.keys() != want.keys() or got["rows"] != want["rows"]:
        return [f"digest {sorted(got.items())[:3]} against {sorted(want.items())[:3]}"]
    if "counts" in want:  # a text column matches exactly
        return [] if got == want else ["text cells differ"]
    bad = []
    for key, w in want.items():
        g = got[key]
        if key == "every":
            bad += [f"row {i * DIGEST_STEP} = {a!r}, golden {b!r}"
                    for i, (a, b) in enumerate(zip(g, w)) if not close_float(a, b)]
        elif key == "sum":
            if not close_float(g, w, want["abs_sum"]):
                bad.append(f"sum = {g!r}, golden {w!r}")
        elif key != "rows" and not close_float(g, w):
            bad.append(f"{key} = {g!r}, golden {w!r}")
    return bad


def traces_problems(got: dict, want: dict) -> list[str]:
    """Differences of {trace name: {column: digest}} from the golden one."""
    if got.keys() != want.keys():
        return [f"traces differ: {sorted(got.keys() ^ want.keys())}"]
    problems = []
    for name in sorted(want):
        if got[name].keys() != want[name].keys():
            problems.append(f"{name}: columns differ: {sorted(got[name].keys() ^ want[name].keys())}")
            continue
        for col in want[name]:
            problems += [f"{name}.{col}: {p}" for p in digest_problems(got[name][col], want[name][col])]
    return problems


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


def _json_text(data) -> str:
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


def _traces_text_problems(got: str, want: str) -> list[str]:
    return traces_problems(json.loads(got), json.loads(want))


def _update(path: str, text: str, problems) -> bool:
    """Write text to path unless the file there agrees with it by
    problems(text, old text); returns whether it wrote."""
    if os.path.exists(path):
        with open(path) as fh:
            if not problems(text, fh.read()):
                return False
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
    return True


def main():
    made = {}  # golden path -> (text, comparison)
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            out_dir = os.path.join(tmp, case)
            for rel, text in run_case(case, out_dir).items():
                made[os.path.join(GOLDEN, case, rel)] = (text, report_problems)
            for rel, traces in trace_digests(out_dir).items():
                made[os.path.join(GOLDEN, case, rel)] = (_json_text(traces), _traces_text_problems)
    made[os.path.join(GOLDEN, ADAPTIVE_MODEL, TRACES)] = (
        _json_text(adaptive_model_digests()), _traces_text_problems
    )
    changed = [path for path, (text, problems) in sorted(made.items()) if _update(path, text, problems)]
    stale = sorted(
        os.path.join(d, f) for d, _, files in os.walk(GOLDEN) for f in files
        if os.path.join(d, f) not in made
    )
    for path in stale:
        os.remove(path)
    for d, _, _ in sorted(os.walk(GOLDEN), reverse=True):  # children before parents
        if not os.listdir(d):
            os.rmdir(d)
    for verb, paths in (("rewrote", changed), ("removed", stale)):
        for path in paths:
            print(f"{verb} {os.path.relpath(path, ROOT)}")
    if not changed and not stale:
        print(f"every golden file under {GOLDEN} agrees with its regenerated values; none written")


if __name__ == "__main__":
    sys.exit(main())
