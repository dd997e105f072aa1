"""Regenerate the golden reports under tests/golden/.

Runs `design` (default config and configs/design_robust.cfg) and `sweep`,
`etfe`, `identify`, `track` and `adapt` (configs/adapt_valve6.cfg) on every
preset at seed 0, and keeps each run's report.txt as
tests/golden/<case>/<preset>/report.txt.  tests/test_golden.py reruns the
same cases and compares every value.

Run it only when a change is meant to change results, and say so where the
change is described.

Run:  python scripts/make_golden_reports.py
"""

import os
import shutil
import sys
import tempfile

from valvebench.cli import main as cli
from valvebench.presets import PRESET_NAMES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(ROOT, "configs")
GOLDEN = os.path.join(ROOT, "tests", "golden")
SEED = 0

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


def main():
    if os.path.isdir(GOLDEN):
        shutil.rmtree(GOLDEN)
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            for rel, text in run_case(case, os.path.join(tmp, case)).items():
                path = os.path.join(GOLDEN, case, rel)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "w", newline="\n") as fh:
                    fh.write(text)
    print(f"golden reports written under {GOLDEN}")


if __name__ == "__main__":
    sys.exit(main())
