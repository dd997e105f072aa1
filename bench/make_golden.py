"""Regenerate bench/golden.json: the report of every op of one pass of each
workload at the reference seed.

    python3 bench/make_golden.py

Run it only when a change to valvebench is meant to change results, and say
so where the change is described.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

from workloads import GOLDEN_PATH, OUT_DIR, PASS_OPS, REFERENCE_SEED, REL_TOL, ROOT, WORKLOADS


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    golden = {"reference_seed": REFERENCE_SEED, "rel_tol": REL_TOL, "workloads": {}}
    os.makedirs(OUT_DIR, exist_ok=True)
    for name, work in WORKLOADS.items():
        work.prepare(REFERENCE_SEED)
        reports = {}
        for index in range(PASS_OPS):
            out_dir = tempfile.mkdtemp(dir=OUT_DIR)
            try:
                report = work.report(index, out_dir, work.run(index, out_dir))
            finally:
                shutil.rmtree(out_dir)
            problems = work.sane(report)
            if problems:
                print(f"{name} {work.key(index)}: {problems}", file=sys.stderr)
                return 1
            reports[work.key(index)] = report
        golden["workloads"][name] = reports
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
