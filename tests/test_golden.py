"""Every scenario x preset against its golden report (tests/golden/).

The reports were made by scripts/make_golden_reports.py at seed 0.  Values
must agree within a relative 1e-6 (absolute 1e-12 for a golden zero); NaN
equals NaN, an infinite value never matches, and text matches exactly.
"""

import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import make_golden_reports as golden  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"
REL_TOL = 1e-6
ABS_TOL = 1e-12


def parse_report(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(" = ")
        out[key.strip()] = value.strip()
    return out


def close(got: str, want: str) -> bool:
    try:
        g, w = float(got), float(want)
    except ValueError:
        return got == want
    if math.isnan(g) or math.isnan(w):
        return math.isnan(g) and math.isnan(w)
    return abs(g - w) <= max(REL_TOL * abs(w), ABS_TOL)


def test_close_rule():
    assert close("1.0", "1.0000005") and not close("1.0", "1.000002")
    assert close("nan", "nan") and not close("nan", "1.0") and not close("1.0", "nan")
    assert not close("inf", "inf")
    assert close("valve3", "valve3") and not close("valve3", "valve4")
    assert close("0", "0") and not close("1e-9", "0")


@pytest.mark.parametrize("case", sorted(golden.CASES))
def test_reports_match_golden(case, tmp_path):
    got = golden.run_case(case, str(tmp_path))
    want = {
        str(p.relative_to(GOLDEN / case)): p.read_text()
        for p in (GOLDEN / case).rglob("report.txt")
    }
    assert want, f"no golden reports for {case}"
    assert sorted(got) == sorted(want)
    problems = []
    for rel in sorted(want):
        g, w = parse_report(got[rel]), parse_report(want[rel])
        if g.keys() != w.keys():
            problems.append(f"{rel}: keys differ: {sorted(g.keys() ^ w.keys())}")
            continue
        problems += [f"{rel}: {k} = {g[k]}, golden {w[k]}" for k in w if not close(g[k], w[k])]
    assert not problems, "\n".join(problems)
