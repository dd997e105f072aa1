"""Every scenario x preset against its golden report and trace digests
(tests/golden/), and the adaptive_model benchmark ops against theirs.

The goldens were made by scripts/make_golden_reports.py at seed 0.  Values
must agree within a relative 1e-6 (absolute 1e-12 for a golden zero); NaN
equals NaN, an infinite value never matches, and text matches exactly.  A
column's sum is held to 1e-6 of its sum of |x| instead of its own value,
since a zero-mean column sums to nearly 0.
"""

import json
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


def digest_problems(got: dict, want: dict) -> list[str]:
    """Entries of one column digest that differ from the golden one."""
    if got.keys() != want.keys() or got["rows"] != want["rows"]:
        return [f"digest {sorted(got.items())[:3]} against {sorted(want.items())[:3]}"]
    if "counts" in want:  # a text column matches exactly
        return [] if got == want else ["text cells differ"]
    bad = []
    for key, w in want.items():
        g = got[key]
        if key == "every":
            bad += [f"row {i * golden.DIGEST_STEP} = {a!r}, golden {b!r}"
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


def test_close_rule():
    assert close("1.0", "1.0000005") and not close("1.0", "1.000002")
    assert close("nan", "nan") and not close("nan", "1.0") and not close("1.0", "nan")
    assert not close("inf", "inf")
    assert close("valve3", "valve3") and not close("valve3", "valve4")
    assert close("0", "0") and not close("1e-9", "0")


def test_digest_rule():
    """A digest holds what the comparison reads, a zero-mean sum compares
    on the scale of its |x|, and a text column compares exactly."""
    xs = [1.0, -1.0] * 60 + [2.0]
    d = golden.digest(map(str, xs))
    assert (d["rows"], d["first"], d["last"], d["min"], d["max"]) == (121, 1.0, 2.0, -1.0, 2.0)
    assert (d["sum"], d["abs_sum"], d["sum_sq"]) == (2.0, 122.0, 124.0)
    assert d["every"] == [1.0, 1.0, 1.0]
    moved = dict(d, sum=2.0 + 1e-5)
    assert digest_problems(moved, d) == []  # 1e-5 is below 1e-6 of sum |x|
    assert digest_problems(dict(d, sum=2.0 + 1e-3), d) == ["sum = 2.001, golden 2.0"]
    assert digest_problems(dict(d, every=[1.0, 1.0, 1.1]), d) == ["row 100 = 1.1, golden 1.0"]
    flags = golden.digest(["true", "false", "false"])
    assert flags == {"rows": 3, "counts": {"false": 2, "true": 1}, "every": ["true"]}
    assert digest_problems(golden.digest(["true", "true", "false"]), flags) != []


@pytest.fixture(scope="module", params=sorted(golden.CASES))
def case_run(request, tmp_path_factory):
    """(case, output directory, reports) of one run of each golden case."""
    case = request.param
    out_dir = tmp_path_factory.mktemp("golden")
    return case, out_dir, golden.run_case(case, str(out_dir))


def test_reports_match_golden(case_run):
    case, _, got = case_run
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


def _golden_traces(case: str) -> dict[str, dict]:
    return {
        str(p.relative_to(GOLDEN / case)): json.loads(p.read_text())
        for p in (GOLDEN / case).rglob(golden.TRACES)
    }


def test_traces_match_golden(case_run):
    """Every column of every CSV of the run against its golden digest."""
    case, out_dir, _ = case_run
    got = golden.trace_digests(str(out_dir))
    want = _golden_traces(case)
    assert want, f"no golden trace digests for {case}"
    assert sorted(got) == sorted(want)
    problems = []
    for rel in sorted(want):
        problems += [f"{rel}: {p}" for p in traces_problems(got[rel], want[rel])]
    assert not problems, "\n".join(problems)


def test_adaptive_model_traces_match_golden():
    """y, u and theta of the eight adaptive_model benchmark ops at seed 0."""
    want = _golden_traces(golden.ADAPTIVE_MODEL)[golden.TRACES]
    problems = traces_problems(golden.adaptive_model_digests(), want)
    assert not problems, "\n".join(problems)
