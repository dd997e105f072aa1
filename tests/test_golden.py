"""Every scenario x preset against its golden report and trace digests
(tests/golden/), and the adaptive_model benchmark ops against theirs.

The goldens were made by scripts/make_golden_reports.py at seed 0, and the
comparison is that script's rule, the one it regenerates by: values must
agree within a relative 1e-6 (absolute 1e-12 for a golden zero); NaN equals
NaN, an infinite value never matches, and text matches exactly.  A column's
sum is held to 1e-6 of its sum of |x| instead of its own value, since a
zero-mean column sums to nearly 0.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import make_golden_reports as golden  # noqa: E402
from make_golden_reports import close, digest_problems, report_problems, traces_problems  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"


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
        problems += [f"{rel}: {p}" for p in report_problems(got[rel], want[rel])]
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


def test_regeneration_rewrites_only_files_that_moved(tmp_path):
    """A golden file that agrees with its regenerated text by the rule above
    is kept byte for byte; one that moved is rewritten."""
    path = tmp_path / "case" / "report.txt"
    assert golden._update(str(path), "gain = 1.0\n", golden.report_problems)
    assert path.read_text() == "gain = 1.0\n"
    assert not golden._update(str(path), "gain = 1.0000005\n", golden.report_problems)
    assert path.read_text() == "gain = 1.0\n"
    assert golden._update(str(path), "gain = 1.1\n", golden.report_problems)
    assert path.read_text() == "gain = 1.1\n"
