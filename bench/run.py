"""valvebench benchmark: one caller, serial ops, outputs checked.

    python3 bench/run.py --workload open_loop_char --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): `open_loop_char`, `adapt_fleet`,
`adaptive_model`.  The load is a closed loop of one caller in one process:
each op starts when the previous one returns.  Every op writes into its own
scratch directory under bench/out/, removed after its output check.

Every run first checks one op at the reference seed against the stored golden
reports.  With `--trace 0` it then repeats ops at `--seed` for `--seconds`,
with set-up samples (fresh interpreters importing numpy and valvebench) spread
between them, and prints the end-to-end metrics, with times host-scaled (see
PROBE_REF_S) and the raw wall times beside them.  With `--trace 1` it runs
one untraced pass and one traced pass of eight ops each, so counts repeat
exactly at a fixed seed whatever `--seconds` says, writes the spans to
bench/out/spans_<workload>.csv.gz and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

from workloads import OUT_DIR, PASS_OPS, REFERENCE_SEED, ROOT, WORKLOADS, check, load_golden

SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 12
SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import numpy; import valvebench; "
    "from valvebench import cli; valvebench.get_preset('valve0')"
)
# Ops beyond the value that op_ms_tail reports.
TAIL_BEYOND = 10
# Times are reported host-scaled: each op's wall time is multiplied by
# PROBE_REF_S / (mean of the host_probe() seconds just before and just after
# it).  The shared host's speed drifts by up to 1.5x over minutes, which moves
# every op alike; the probe is benchmark code that no valvebench change
# touches, so the scaling removes the drift and keeps what a valvebench change
# does to an op.  PROBE_REF_S is about the probe's median on the baseline
# host, so scaled figures read as milliseconds there.  Raw wall times are
# printed as well.
PROBE_REF_S = 0.024

# Per-layer metrics read from the span summary, as (span name, statistic).
SPAN_METRICS = (
    ("plant.advance", "calls"),
    ("plant.advance", "self_s"),
    ("plant.advance", "us_per_call"),
    ("ident.order_scan", "self_s"),
    ("ident.batch_least_squares", "calls"),
    ("ident.batch_least_squares", "self_s"),
    ("ident.rls_step", "calls"),
    ("ident.rls_step", "us_per_call"),
    ("control.bezout_design", "calls"),
    ("control.bezout_design", "us_per_call"),
    ("control.check_pole_placement", "self_s"),
    ("control.sensitivity", "calls"),
    ("control.sensitivity", "self_s"),
    ("control.ControllerRuntime.step", "calls"),
    ("control.ControllerRuntime.step", "us_per_call"),
    ("cloe.ClosedLoopPredictor.predict", "us_per_call"),
    ("cloe.ClosedLoopPredictor.adapt", "self_us_per_call"),
    ("cloe.cl_identify", "self_s"),
    ("adapt.RstDesignSpec.design", "calls"),
    ("adapt.RstDesignSpec.design", "self_us_per_call"),
    ("adapt.tracking_run", "self_s"),
    ("adapt.iterate", "self_s"),
    ("adapt.adaptive_run", "self_s"),
    ("spectral.etfe", "self_s"),
    ("spectral.smooth", "self_s"),
    ("signals.PrbsConfig", "self_s"),
    ("signals.prbs_generate", "self_s"),
    ("fileio.write_csv", "calls"),
    ("fileio.write_csv", "self_s"),
    ("fileio.write_report", "self_s"),
    ("cli.resolve_config", "self_s"),
    ("cli.main", "self_s"),
)
STAT_UNITS = {"calls": "count", "self_s": "s", "us_per_call": "us", "self_us_per_call": "us"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="valvebench benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def _probe_step(x: float, u: float) -> float:
    target = 0.8 - 0.01 * u
    gap = target - x
    if abs(gap) < 1e-9:
        return x
    return target - gap * 0.996


def host_probe() -> float:
    """Seconds this host takes for a fixed kernel of integer loops, float
    function calls and small numpy products: the mix valvebench runs."""
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    x = 0.0
    for k in range(25_000):
        x = _probe_step(x, (k % 100) * 0.5)
    gain = np.eye(2) * 1000.0
    for k in range(1_500):
        phi = np.array([k * 0.001, 1.0])
        f_phi = gain @ phi
        gain = gain - np.outer(f_phi, f_phi) / (1.0 + float(phi @ f_phi))
        gain = 0.5 * (gain + gain.T)
    return time.perf_counter() - start


def host_scaled(seconds: float, probe_s: float) -> float:
    """`seconds` as the reference host would read them (see PROBE_REF_S)."""
    return seconds * PROBE_REF_S / probe_s


def start_interpreter() -> float:
    """Wall seconds of a fresh interpreter that imports numpy and valvebench."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_PROBE, SRC], cwd=ROOT, check=True, timeout=120)
    return time.perf_counter() - start


class Runner:
    """Runs ops of one workload, checks their outputs and keeps the tally."""

    def __init__(self, work, scratch: str):
        self.work = work
        self.scratch = scratch
        self.golden = load_golden()["workloads"][work.name]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.seed = None
        self._seen: dict = {}

    def prepare(self, seed: int) -> None:
        self.work.prepare(seed)
        self.seed = seed
        self._seen = {}

    def op(self, index: int) -> float | None:
        """Run op `index`; returns its seconds, or None when it failed."""
        self.attempted += 1
        key = self.work.key(index)
        out_dir = tempfile.mkdtemp(dir=self.scratch)
        try:
            start = time.perf_counter()
            result = self.work.run(index, out_dir)
            seconds = time.perf_counter() - start
            report = self.work.report(index, out_dir, result)
        except Exception as err:  # an op that raises is a failed op; the run goes on
            problems = [f"{type(err).__name__}: {err}"]
        else:
            golden = self.golden.get(key) if self.seed == REFERENCE_SEED else None
            problems = check(self.work, report, golden or self._seen.setdefault(key, report))
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if problems:
            self.failed += 1
            self.problems += [f"{key} at seed {self.seed}: {p}" for p in problems]
            return None
        return seconds

    def reference_op(self, seed: int) -> None:
        """One op at the reference seed, checked against the golden reports."""
        self.prepare(REFERENCE_SEED)
        self.op(seed % PASS_OPS)

    def run_pass(self) -> float:
        return sum(self.op(index) or 0.0 for index in range(PASS_OPS))


def tail(times_ms: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with TAIL_BEYOND ops beyond it, and
    that percentile; the maximum when there are too few ops."""
    ordered = sorted(times_ms)
    index = len(ordered) - 1 - TAIL_BEYOND if len(ordered) > TAIL_BEYOND else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(runner: Runner, seconds: int) -> dict:
    """Ops for `seconds`, with SETUP_SAMPLES interpreter start-ups spread
    between them; every op and start-up is scaled by the probes around it."""
    ops, setups = [], []  # (raw seconds, host-scaled seconds)
    probe_before = host_probe()

    def timed(fn):
        nonlocal probe_before
        raw = fn()
        probe_after = host_probe()
        probe = 0.5 * (probe_before + probe_after)
        probe_before = probe_after
        return None if raw is None else (raw, host_scaled(raw, probe))

    start = time.perf_counter()
    index = 0
    last_was_setup = False
    while (elapsed := time.perf_counter() - start) < seconds:
        if (not last_was_setup and len(setups) < SETUP_SAMPLES
                and elapsed >= len(setups) * seconds / SETUP_SAMPLES):
            setups.append(timed(start_interpreter))
            last_was_setup = True
            continue
        op = timed(lambda: runner.op(index))
        if op is not None:
            ops.append(op)
        index += 1
        last_was_setup = False
    if not ops:
        return {}
    work = runner.work
    raw_ms = [1000.0 * raw for raw, _ in ops]
    scaled_ms = [1000.0 * scaled for _, scaled in ops]
    tail_ms, tail_pct = tail(scaled_ms)
    print(f"ops timed = {len(ops)} of {index}, {work.samples_per_op} plant samples each; "
          f"op_ms_tail is p{tail_pct:.1f}; setup_s is the median of {len(setups)} start-ups")
    print(f"raw wall time: op_ms_p50 = {statistics.median(raw_ms):.6g} ms, "
          f"op_ms_tail = {tail(raw_ms)[0]:.6g} ms, "
          f"samples_per_s = {1000.0 * work.samples_per_op * len(ops) / sum(raw_ms):.6g} 1/s, "
          f"setup_s = {statistics.median(raw for raw, _ in setups):.6g} s")
    return {
        "setup_s": (statistics.median(scaled for _, scaled in setups), "s"),
        "samples_per_s": (1000.0 * work.samples_per_op * len(ops) / sum(scaled_ms), "1/s"),
        "op_ms_p50": (statistics.median(scaled_ms), "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(runner: Runner) -> dict:
    from tracing import Tracer, summarize

    untraced_s = runner.run_pass()
    tracer = Tracer()
    tracer.install()
    traced_s = 0.0
    try:
        for index in range(PASS_OPS):
            tracer.op_id = index
            traced_s += runner.op(index) or 0.0
        tracer.op_id = -1
    finally:
        tracer.uninstall()
    tracer.write_spans(os.path.join(OUT_DIR, f"spans_{runner.work.name}.csv.gz"))

    summary = summarize(tracer)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "ok": 0}
    metrics = {}
    for span, stat in SPAN_METRICS:
        entry = summary.get(span, empty)
        calls = entry["calls"]
        if stat == "calls":
            value = calls
        elif stat == "self_s":
            value = entry["self_s"]
        elif stat == "us_per_call":
            value = 1e6 * entry["total_s"] / calls if calls else 0.0
        else:
            value = 1e6 * entry["self_s"] / calls if calls else 0.0
        metrics[f"{span}.{stat}"] = (value, STAT_UNITS[stat])

    design = summary.get("adapt.RstDesignSpec.design", empty)
    metrics["plant.valve_step.calls"] = (tracer.valve_steps, "count")
    metrics["plant.latched_share"] = (
        tracer.latched_steps / tracer.valve_steps if tracer.valve_steps else 0.0, "ratio")
    metrics["fileio.write_csv.rows"] = (tracer.csv_rows, "count")
    metrics["adapt.redesign_accept_ratio"] = (
        design["ok"] / design["calls"] if design["calls"] else 0.0, "ratio")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")

    samples = summary.get("plant.advance", empty)["calls"]
    expected = runner.work.samples_per_op * PASS_OPS
    print(f"traced pass: {PASS_OPS} ops, {samples} plant samples, {tracer.csv_rows} CSV rows, "
          f"{len(tracer.spans)} spans; untraced {untraced_s:.3f} s, traced {traced_s:.3f} s")
    print(f"redesigns accepted = {design['ok']} of {design['calls']}")
    if samples != expected:
        runner.problems.append(f"traced pass advanced {samples} plant samples, expected {expected}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "valvebench", "__init__.py")):
        print(f"valvebench sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import valvebench

    if os.path.dirname(os.path.abspath(valvebench.__file__)) != os.path.join(SRC, "valvebench"):
        print(f"imported valvebench from {valvebench.__file__}, not {SRC}", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        runner = Runner(WORKLOADS[args.workload], scratch)
        runner.reference_op(args.seed)
        runner.prepare(args.seed)
        if args.trace:
            metrics = per_layer(runner)
        else:
            metrics = end_to_end(runner, args.seconds)
            if metrics:
                metrics["ok_ops_ratio"] = (
                    (runner.attempted - runner.failed) / runner.attempted, "ratio")
    for problem in runner.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    if not metrics:
        print("no op succeeded", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
