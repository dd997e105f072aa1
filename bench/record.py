"""Run the benchmark over several seeds and summarise the spread.

    python3 bench/record.py --seeds 1 2 3 4 5 --workloads adapt_fleet
    python3 bench/record.py --seeds 1 2 3 4 5 6 7 8 9 10 --write bench/baseline.json

Each run is `bench/run.py --trace 0` in a fresh process at `run_seconds` from
BENCHMARK.json.  For every end-to-end metric the summary gives the median,
the quartiles (`statistics.quantiles(values, n=4)`) and the quartile spread
as a share of the median, beside the metric's bound.  With `--write` it also
runs two traced passes per workload, for the input sizes and to check that
the counts repeat, and writes a run record:
machine, versions, commit, seeds, `src/` line count and every run's values.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# Counts that must repeat exactly between two traced runs at one seed.
EXACT_COUNTS = ("plant.valve_step.calls", "ident.rls_step.calls", "control.bezout_design.calls")


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["stdout"] = proc.stdout.strip().splitlines()[:-1]
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median if median else 0.0}


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model, "platform": platform.platform()}


def versions() -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy
    import valvebench

    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip() or None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "valvebench": valvebench.__version__, "git_commit": commit}


def src_lines() -> int:
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "valvebench", "*.py")):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--write", help="path of the run record to write")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    workloads = args.workloads or list(whys)

    record = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in workloads:
        runs = []
        for seed in args.seeds:
            result = run(workload, seed, seconds, 0)
            runs.append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                         "log": result["stdout"]})
            print(workload, seed, {k: round(v, 4) for k, v in runs[-1]["metrics"].items()}, flush=True)
            if not result["correct"]:
                print(f"  {workload} seed {seed}: {result['failed']} of {result['attempted']} ops failed", flush=True)
            ok = ok and result["correct"]
        summary = {}
        for name in bounds:
            summary[name] = spread([r["metrics"][name] for r in runs])
            flag = "" if name == "setup_s" or summary[name]["iqr_share"] < bounds[name] / 3 else "  WIDE"
            print(f"  {workload} {name}: median {summary[name]['median']:.6g} "
                  f"spread {summary[name]['iqr_share']:.3f} bound {bounds[name]}{flag}", flush=True)
        record["workloads"][workload] = {"why": whys[workload], "summary": summary, "runs": runs}

    if args.write:
        for workload in workloads:
            traced = [run(workload, args.seeds[0], seconds, 1) for _ in range(2)]
            first, second = ({k: v["value"] for k, v in t["metrics"].items()} for t in traced)
            repeat = {k: first[k] == second[k] for k in EXACT_COUNTS}
            print(f"  {workload} traced twice at seed {args.seeds[0]}: counts repeat {repeat}", flush=True)
            ok = ok and all(repeat.values()) and all(t["correct"] for t in traced)
            m = first
            record["workloads"][workload]["input_per_pass"] = {
                "ops": 8,
                "plant_samples": m["plant.advance.calls"],
                "csv_rows": m["fileio.write_csv.rows"],
                "valve_substeps": m["plant.valve_step.calls"],
            }
            record["workloads"][workload]["traced_seed"] = args.seeds[0]
            record["workloads"][workload]["traced"] = m
            record["workloads"][workload]["traced_counts_repeat"] = repeat
        record = {"machine": machine(), "versions": versions(), "src_lines": src_lines(), **record}
        with open(args.write, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
