#!/usr/bin/env python3
"""End-to-end benchmark of the simulator itself (see README.md).

Builds bench/e2e from the checkout's sources into .bench_build/ and runs the
pdsp_e2e driver, one fresh process per (workload, repetition), so every
repetition has its own peak RSS. Repetitions run rep-major: one of each
requested workload before the next of any, which spreads machine drift over
all of them. Repetitions continue until --seconds per workload are used up
(at least three each); every metric is reported as the median.

  python3 bench/e2e/run.py                          # e2e pass, all workloads
  python3 bench/e2e/run.py --trace 1                # traced pass
  python3 bench/e2e/run.py --workload fanout-p64 --seed 1009 --seconds 20

Prints `metric workload value unit n=N` per metric, writes a JSON summary to
.bench_build/e2e-out/ and ends stdout with one JSON line:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD_DIR = ROOT / ".bench_build" / "e2e"
BINARY = BUILD_DIR / "pdsp_e2e"
OUT_DIR = ROOT / ".bench_build" / "e2e-out"
REFERENCE = HERE / "reference_digests.json"
MIN_REPS = 3
DRIVER_TIMEOUT_S = 170


def build():
    """Configures and builds pdsp_e2e; exits non-zero when either fails."""
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(BUILD_DIR), "--target", "pdsp_e2e",
         "-j", str(min(4, len(os.sched_getaffinity(0))))],
    ]
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit(f"run.py: build failed: {' '.join(cmd)}")


def driver(*args):
    """Runs pdsp_e2e to completion and returns its final JSON line."""
    cmd = [str(BINARY), *args]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: timed out after {DRIVER_TIMEOUT_S} s: {' '.join(cmd)}")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run.py: exit {proc.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(reports):
    """Medians over one workload's repetitions, plus the output check."""
    first = reports[0]["digests"]
    # Same seed, same inputs: every repetition must reproduce every digest.
    drift = sum(1 for r in reports[1:] for label, hex_ in r["digests"].items()
                if first.get(label) != hex_)
    failed = sum(r["failed"] for r in reports) + drift
    metrics = {}
    for name, m in reports[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in reports]
        q1, q3 = quartiles(values)
        metrics[name] = {"value": statistics.median(values), "unit": m["unit"],
                         "n": len(values), "q1": q1, "q3": q3,
                         "values": values}
    return {"correct": failed == 0 and all(r["correct"] for r in reports),
            "attempted": sum(r["attempted"] for r in reports),
            "failed": failed, "digests": first, "metrics": metrics}


def e2e_pass(workloads, seed, seconds):
    reps = {w: [] for w in workloads}
    start = time.monotonic()
    rounds = []
    while True:
        t0 = time.monotonic()
        for w in workloads:
            reps[w].append(driver("--workload", w, "--seed", str(seed),
                                  "--reference", str(REFERENCE),
                                  "--out", str(OUT_DIR)))
        rounds.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        if (len(rounds) >= MIN_REPS and
                elapsed + max(rounds) > seconds * len(workloads)):
            break
    return {w: summarize(r) for w, r in reps.items()}


def trace_pass(workloads, seed):
    trace_dir = OUT_DIR / "trace"
    results = {w: summarize([driver("--workload", w, "--seed", str(seed),
                                    "--trace", "--reference", str(REFERENCE),
                                    "--out", str(trace_dir))])
               for w in workloads}
    # Every workload traced so far, each with the seed it was traced at.
    layers = {p.parent.name: json.loads(p.read_text())
              for p in sorted(trace_dir.glob("*/layers.json"))}
    (trace_dir / "layers.json").write_text(json.dumps(layers, indent=2) + "\n")
    return results


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append",
                    help="workload name (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"],
                    help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    known = [w["name"] for w in bench["workloads"]]
    workloads = args.workload or known
    unknown = [w for w in workloads if w not in known]
    if unknown:
        sys.exit(f"run.py: unknown workload(s) {unknown}; known: {known}")
    OUT_DIR.mkdir(parents=True, exist_ok=True)

    if args.trace:
        results = trace_pass(workloads, args.seed)
        wanted = bench["per_layer"]
    else:
        results = e2e_pass(workloads, args.seed, args.seconds)
        wanted = bench["end_to_end"]
    summary_path = OUT_DIR / f"summary-{'trace' if args.trace else 'e2e'}.json"
    summary_path.write_text(json.dumps(
        {"seed": args.seed, "nproc": len(os.sched_getaffinity(0)),
         "workloads": results}, indent=2) + "\n")

    metrics = {}
    for w, res in results.items():
        for m in wanted:
            got = res["metrics"].get(m["name"])
            if got is None or got["unit"] != m["unit"]:
                sys.exit(f"run.py: {w}: metric {m['name']} [{m['unit']}] "
                         f"missing from the driver's output")
            print(f"{m['name']} {w} {got['value']:.6g} {got['unit']} n={got['n']}")
            metrics.setdefault(w, {})[m["name"]] = {"value": got["value"],
                                                    "unit": got["unit"]}
    print(f"run.py: summary in {summary_path}", file=sys.stderr)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics[workloads[0]] if len(workloads) == 1 else metrics,
    }))


if __name__ == "__main__":
    main()
