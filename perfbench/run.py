#!/usr/bin/env python3
"""Builds and runs the analognf benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first call configures and
builds the libraries and the benchmark binary in Release (into
$CARGO_TARGET_DIR, default .bench_build); later calls rebuild only what
changed. Build output goes to stderr. The binary's output is passed
through; its last line is one JSON object with the keys correct,
attempted, failed and metrics. This script checks that the metric names
and units match BENCHMARK.json, fills per-layer metrics a workload does
not measure with 0, and exits non-zero when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no analognf sources under {ROOT}; run from a source checkout")
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "-j", str(min(os.cpu_count() or 1, 4)),
         "--target", "analognf_perfbench"],
        stdout=sys.stderr, check=True)
    binary = build_dir / "analognf_perfbench"
    if not binary.is_file():
        fail(f"build did not produce {binary}")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(build_dir)
    except subprocess.CalledProcessError as e:
        fail(f"build failed: {e}")

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = build_dir / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"{args.workload} exited with code {proc.returncode}")

    result = json.loads(lines[-1])
    metrics = result["metrics"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = {m["name"] for m in wanted}
    extra = sorted(set(metrics) - names)
    if extra:
        fail(f"metrics missing from BENCHMARK.json: {extra}")
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            if not args.trace:
                fail(f"{args.workload} did not report {m['name']}")
            # Not measured on this workload.
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        elif got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']} != {m['unit']}")
        elif not args.trace and not got["value"] > 0:
            fail(f"{args.workload} reported {m['name']} = {got['value']}")
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in wanted}

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
