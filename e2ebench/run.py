#!/usr/bin/env python3
"""End-to-end + per-layer benchmark of the Disco mediator.

    python3 e2ebench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the mediator libraries and the
benchmark binary from source (CMake, Release) into $CARGO_TARGET_DIR or
.bench_build, runs one workload and prints, as the last line of standard
output, one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end ones listed in
BENCHMARK.json, with --trace 1 the per-layer ones. Build output,
provenance and progress go to standard error. Exits nonzero, without a
result line, when the build fails or the benchmark binary misbehaves, and nonzero
with the result line when an answer check failed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "disco_e2ebench"],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "disco_e2ebench")


def git_revision():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(binary, build_dir, spec, workload, args):
    """Runs one workload in its own process; its result, or None."""
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", build_dir]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("e2ebench: run exceeded", RUN_TIMEOUT_S, "s")
        return None
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("e2ebench: benchmark binary printed no result (exit %d)" % done.returncode)
        return None
    expected = [m["name"]
                for m in spec["per_layer" if args.trace else "end_to_end"]]
    got = list(result.get("metrics", {}))
    if sorted(got) != sorted(expected):
        log("e2ebench: metric names differ from BENCHMARK.json:",
            sorted(set(got) ^ set(expected)))
        return None
    if done.returncode != 0:
        result["correct"] = False
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all' to run "
                             "each in turn and print one combined result "
                             "with metrics named <workload>.<metric>")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(os.path.join(build_dir, "e2ebench"))
        spec = load_spec()
    except (OSError, subprocess.CalledProcessError, ValueError) as e:
        log("e2ebench: build failed:", e)
        return 1
    log("provenance: git_revision=" + git_revision())

    if args.workload != "all":
        result = run_workload(binary, build_dir, spec, args.workload, args)
        if result is None:
            return 1
        print(json.dumps(result), flush=True)
        return 0 if result["correct"] else 1

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        result = run_workload(binary, build_dir, spec, workload, args)
        if result is None:
            return 1
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "." + name] = metric
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
