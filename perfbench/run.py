#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pai-mine --seed 42 --seconds 20 --trace 0

It builds perfbench_harness (the gpumine libraries from ../src plus the
harness) into $CARGO_TARGET_DIR (default .bench_build), generates the
workload's synthetic trace from --seed (cached on disk, so generation
sits in no metric), runs the workload and prints every metric by name
with its unit. The last stdout line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The exit code is non-zero when any output check fails. See README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 42
# workload -> (synthetic trace, jobs)
WORKLOADS = {
    "pai-mine": ("pai", 60000),
    "philly-mine": ("philly", 240000),
    "serve-mixed": ("pai", 60000),
}
# Fresh set-up processes besides the measured run's own; setup_s is the
# median of these and the run's own. A cold pipeline costs about 0.4 s,
# a cold serve set-up about 3.5 s.
COLD_SETUPS = {"pai-mine": 6, "philly-mine": 6, "serve-mixed": 2}
TRACE_CACHE_FILES = 8
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(text):
    print(text, file=sys.stderr, flush=True)


def build(build_dir):
    cmake_dir = os.path.join(build_dir, "cmake")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
             "-DCMAKE_BUILD_TYPE=Release"] + generator,
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", cmake_dir, "--target", "perfbench_harness",
         "-j", "4"],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(cmake_dir, "perfbench_harness")


def trace_csv(harness, build_dir, workload, seed, deadline):
    """The workload's trace for this seed, generated once and cached."""
    kind, jobs = WORKLOADS[workload]
    cache = os.path.join(build_dir, "traces")
    os.makedirs(cache, exist_ok=True)
    path = os.path.join(cache, f"{kind}-{jobs}-{seed}.csv")
    if not os.path.exists(path):
        partial = path + ".partial"
        harness_call(harness, ["synth", "--trace", kind, "--jobs", str(jobs),
                               "--seed", str(seed), "--out", partial],
                     deadline)
        os.replace(partial, path)
    os.utime(path)
    cached = sorted((os.path.join(cache, f) for f in os.listdir(cache)
                     if f.endswith(".csv")), key=os.path.getmtime)
    for old in cached[:-TRACE_CACHE_FILES]:
        os.remove(old)
    return path


def harness_call(harness, args, deadline):
    """Runs the harness; returns the JSON object on its last stdout line."""
    done = subprocess.run([harness] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"harness {args[0]} printed nothing "
                           f"(exit {done.returncode})")
    if args[0] == "synth":
        if done.returncode != 0:
            raise RuntimeError(f"harness synth exited {done.returncode}")
        return {}
    result = json.loads(lines[-1])
    if done.returncode != 0 and args[0] != "run":
        raise RuntimeError(f"harness {args[0]} exited {done.returncode}")
    result["exit_code"] = done.returncode
    return result


def check_digests(workload, seed, digests, problems):
    """For the default seed, outputs must match the committed digests."""
    if seed != DEFAULT_SEED:
        return True
    with open(os.path.join(BENCH_DIR, "digests.json")) as f:
        expected = json.load(f)[workload]
    ok = True
    for name, digest in expected.items():
        if digests.get(name) != digest:
            problems.append(f"digest of {name!r} is {digests.get(name)}, "
                            f"committed {digest}")
            ok = False
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    try:
        harness = build(build_dir)
    except (subprocess.SubprocessError, OSError) as e:
        log(f"perfbench: build failed: {e}")
        return 1
    deadline = time.monotonic() + RUN_TIMEOUT_S
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    try:
        csv = trace_csv(harness, build_dir, args.workload, args.seed, deadline)
        common = ["--workload", args.workload, "--csv", csv,
                  "--work-dir", work_dir]
        report = harness_call(
            harness, ["run"] + common + [
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)], deadline)
        # The cold set-ups follow the measured run, so each one meets the
        # host as busy as the run left it rather than fresh from idle.
        setups = [report["setup_s"]]
        if args.trace == 0:
            for _ in range(COLD_SETUPS[args.workload]):
                setups.append(harness_call(harness, ["cold"] + common,
                                           deadline)["setup_s"])
    except (subprocess.SubprocessError, OSError, RuntimeError,
            ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 1

    problems = report["problems"]
    digests_ok = check_digests(args.workload, args.seed, report["digests"],
                               problems)
    correct = report["correct"] and digests_ok and report["exit_code"] == 0
    metrics = report["metrics"]
    if args.trace == 0:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    for group, values in (("metric", metrics), ("info", report["info"])):
        for name in sorted(values):
            print(f"{group:6s} {name:36s} {values[name]['value']:>16.6f} "
                  f"{values[name]['unit']}")
    if args.trace == 0:
        print(f"info   {'setup_s samples':36s} "
              + " ".join(f"{s:.4f}" for s in setups))
    print(f"info   {'error_rate':36s} "
          f"{report['failed'] / report['attempted']:>16.6f} ratio "
          f"({report['failed']} of {report['attempted']} operations)")
    for name, digest in sorted(report["digests"].items()):
        print(f"digest {name:36s} {digest}")
    for problem in problems[:20]:
        print(f"problem {problem}")
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
