#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S]
                             [--trace 0|1]

Builds the benchmark (the multival library, multival_cli and the mvbench
harness, see perfbench/CMakeLists.txt) into .bench_build/ on first use, runs
the workload and relays the harness output: a table of metrics with their
units, then, as the last line, one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 its per-layer metrics; the reported names and units
are checked against BENCHMARK.json.  Results, traces and deterministic
counts are written to .bench_out/.  --workload all runs every workload in
turn and ends with one JSON object keyed by workload.

Exit status 0 when every output check passed; nonzero otherwise, and on a
failed build (without printing a result).
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark targets; False on error."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "mvbench", "multival_cli"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("run.py: build step failed:", " ".join(cmd))
            return False
    return True


def stop_group(pgid):
    """Kills whatever is left of the harness's process group and waits
    until it is gone (the serve-ctmc server lives in that group)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_workload(workload, seed, seconds, trace, declared):
    """Runs one workload; returns (exit code, result dict or None)."""
    cmd = [os.path.join(BUILD_DIR, "mvbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--cli", os.path.join(BUILD_DIR,
                                                         "multival_cli"),
           "--golden", "perfbench/golden", "--out", OUT_DIR]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        log(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s")
        return 1, None
    stop_group(proc.pid)
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(stdout)
        log(f"run.py: {workload} printed no result (exit {proc.returncode})")
        return proc.returncode or 1, None
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        log(f"run.py: {workload} metrics do not match BENCHMARK.json")
        result["correct"] = False
    code = proc.returncode if result["correct"] else (proc.returncode or 1)
    return code, result


def main():
    os.chdir(ROOT)
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        return 3
    os.makedirs(OUT_DIR, exist_ok=True)
    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in bench[section]}

    if args.workload != "all":
        code, result = run_workload(args.workload, args.seed, args.seconds,
                                    args.trace, declared)
        if result is None:
            return code or 1
        print(json.dumps(result), flush=True)
        return code

    results, worst = {}, 0
    for workload in names:
        code, result = run_workload(workload, args.seed, args.seconds,
                                    args.trace, declared)
        worst = worst or code
        results[workload] = result
    if args.trace == 0:
        print("== end-to-end summary ==")
        for workload, result in results.items():
            if result is None:
                print(f"  {workload}: no result")
                continue
            rate = result["failed"] / max(1, result["attempted"])
            print(f"  {workload}: error_rate {rate:.6g}")
            for name, m in result["metrics"].items():
                print(f"    {name:<14}{m['value']:<24.10g}{m['unit']}")
    print(json.dumps(results), flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())
