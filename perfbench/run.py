#!/usr/bin/env python3
"""Production-path benchmark of the Zab library: one run of one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
library sources and the benchmark binary (Release) under $CARGO_TARGET_DIR,
or .bench_build when that is unset; later runs rebuild incrementally. Each
run gets a fresh data directory under the build directory and removes it
afterwards. The binary prints a readable report; the last line of stdout is
the result as one JSON object (see perfbench/README.md). Exit code 0 means
the run finished and passed its correctness gate.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("writes_pipelined", "mixed_sync", "leader_failover")
RUN_TIMEOUT_S = 170  # one run, after the build


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources not found next to perfbench/; run from a checkout")
        return None
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    # Later runs: the build step re-runs CMake itself when a CMakeLists changed.
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    binary = os.path.join(build_dir, "zab_perfbench")
    return binary if os.path.isfile(binary) else None


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown(not-a-git-checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it is present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Parse and validate the binary's result line; returns (result, problem)."""
    try:
        res = json.loads(line)
    except ValueError:
        return None, "last line is not JSON"
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return None, "result keys are wrong"
    want = expected_metrics(trace)
    if want is not None and set(res["metrics"]) != want:
        missing = sorted(want - set(res["metrics"]))
        extra = sorted(set(res["metrics"]) - want)
        return None, "metrics differ from BENCHMARK.json: missing %s extra %s" % (missing, extra)
    return res, None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not 1 <= args.seconds <= 600:
        ap.error("--seconds must be within 1..600")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    binary = build(os.path.join(build_root, "perfbench"))
    if binary is None:
        return 1

    data_dir = os.path.join(build_root, "data", "%s-seed%d-pid%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(data_dir, ignore_errors=True)
    os.makedirs(data_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", data_dir, "--git-sha", git_sha()]
    if args.trace:
        traces = os.path.join(build_root, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, "%s-seed%d.csv" % (args.workload, args.seed))]

    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("run exceeded %d s; killed" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    lines = out.rstrip("\n").split("\n") if out.strip() else []
    if not lines:
        log("zab_perfbench printed nothing (exit %d)" % proc.returncode)
        return 1
    for line in lines[:-1]:
        print(line)
    res, problem = check_result(lines[-1], args.trace == 1)
    if problem:
        log(problem + ": " + lines[-1][:500])
        return 1
    print("elapsed_s=%.1f exit=%d" % (time.monotonic() - started, proc.returncode))
    print(json.dumps(res))
    return 0 if proc.returncode == 0 and res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
