#!/usr/bin/env python3
"""Build and run one workload of the RTLCheck end-to-end benchmark.

    python3 perfbench/run.py --workload suite|bmc|mutation|service \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
perfbench/CMakeLists.txt (the RTLCheck libraries from src/ plus the
perfbench program) into $CARGO_TARGET_DIR, or .bench_build when that is
unset; later calls rebuild incrementally. The workload then runs in a
fresh process of its own. Its report goes to stdout, and the last
stdout line is one JSON object with the keys correct, attempted,
failed and metrics. Build logs go to stderr. A traced run (--trace 1)
also writes its spans to <build>/traces/<workload>-seed<N>.json.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("suite", "bmc", "mutation", "service")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure (once) and build the benchmark program; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("RTLCheck sources (src/) are missing; run from a full checkout")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_dir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", build_dir, "--target",
                      "perfbench", "-j", jobs])
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                cwd=ROOT).returncode
            if rc != 0:
                fail(f"build step failed ({rc}): {' '.join(cmd)}")
    exe = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(exe):
        fail(f"build produced no {exe}")
    return exe


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds in BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    os.chdir(ROOT)
    if args.seconds is None:
        with open("BENCHMARK.json") as f:
            args.seconds = json.load(f)["run_seconds"]
    build_dir = os.path.relpath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build", ROOT)
    exe = build(build_dir)

    # Short relative paths: the daemon's AF_UNIX socket lives here.
    work_dir = os.path.join(build_dir, f"work-{os.getpid()}")
    cmd = [os.path.join(".", exe) if not os.path.isabs(exe) else exe,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]

    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"workload {args.workload} exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(proc.stdout)
        fail("the benchmark program's last line is not a JSON result")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
