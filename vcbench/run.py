#!/usr/bin/env python3
"""Builds and runs the vcflight benchmark.

Run from the repository root:

    python3 vcbench/run.py --workload campaign_cold --seed 1 --seconds 40 --trace 0

The first run configures and builds vcbench/ (the vcflight libraries from
src/, vccd, and the benchmark binary) in $CARGO_TARGET_DIR/vcbench, default
.bench_build/vcbench; later runs only re-check the build. The benchmark's
last line of standard output is its JSON result; its exit code is the
benchmark's (non-zero when an output check failed or nothing could be built).
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("campaign_cold", "compile_ssa_rv32", "service_edit_loop")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the benchmark; returns False on failure."""
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        print("vcbench: no vcflight sources next to the benchmark (../src)",
              file=sys.stderr)
        return False
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "vcbench"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=log).returncode != 0:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                print("vcbench: build failed (see %s)" % log_path,
                      file=sys.stderr)
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        parser.error("--seed must be >= 0 and --seconds in [1, 3600]")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(target, "vcbench")
    if not build(build_dir):
        return 1
    # Relative paths keep the daemon's Unix socket path short.
    out_dir = os.path.relpath(os.path.join(build_dir, "out"))
    command = [os.path.join(build_dir, "vcbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--vccd", os.path.join(build_dir, "vcflight", "tools", "vccd"),
               "--out-dir", out_dir]
    # Its own process group, so a hung run is killed together with vccd.
    proc = subprocess.Popen(command, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("vcbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
