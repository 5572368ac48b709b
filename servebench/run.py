#!/usr/bin/env python3
"""Serving benchmark: one workload per run, over loopback HDCN.

    python3 servebench/run.py --workload edge-hd --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Builds the library and the benchmark
program from the checkout's sources (CMake, into $CARGO_TARGET_DIR when set,
else .bench_build), builds the served artifacts in a process of their own,
then runs the workload with the settings servebench/workloads.json records
for it. The program's report goes to standard output; its last line is the
JSON result object. Exits non-zero, without a result, when the build or the
run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(max(1, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build_dir, "--target", "servebench", "-j", jobs]):
        # Build output goes to stderr: stdout ends with the result line.
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True)
    return os.path.join(build_dir, "servebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)["workloads"]
    if args.workload not in workloads:
        sys.exit("unknown workload %r (one of %s)" % (args.workload, ", ".join(workloads)))

    out_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(os.path.join(out_root, "servebench"))
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit("servebench: build failed: %s" % e)

    cmd = [binary,
           "--workload=" + args.workload,
           "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds,
           "--trace=%d" % args.trace,
           "--cache=" + os.path.join(out_root, "servebench-inputs"),
           "--out=" + os.path.join(out_root, "servebench-out")]
    cmd += ["--%s=%s" % (k, v) for k, v in workloads[args.workload]["settings"].items()]
    try:
        # The served artifacts are built (or found in the cache) by a process of
        # their own, so training leaves nothing in the measured process.
        subprocess.run(cmd + ["--inputs-only=1"], stdout=sys.stderr, check=True,
                       timeout=RUN_TIMEOUT_S)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.CalledProcessError as e:
        sys.exit("servebench: building inputs failed with %d" % e.returncode)
    except subprocess.TimeoutExpired:
        sys.exit("servebench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if proc.returncode != 0:
        sys.exit("servebench: program exited with %d" % proc.returncode)
    try:
        keys = set(json.loads(lines[-1]))
    except ValueError:
        keys = set()
    if keys != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("servebench: malformed result line")
    sys.stdout.write(lines[-1] + "\n")


if __name__ == "__main__":
    main()
