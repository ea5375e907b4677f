#!/usr/bin/env python3
"""Run one perfbench workload and print its result line.

    python3 perfbench/run.py --workload lu-large --seed 1 --seconds 30 --trace 0

Run from the repository root. On first use this builds the library and the
benchmark binary from source (CMake, into .bench_build/perfbench) and trains
the pinned DSS model (cached in .bench_build/model); neither step is
measured. The last line of standard output is the result object; see
perfbench/NOTES.md.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BUILD_DIR = os.path.join(OUT, "perfbench")
MODEL_DIR = os.path.join(OUT, "model")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("lu-large", "gnn-paper", "svc-closed", "svc-open")
BUILD_JOBS = str(min(4, os.cpu_count() or 1))
RUN_TIMEOUT_S = 170


def quiet(cmd, **kwargs):
    """Run a set-up step with its output on stderr, so stdout stays ours."""
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                   cwd=ROOT, **kwargs)


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"])
    quiet(["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    env = dict(os.environ, DDMGNN_ARTIFACT_DIR=MODEL_DIR)
    os.makedirs(MODEL_DIR, exist_ok=True)
    # Train (first use only) or load the pinned model; prints its hash.
    train = subprocess.run([BINARY, "train"], env=env, cwd=ROOT,
                           stdout=subprocess.PIPE, text=True, check=False)
    sys.stdout.write(train.stdout)
    if train.returncode != 0:
        print("perfbench: model training failed", file=sys.stderr)
        return 1

    cmd = [BINARY, "run", "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace)]
    try:
        run = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if run.returncode != 0 or not lines or not lines[-1].startswith(
            '{"correct"'):
        print(f"perfbench: run failed (exit {run.returncode})",
              file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
