#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the qof libraries, qof_serve and the
benchmark binary (e2e_bench) from source into $CARGO_TARGET_DIR (default
.bench_build) on first use, then replaces itself with that binary, whose
last stdout line is the JSON result. Build output goes to stderr. Exits
non-zero without a result when the sources are missing or the build
fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("bibtex-serve", "grammar-disk", "bibtex-twophase")


def build(build_dir):
    """Configures (once) and builds the two binaries; returns their paths."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "e2e_bench", "qof_serve",
         "-j", jobs],
        check=True, stdout=sys.stderr)
    return (os.path.join(build_dir, "e2e_bench"),
            os.path.join(build_dir, "qof_serve"))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "e2ebench")
    work_dir = os.path.join(root, ".bench_work")
    try:
        bench, serve = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"benchmark build failed: {err}", file=sys.stderr)
        return 2
    os.makedirs(work_dir, exist_ok=True)

    # Production defaults only: drop the engine's environment overrides.
    env = {k: v for k, v in os.environ.items() if not k.startswith("QOF_")}
    # One CPU for the benchmark and the qof_serve child it spawns (which
    # inherits the mask). On a shared virtual machine, every hand-off to
    # a thread on another CPU may wait for the host to schedule that
    # virtual CPU; on one CPU a hand-off is a context switch. The
    # library's thread pools keep their default size.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.stdout.flush()
    sys.stderr.flush()
    os.execve(bench, [
        bench, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work-dir", work_dir, "--serve-bin", serve], env)


if __name__ == "__main__":
    sys.exit(main())
