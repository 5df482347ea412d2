#!/usr/bin/env python3
"""Builds the repository benchmark and runs one of its workloads.

    python3 perfbench/run.py --workload sweep_lstm|greedy_gru|serve_wcnn \
        --seed N --seconds S --trace 0|1

Run from the root of the repository. The benchmark is configured and built
(RelWithDebInfo, against ../src) under $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later runs reuse the
build. Build output goes to standard error. The workload's own output
follows on standard output, its last line being the result object. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep_lstm", "greedy_gru", "serve_wcnn")


def build(build_dir):
    """Configures and builds the benchmark binary; returns its path. Both
    steps are quick no-ops on an up-to-date build."""
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench_run",
         "-j", jobs],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench_run")


def commit_id():
    """The git commit when the tree is a repository; otherwise a digest of
    the sources the benchmark builds from, which names the same code."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            return "git:" + done.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "cmake", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "tree:" + digest.hexdigest()[:16]


def filesystem_of(path):
    done = subprocess.run(["stat", "-f", "-c", "%T", path],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(base), "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print("perfbench: build failed: %s" % error, file=sys.stderr)
        return 1

    # The daemon's AF_UNIX socket lives here; a path relative to the working
    # directory stays under the kernel's ~107-byte sun_path limit.
    work_dir = os.path.join(build_dir, "run")
    os.makedirs(work_dir, exist_ok=True)
    command = [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--work-dir", os.path.relpath(work_dir),
        "--commit", commit_id(), "--fs", filesystem_of(work_dir),
    ]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
