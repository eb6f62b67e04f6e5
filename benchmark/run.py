#!/usr/bin/env python3
"""Build and run qdgnn-benchmark.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds two release copies of the benchmark
offline: the measured one, with the obs layer compiled out, into
$CARGO_TARGET_DIR (default benchmark/target), and one with `--features
obs` into its `obs/` subdirectory, which the traced pass runs to measure
what enabled instrumentation costs. Then runs the measured copy with the
given arguments and exits with its status. Cargo's output goes to stderr,
so the benchmark's JSON result stays the last line of stdout.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(target_dir, features):
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml"),
         "--bin", "qdgnn-benchmark", "--target-dir", target_dir] + features,
        stdout=sys.stderr, check=True)
    return os.path.join(target_dir, "release", "qdgnn-benchmark")


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    try:
        measured = build(target, [])
        with_obs = build(os.path.join(target, "obs"), ["--features", "obs"])
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: building the benchmark failed: {e}", file=sys.stderr)
        return 2
    return subprocess.run([measured, "--obs-bin", with_obs] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
