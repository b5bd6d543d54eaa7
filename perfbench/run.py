#!/usr/bin/env python3
"""Build and run the phpf wall-clock benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tomcatv-thread --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

It builds, in release mode and offline, the benchmark binary (the
`perfbench` package beside this file) and the repository's `networker`
worker, which the socket backend spawns once per rank. Building the worker
here keeps a nested `cargo build` out of the first timed socket run. Both
go to `$CARGO_TARGET_DIR` (default `.bench_build`), so the worker sits
next to the benchmark binary, where `netrun::worker_bin()` looks first.

Build output goes to stderr. The benchmark's last stdout line is its JSON
result; see `perfbench/src/main.rs` for the arguments and metrics.

The benchmark and the workers it spawns run with glibc malloc told to keep
freed memory in the process (`MALLOC_ENV`). With the defaults, freed memory
goes back to the kernel and is faulted in again by the next run, and on a
2-vCPU VM that cost flips between two levels: TOMCATV's validated run took
0.85-1.65 s (interquartile range 48% of the median) over 89 back-to-back
runs, against 0.86-1.34 s (10%) with memory kept. Both the parent and a
change are measured with these settings.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MALLOC_ENV = {
    "MALLOC_TRIM_THRESHOLD_": str(1 << 34),
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TOP_PAD_": str(256 << 20),
}


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "hpf-compile", "--bin", "networker"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    build(target_dir)
    exe = os.path.join(target_dir, "release", "perfbench")
    sys.stdout.flush()
    os.execve(exe, [exe] + sys.argv[1:], dict(os.environ, **MALLOC_ENV))


if __name__ == "__main__":
    main()
