#!/usr/bin/env python3
"""Build and run the real-wire pub/sub load benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (its own cargo workspace, depending on the
repository's crates by path) in release mode, then runs it with the given
arguments. The benchmark's output passes through unchanged; its last line
is the JSON result. Build artifacts go to $CARGO_TARGET_DIR, or to
`.bench_build` when that is unset.
"""

import os
import subprocess
import sys
import time

RUN_TIMEOUT_S = 170
# A compile keeps both cores of a small host busy; runs started right after
# one measured slower for their first seconds, so a fresh build is followed
# by a short pause before anything is timed.
SETTLE_AFTER_BUILD_S = 10


def mtime(path: str) -> float:
    try:
        return os.stat(path).st_mtime
    except FileNotFoundError:
        return 0.0


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    manifest = os.path.join(here, "Cargo.toml")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    exe = os.path.join(target, "release", "perfbench")
    built_at = mtime(exe)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    if mtime(exe) != built_at:
        time.sleep(SETTLE_AFTER_BUILD_S)
    try:
        return subprocess.run([exe] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
