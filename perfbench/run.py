#!/usr/bin/env python3
"""Build the perfbench binary from source, then run it with the given arguments.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload random50 --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR when set, else to perfbench/target. Cargo's
output goes to stderr, so the benchmark's result stays the last line of stdout.
A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(target, "release", "perfbench")
    sys.stdout.flush()
    return subprocess.run([exe, *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())
