#!/usr/bin/env python3
"""Build the benchmark and run it.

    python3 perfbench/run.py --workload <paper_figures|study_sweep|modern_faults> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is compiled from source with
cargo (offline; build output goes to $CARGO_TARGET_DIR, default
.bench_build), then the binary runs with the same arguments. Build output
goes to standard error; the binary's last line of standard output is the
JSON result. The exit code is the binary's, or 1 when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
