#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload paper|isa|fuzz --seed N \
        --seconds S --trace 0|1 [--plant none|checksum|replay|slot]

The first run configures and builds perfbench/ (which compiles the
simulator from ../src) under $CARGO_TARGET_DIR/perfbench, defaulting to
.bench_build/perfbench; later runs only re-check the build.  Build
output goes to stderr, so the last line of stdout is perfbench's JSON
result.  With --trace 1 the spans are written as Chrome trace-event JSON
to <build root>/traces/<workload>-seed<N>.json.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build_root():
    root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return root if root.is_absolute() else ROOT / root


def build(build_dir):
    """Configure (once) and build perfbench; returns its path."""
    # Keep the compiler's temporary files inside the checkout too.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, env=env, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", jobs],
        stdout=sys.stderr, env=env, check=True)
    return build_dir / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["paper", "isa", "fuzz"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--plant", default="none",
                    choices=["none", "checksum", "replay", "slot"])
    args = ap.parse_args()

    if not (ROOT / "src" / "os" / "kernel.h").is_file():
        print(f"perfbench: simulator sources not found under {ROOT}/src",
              file=sys.stderr)
        return 2
    try:
        exe = build(build_root() / "perfbench")
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--plant", args.plant]
    if args.trace == "1":
        traces = build_root() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
