#!/usr/bin/env python3
"""Build and run the HSCD benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload paper-figures --seed 1 \
        --seconds 35 --trace 0
    python3 perfbench/run.py --workload paper-figures --record

The first run configures and builds perfbench/, which compiles the
simulator from ../src, into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later runs rebuild incrementally. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON
result. --record rewrites perfbench/expected/paper_figures.txt and is
the only way that file changes.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected" / "paper_figures.txt"


def build_dir() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build(bdir: Path) -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no simulator sources under src/; "
                 "run from the root of a full checkout")
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(bdir), "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return bdir / "hscd_perfbench"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--expected", default=str(EXPECTED),
                    help="expected paper-figures fingerprints")
    args, rest = ap.parse_known_args()
    bdir = build_dir()
    exe = build(bdir)
    cmd = [str(exe), "--workload", args.workload,
           "--expected", args.expected,
           "--spans", str(bdir / f"spans-{args.workload}.json"), *rest]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
