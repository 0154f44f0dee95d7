#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload pipeline-gnm --seed 1 --seconds 30 --trace 0

Run from the repository root. Configures and builds the kmm library and the
perfbench binary (Release) into $CARGO_TARGET_DIR, or .bench_build when that
is unset, then runs the binary with the given arguments. Build output goes to
stderr; the binary's stdout passes through unchanged, its last line being the
JSON result. Exits nonzero, without a result, when the build fails (for
example when the kmm sources are not next to this directory).
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> Path:
    if not (HERE.parent / "CMakeLists.txt").is_file() or not (HERE.parent / "src" / "kmm.hpp").is_file():
        sys.exit("perfbench: the kmm sources are not next to this directory; nothing to build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return build_dir / "perfbench"


def main() -> int:
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()
    binary = build(build_dir)
    cmd = [str(binary), *sys.argv[1:], "--work-dir", str(build_dir / "work")]
    with subprocess.Popen(cmd) as proc:
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
