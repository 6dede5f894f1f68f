#!/usr/bin/env python3
"""End-to-end benchmark entry point (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository. Builds perfbench_e2e from source
(an incremental no-op once built) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset, then runs one workload and
passes its report through. The last stdout line is the result JSON.
Build output goes to stderr.
"""

import argparse
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures and builds the benchmark; returns the binary path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit(f"perfbench: no repository sources under {ROOT}")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir),
             *generator, "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
             "-DADQ_GIT_DESCRIBE=perfbench"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench_e2e",
         "-j", jobs],
        check=True, stdout=sys.stderr)
    return build_dir / "perfbench_e2e"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    try:
        binary = build(target / "perfbench")
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"perfbench: build failed: {e}")

    # Observability must stay off in timed passes: drop every ADQ_*
    # switch (ADQ_TRACE, ADQ_METRICS, ADQ_PROFILE, ADQ_PROGRESS, ...).
    env = {k: v for k, v in os.environ.items() if not k.startswith("ADQ_")}
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"perfbench: {args.workload} did not finish in "
                 f"{RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
