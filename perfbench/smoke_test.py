#!/usr/bin/env python3
"""Smoke self-test of the end-to-end benchmark.

    python3 perfbench/smoke_test.py

Run from the root of the repository. Runs every workload the benchmark
knows (those BENCHMARK.json lists and those it leaves out) once
untraced and once traced, at minimal length, and asserts that:
  * the last stdout line is a well-formed result with correct == true
    and no failed job;
  * it carries exactly the metrics BENCHMARK.json names for the mode
    (end_to_end untraced, per_layer traced), each with its unit;
  * every output check that applies to the workload ran and passed.
Exits non-zero on the first violation.
"""

import json
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

SIGNOFF = {"signoff_sta", "signoff_lint"}
BEST_POINTS = {"best_sta", "best_power", "activity"}
EXPECTED_CHECKS = {
    "paper_fig5": SIGNOFF | BEST_POINTS | {"best_submask"},
    "lattice_16dom": SIGNOFF | BEST_POINTS | {"best_submask",
                                              "frontier_table"},
    "flow_closure": SIGNOFF,
    "frontier_store": SIGNOFF | BEST_POINTS | {"store_read"},
}
CHECK_LINE = re.compile(r"^check (\S+)\s+ran=(\d+) failed=(\d+)$")


def fail(msg):
    sys.exit(f"smoke_test: FAIL: {msg}")


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}:\n"
             f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [w["name"] for w in spec["workloads"]]
    if not set(listed) <= set(EXPECTED_CHECKS):
        fail(f"workloads {listed} missing from the checks table")
    for workload in EXPECTED_CHECKS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            report, result = run(workload, trace)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{workload}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0:
                fail(f"{workload} trace={trace}: correct={result['correct']} "
                     f"failed={result['failed']}")
            if not isinstance(result["attempted"], int) or \
                    result["attempted"] < 1:
                fail(f"{workload}: attempted={result['attempted']}")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                fail(f"{workload} trace={trace}: metrics differ from "
                     f"BENCHMARK.json {section}: missing "
                     f"{sorted(set(want) - set(got))}, extra "
                     f"{sorted(set(got) - set(want))}, units "
                     f"{sorted(k for k in want if got.get(k, want[k]) != want[k])}")
            for k, v in result["metrics"].items():
                if not isinstance(v["value"], (int, float)):
                    fail(f"{workload}: {k} value {v['value']!r}")
            checks = {}
            for line in report:
                m = CHECK_LINE.match(line)
                if m:
                    checks[m.group(1)] = (int(m.group(2)), int(m.group(3)))
            if set(checks) != EXPECTED_CHECKS[workload]:
                fail(f"{workload}: checks {sorted(checks)}, expected "
                     f"{sorted(EXPECTED_CHECKS[workload])}")
            for kind, (ran, failed) in checks.items():
                if ran < 1 or failed:
                    fail(f"{workload}: check {kind} ran={ran} failed={failed}")
            print(f"ok {workload} trace={trace}: {len(got)} metrics, "
                  f"{sum(r for r, _ in checks.values())} checks")
    print("smoke_test: all workloads passed")


if __name__ == "__main__":
    main()
