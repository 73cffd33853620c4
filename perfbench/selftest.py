#!/usr/bin/env python3
"""Self-test of the benchmark's own checks. Run from the root of a checkout:

    python3 perfbench/selftest.py

1. For each workload, a run with one expected verdict flipped
   (--wrong-oracle) must exit non-zero, report "correct": false with at
   least one failed operation, and name the failing model on stderr.
2. A run with the correct oracle must exit 0 with "correct": true.
3. In a directory holding only BENCHMARK.json and perfbench/, the command
   must exit non-zero without printing a result.

Exits 0 when every check holds.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join("perfbench", "run.py")
MODEL_NAMES = {
    "verify_cruise": "cruise_control.aadl",
    "sweep_fleet": "sweep_fleet model c0-s",
    "serve_edit": "serve_edit variant [",
}


def bench(cwd, workload, *extra):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", "0"] + list(extra)
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def main():
    failures = []
    for workload, name in MODEL_NAMES.items():
        p = bench(ROOT, workload, "--wrong-oracle")
        result = last_json(p.stdout)
        if p.returncode == 0:
            failures.append("%s --wrong-oracle exited 0" % workload)
        if not result or result["correct"] or result["failed"] < 1:
            failures.append("%s --wrong-oracle did not report a failure: %r"
                            % (workload, result))
        if "FAILED: " not in p.stderr or name not in p.stderr:
            failures.append("%s --wrong-oracle did not name the model %r"
                            % (workload, name))
        p = bench(ROOT, workload)
        result = last_json(p.stdout)
        if p.returncode != 0 or not result or not result["correct"]:
            failures.append("%s with the right oracle failed (%d): %s"
                            % (workload, p.returncode, p.stderr[-500:]))

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = bench(bare, "verify_cruise")
    if p.returncode == 0 or last_json(p.stdout) is not None:
        failures.append("bare directory: expected a non-zero exit and no "
                        "result, got %d and %r" % (p.returncode, p.stdout))
    shutil.rmtree(bare, ignore_errors=True)

    for f in failures:
        print("SELFTEST FAILED: " + f)
    print("selftest: %s" % ("ok" if not failures else
                            "%d failure(s)" % len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
