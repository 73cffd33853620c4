#!/usr/bin/env python3
"""Build and run the aadlsched benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify_cruise --seed 1 --seconds 30 --trace 0

builds perfbench (the aadlsched libraries from src/ plus the benchmark's own
programs) under .bench_build/perfbench, runs one measurement and passes its
output through: the last line of stdout is the JSON result.

    python3 perfbench/run.py --workload sweep_fleet --seconds 30 --repeat 10

is the steadiness report: ten runs on seeds seed..seed+9, then each metric's
median, quartiles and quartile spread as a share of the median, next to the
bound BENCHMARK.json gives it.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("verify_cruise", "sweep_fleet", "serve_edit")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no aadlsched sources at %s/src: run from a full checkout" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            fail("configure failed")
    jobs = str(min(os.cpu_count() or 1, 4))
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench",
           "perfbench_ref"]
    if subprocess.call(cmd, stdout=sys.stderr) != 0:
        fail("build failed")


def bench_cmd(args, seed):
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--work-dir", os.path.join(BUILD, "work")]
    if args.wrong_oracle:
        cmd.append("--wrong-oracle")
    return cmd


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(args):
    bounds = {}
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            for m in json.load(f).get("end_to_end", []):
                bounds[m["name"]] = m["bound"]
    except (OSError, ValueError, KeyError):
        pass
    series = {}
    for k in range(args.repeat):
        seed = args.seed + k
        proc = subprocess.run(bench_cmd(args, seed), stdout=subprocess.PIPE,
                              text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stdout.write(proc.stdout)
            fail("run on seed %d failed with code %d" % (seed, proc.returncode))
        result = json.loads(lines[-1])
        for name, m in result["metrics"].items():
            series.setdefault(name, (m["unit"], []))[1].append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (n, m["value"]) for n, m in result["metrics"].items())))
        sys.stdout.flush()
    print("%s over %d seeds from %d, %gs each:" % (
        args.workload, args.repeat, args.seed, args.seconds))
    print("  %-26s %12s %12s %12s %8s %8s  %s" % (
        "metric", "q1", "median", "q3", "spread", "bound", "unit"))
    summary = {}
    for name, (unit, values) in series.items():
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print("  %-26s %12.6g %12.6g %12.6g %8.4f %8s  %s%s" % (
            name, q1, med, q3, spread, "-" if bound is None else bound, unit,
            "  WIDER THAN BOUND/3" if bound is not None and name != "setup_s"
            and spread > bound / 3 else ""))
        summary[name] = {"q1": q1, "median": med, "q3": q3, "spread": spread}
    print(json.dumps(summary))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0,
                   help="steadiness report over this many seeds")
    p.add_argument("--wrong-oracle", action="store_true",
                   help="self-test: flip one expected verdict")
    args = p.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")
    build()
    if args.repeat > 0:
        repeat(args)
        return 0
    sys.stdout.flush()
    return subprocess.call(bench_cmd(args, args.seed))


if __name__ == "__main__":
    sys.exit(main())
