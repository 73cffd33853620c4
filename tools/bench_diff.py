#!/usr/bin/env python3
"""Benchmark regression gate: fresh BENCH_*.json vs the committed baseline.

Compares the google-benchmark reports a fresh `tools/run_benches.sh` run
wrote against the snapshots committed under bench/baselines/, over a small
allowlist of derived metrics (not every raw timing: smoke-mode timings are
deliberately short and most rows are machine-speed trivia). Each metric
carries a direction, a relative tolerance, and an absolute noise floor —
a change only fails the gate when it is worse in the metric's bad
direction, by more than the tolerance, AND by more than the floor.

Exit codes: 0 = no regression, 1 = regression, 2 = bad invocation or a
missing/corrupt report.

Refreshing baselines after an intentional perf change:

    bash tools/run_benches.sh build --smoke --out bench/baselines

then commit the changed BENCH_*.json files with a note on what moved.

Usage:
    bench_diff.py [--baseline bench/baselines] [--fresh bench-reports]
                  [--tolerance 0.15]
"""

import argparse
import json
import os
import sys


def row(report, name):
    for b in report.get("benchmarks", []):
        if b.get("name") == name:
            return b
    raise KeyError("benchmark row '%s' not found" % name)


def seconds(bench_row):
    unit = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}[
        bench_row.get("time_unit", "ns")]
    return bench_row["real_time"] * unit


# --- derived metrics -------------------------------------------------------

def explore_states_per_sec(reports):
    b = row(reports["BENCH_explore.json"], "BM_Scaling/6")
    return b["states"] / seconds(b)


def warm_serve_us(reports):
    return seconds(row(reports["BENCH_service.json"],
                       "BM_ServeCachedMemory")) * 1e6


def warm_serve_disk_us(reports):
    # Two digest-verified disk loads per iteration (the keys alternate
    # through a one-entry memory tier); report the per-serve cost.
    return seconds(row(reports["BENCH_service.json"],
                       "BM_ServeCachedDisk")) * 1e6 / 2.0


def storm_bytes_per_state(reports):
    return row(reports["BENCH_reduction.json"],
               "BM_StormBytesPerState")["bytes_per_state"]


def lint_static_decide_rate(reports):
    return row(reports["BENCH_lint.json"], "BM_LintStaticScreen")[
        "decide_rate"]


def lint_us_per_model(reports):
    return seconds(row(reports["BENCH_lint.json"],
                       "BM_LintStaticScreen")) * 1e6


def symbolic_zones_per_sec(reports):
    b = row(reports["BENCH_symbolic.json"], "BM_SymbolicSlowPeriodic")
    return b["zones"] / seconds(b)


def symbolic_decide_rate(reports):
    return row(reports["BENCH_symbolic.json"],
               "BM_SymbolicDecidePortfolio")["decide_rate"]


def exp_models_per_sec(reports):
    b = row(reports["BENCH_exp.json"], "BM_ExperimentGridInProcess")
    return b["models"] / seconds(b)


def exp_render_us(reports):
    return seconds(row(reports["BENCH_exp.json"], "BM_RenderModel")) * 1e6


class Metric:
    def __init__(self, name, derive, higher_is_better, floor, unit):
        self.name = name
        self.derive = derive
        self.higher_is_better = higher_is_better
        # Absolute change below the floor is timer/allocator noise no matter
        # the percentage (e.g. a 9 us -> 11 us warm serve is not a 22%
        # regression worth a red build).
        self.floor = floor
        self.unit = unit


# The gated metrics (ROADMAP perf item): exploration throughput, the warm
# serve path, bytes/state on
# storm (it tracks the storage representation), and the static screening numbers (DESIGN.md §14: the decide rate must not
# drop — a pass silently losing its fragment pushes models back to
# exploration — and the per-model screen must stay in microseconds).
METRICS = [
    Metric("explore_states_per_sec", explore_states_per_sec,
           higher_is_better=True, floor=500.0, unit="states/s"),
    Metric("warm_serve_us", warm_serve_us,
           higher_is_better=False, floor=5.0, unit="us"),
    # The disk serve re-reads, digest-verifies, and re-parses the artifact;
    # it is fs-cache sensitive, so the noise floor is wider than the
    # memory path's.
    Metric("warm_serve_disk_us", warm_serve_disk_us,
           higher_is_better=False, floor=50.0, unit="us"),
    Metric("storm_bytes_per_state", storm_bytes_per_state,
           higher_is_better=False, floor=64.0, unit="B"),
    Metric("lint_static_decide_rate", lint_static_decide_rate,
           higher_is_better=True, floor=0.02, unit="x"),
    Metric("lint_us_per_model", lint_us_per_model,
           higher_is_better=False, floor=50.0, unit="us"),
    # Symbolic engine (DESIGN.md §16): class-graph throughput on the
    # long-hyperperiod fixture, and the fragment's conclusive-decision
    # fraction over its portfolio (a drop means the engine started
    # refusing or truncating models it must own).
    Metric("symbolic_zones_per_sec", symbolic_zones_per_sec,
           higher_is_better=True, floor=500.0, unit="zones/s"),
    Metric("symbolic_decide_rate", symbolic_decide_rate,
           higher_is_better=True, floor=0.02, unit="x"),
    # Experiment harness (DESIGN.md §17): end-to-end models/sec through the
    # in-process backend — the fleet driver's throughput — and the harness's
    # own per-model rendering overhead, which must stay in microseconds so
    # generation never starves the analysis workers.
    Metric("exp_models_per_sec", exp_models_per_sec,
           higher_is_better=True, floor=20.0, unit="models/s"),
    Metric("exp_render_us", exp_render_us,
           higher_is_better=False, floor=50.0, unit="us"),
]


def load_reports(directory):
    reports = {}
    for fname in sorted(os.listdir(directory)):
        if not (fname.startswith("BENCH_") and fname.endswith(".json")):
            continue
        with open(os.path.join(directory, fname)) as f:
            reports[fname] = json.load(f)
    if not reports:
        raise FileNotFoundError("no BENCH_*.json in " + directory)
    return reports


def main():
    ap = argparse.ArgumentParser(
        description="fail on benchmark regressions vs committed baselines")
    ap.add_argument("--baseline", default="bench/baselines",
                    help="directory with the committed BENCH_*.json")
    ap.add_argument("--fresh", default="bench-reports",
                    help="directory with the fresh run's BENCH_*.json")
    ap.add_argument("--tolerance", type=float, default=0.15,
                    help="relative regression tolerance (default 0.15)")
    args = ap.parse_args()

    try:
        baseline = load_reports(args.baseline)
        fresh = load_reports(args.fresh)
    except (FileNotFoundError, json.JSONDecodeError) as e:
        print("bench_diff: %s" % e, file=sys.stderr)
        return 2

    regressions = 0
    print("%-28s %12s %12s %9s  %s" % ("metric", "baseline", "fresh",
                                       "delta", "status"))
    for m in METRICS:
        try:
            base = m.derive(baseline)
        except KeyError as e:
            print("%-28s %12s %12s %9s  no baseline (%s) — refresh "
                  "bench/baselines" % (m.name, "-", "-", "-", e))
            regressions += 1
            continue
        try:
            cur = m.derive(fresh)
        except KeyError as e:
            print("%-28s %12.2f %12s %9s  MISSING in fresh run (%s)"
                  % (m.name, base, "-", "-", e))
            regressions += 1
            continue

        delta = cur - base
        rel = delta / base if base else 0.0
        worse = -delta if m.higher_is_better else delta
        worse_rel = -rel if m.higher_is_better else rel
        if worse > m.floor and worse_rel > args.tolerance:
            status = "REGRESSION (>%d%% %s)" % (
                args.tolerance * 100, "drop" if m.higher_is_better else "rise")
            regressions += 1
        elif worse_rel < -args.tolerance:
            status = "improved"
        else:
            status = "ok"
        print("%-28s %12.2f %12.2f %+8.1f%%  %s %s"
              % (m.name, base, cur, rel * 100, status, m.unit))

    if regressions:
        print("\nbench_diff: %d regression(s) beyond %.0f%% tolerance; if "
              "intentional, refresh the baselines (see header)"
              % (regressions, args.tolerance * 100), file=sys.stderr)
        return 1
    print("\nbench_diff: all gated metrics within %.0f%% of baseline"
          % (args.tolerance * 100))
    return 0


if __name__ == "__main__":
    sys.exit(main())
