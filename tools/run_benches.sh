#!/usr/bin/env bash
# Machine-readable benchmark runs (satellite of DESIGN.md §11): drive the
# bench binaries in --json mode and leave google-benchmark JSON reports
# next to the build for CI to archive:
#
#   BENCH_explore.json     state-space exploration timings  (bench_statespace)
#   BENCH_service.json     service serve-path timings       (bench_service)
#   BENCH_reduction.json   storm bytes per stored state     (bench_reduction)
#   BENCH_lint.json        static screening decide rate/cost (bench_lint)
#   BENCH_symbolic.json    symbolic engine zones/decide rate (bench_symbolic)
#   BENCH_exp.json         experiment harness models/sec     (bench_exp)
#
# Usage: run_benches.sh <build-dir> [--smoke] [--out <dir>]
#
#   --smoke   forward the benches' smoke mode: ~10 ms timing repetitions,
#             no experiment tables — the CI gate that the bench binaries
#             and their JSON output stay alive, not a measurement
#   --out     where to write the BENCH_*.json files (default: <build-dir>)
set -eu

[ $# -ge 1 ] || { echo "usage: run_benches.sh <build-dir> [--smoke] [--out dir]" >&2; exit 2; }
build=$1; shift

smoke=""
out=$build
while [ $# -gt 0 ]; do
  case $1 in
    --smoke) smoke="--smoke" ;;
    --out) out=$2; shift ;;
    *) echo "unknown option '$1'" >&2; exit 2 ;;
  esac
  shift
done
mkdir -p "$out"

run() {  # run <binary> <report>
  bin=$build/bench/$1
  [ -x "$bin" ] || { echo "missing bench binary $bin (build the repo first)" >&2; exit 2; }
  echo "== $1 -> $out/$2"
  "$bin" $smoke --json "$out/$2"
  # A report that parses and contains at least one benchmark row is the
  # smoke-mode acceptance; a truncated write fails here, not in a consumer.
  python3 - "$out/$2" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
assert report.get("benchmarks"), "no benchmark rows in " + sys.argv[1]
print("   %d benchmark rows ok" % len(report["benchmarks"]))
EOF
}

run bench_statespace BENCH_explore.json
run bench_service BENCH_service.json
run bench_reduction BENCH_reduction.json
run bench_lint BENCH_lint.json
run bench_symbolic BENCH_symbolic.json
run bench_exp BENCH_exp.json
echo "benchmark reports written to $out"
