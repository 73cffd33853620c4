#!/usr/bin/env bash
# Acceptance for the fleet-scale experiment harness (EXPERIMENTS.md E15),
# driven by ctest (exp_smoke) and the CI service job:
#
#   1. run the shipped smoke spec in-process -> experiment_report.json
#   2. start aadlschedd on an ephemeral port and run the SAME spec through
#      --connect
#   3. the verdict data (every cell's "verdicts" object plus the
#      realized-utilization "curve") must be byte-identical across the two
#      backends; timing blocks are environmental and excluded
#   4. the report validates against the documented schema (required keys,
#      tally arithmetic, acceptance fractions)
#   5. a spec with an empty period set is rejected at load with the
#      workload generator's diagnostic (exit 2) — the bug this harness
#      exposed must stay a clean error, never UB
#
# Usage: exp_smoke.sh <aadlsched-exp-binary> <aadlschedd-binary>
#        <aadlsched-binary> <spec.json>
set -u

expbin=$1
daemon=$2
cli=$3
spec=$4

work=$(mktemp -d)
daemon_pid=""
cleanup() {
  [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null
  wait 2>/dev/null
  rm -rf "$work"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*"
  [ -f "$work/daemon.log" ] && { echo "--- daemon log ---"; cat "$work/daemon.log"; }
  exit 1
}

echo "=== in-process backend ==="
"$expbin" "$spec" --out "$work/report_local.json" --quiet \
  || fail "in-process run exited $?"
[ -s "$work/report_local.json" ] || fail "no in-process report written"

echo "=== daemon backend ==="
"$daemon" --port 0 --cache-dir "$work/cache" \
  >"$work/daemon.out" 2>"$work/daemon.log" &
daemon_pid=$!
for _ in $(seq 1 100); do
  line=$(head -n1 "$work/daemon.out" 2>/dev/null)
  [ -n "$line" ] && break
  kill -0 "$daemon_pid" 2>/dev/null || fail "daemon died on startup"
  sleep 0.1
done
endpoint=${line#aadlschedd listening on }
[ "$endpoint" != "$line" ] || fail "unexpected discovery line: $line"
echo "daemon $daemon_pid at $endpoint"

"$expbin" "$spec" --connect "$endpoint" --out "$work/report_daemon.json" \
  --quiet || fail "daemon run exited $?"

"$cli" --connect "$endpoint" --shutdown >/dev/null \
  || fail "protocol shutdown request failed"
wait "$daemon_pid"
daemon_pid=""

echo "=== verdict agreement + schema ==="
python3 - "$work/report_local.json" "$work/report_daemon.json" <<'EOF' \
  || fail "report validation"
import json, sys

local = json.load(open(sys.argv[1]))
daemon = json.load(open(sys.argv[2]))

def die(msg):
    print(msg)
    sys.exit(1)

# Schema: required keys at each level, tallies that add up.
for tag, r in (("local", local), ("daemon", daemon)):
    for key in ("schema_version", "name", "backend", "grid", "cells",
                "curve", "totals", "transport", "timing"):
        if key not in r:
            die(f"{tag}: missing top-level key '{key}'")
    if r["schema_version"] != 2:
        die(f"{tag}: unexpected schema_version {r['schema_version']}")
    runs_seen = 0
    for i, cell in enumerate(r["cells"]):
        for key in ("policy", "utilization", "task_count", "engine",
                    "processors", "verdicts", "timing"):
            if key not in cell:
                die(f"{tag}: cell {i} missing '{key}'")
        v = cell["verdicts"]
        for key in ("runs", "outcomes", "acceptance", "decided_by"):
            if key not in v:
                die(f"{tag}: cell {i} verdicts missing '{key}'")
        tally = v["outcomes"]
        if sum(tally.values()) != len(v["runs"]):
            die(f"{tag}: cell {i} outcome tally does not cover its runs")
        sched = tally["schedulable"]
        if abs(v["acceptance"] - sched / len(v["runs"])) > 1e-6:
            die(f"{tag}: cell {i} acceptance fraction is wrong")
        if sum(v["decided_by"].values()) != len(v["runs"]):
            die(f"{tag}: cell {i} decided_by tally does not cover its runs")
        runs_seen += len(v["runs"])
    if runs_seen != sum(r["totals"].values()):
        die(f"{tag}: totals do not cover every run")
    for bin_ in r["curve"]:
        if bin_["schedulable"] > bin_["runs"]:
            die(f"{tag}: curve bin with more schedulable than runs")

if local["backend"] != "in-process" or daemon["backend"] != "daemon":
    die("backend tags are wrong")
if daemon["transport"]["failures"] != 0:
    die(f"daemon run had {daemon['transport']['failures']} transport failures")

# The contract: verdict data is byte-identical across backends.
def verdict_bytes(r):
    return json.dumps([c["verdicts"] for c in r["cells"]] + [r["curve"]],
                      sort_keys=True)

if verdict_bytes(local) != verdict_bytes(daemon):
    die("verdict cells differ between in-process and daemon backends")
print(f"verdicts identical across backends "
      f"({len(local['cells'])} cells, "
      f"{sum(local['totals'].values())} runs)")
EOF

echo "=== empty period set is a clean spec error ==="
printf '{"name": "bad", "periods": []}' >"$work/bad.json"
"$expbin" "$work/bad.json" --out "$work/bad_report.json" \
  >"$work/bad.out" 2>"$work/bad.err"
rc=$?
[ "$rc" -eq 2 ] || fail "empty-periods spec: expected exit 2, got $rc"
grep -qi "period" "$work/bad.err" \
  || fail "empty-periods rejection carries no period diagnostic"
[ ! -s "$work/bad_report.json" ] || fail "rejected spec still wrote a report"

echo "PASS: byte-identical verdicts across backends, valid report schema, empty-periods spec rejected with a diagnostic"
