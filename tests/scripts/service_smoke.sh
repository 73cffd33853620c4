#!/usr/bin/env bash
# End-to-end acceptance for the analysis service (DESIGN.md §11), driven by
# ctest (service_smoke) and the CI service job:
#
#   1. start aadlschedd on an ephemeral port with a disk cache dir
#   2. submit the example models via `aadlsched --connect` (cold)
#   3. submit them again — every result must be byte-identical and --stats
#      must show one cache hit per model
#   4. shut the daemon down over the protocol
#   5. start a SECOND daemon on the same --cache-dir and submit again: the
#      verdicts must come from the disk tier without re-exploring
#
# Usage: service_smoke.sh <aadlschedd-binary> <aadlsched-binary> <models-dir>
set -u

daemon=$1
cli=$2
models=$3

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

start_daemon() {
  # Empty the discovery file before the fork: the child's redirection
  # truncates it too late for the first poll, which could read the previous
  # daemon's line.
  : >"$work/daemon.out"
  "$daemon" --port 0 --cache-dir "$work/cache" "$@" \
    >"$work/daemon.out" 2>"$work/daemon.log" &
  daemon_pid=$!
  # The daemon prints exactly one discovery line on stdout once bound.
  for _ in $(seq 1 100); do
    line=$(head -n1 "$work/daemon.out" 2>/dev/null)
    [ -n "$line" ] && break
    kill -0 "$daemon_pid" 2>/dev/null || fail "daemon died on startup"
    sleep 0.1
  done
  endpoint=${line#aadlschedd listening on }
  [ "$endpoint" != "$line" ] || fail "unexpected discovery line: $line"
  echo "daemon $daemon_pid at $endpoint"
}

stop_daemon() {
  "$cli" --connect "$endpoint" --shutdown >/dev/null \
    || fail "protocol shutdown request failed"
  wait "$daemon_pid"
  rc=$?
  daemon_pid=""
  [ "$rc" -eq 0 ] || fail "daemon exited $rc (expected 0)"
}

stat_field() {  # stat_field <name> — first integer value of "name" in stats
  "$cli" --connect "$endpoint" --stats 2>/dev/null \
    | grep -o "\"$1\": [0-9]*" | head -n1 | grep -o '[0-9]*$'
}

# Three shipped example models (including the symmetric fixture)
# plus a generated overload (NotSchedulable): only conclusive verdicts are
# cached (DESIGN.md §11), so every smoke model must reach one. storm.aadl
# is budget-bound by design and stays out.
cat >"$work/overload.aadl" <<'EOF'
package Overload
public
  processor CPU
  properties
    Scheduling_Protocol => RATE_MONOTONIC_PROTOCOL;
  end CPU;
  thread T
  end T;
  thread implementation T.impl
  properties
    Dispatch_Protocol => Periodic;
    Period => 10 ms;
    Compute_Execution_Time => 12 ms .. 12 ms;
    Deadline => 10 ms;
  end T.impl;
  system App
  end App;
  system implementation App.impl
  subcomponents
    t : thread T.impl;
  end App.impl;
  system Root
  end Root;
  system implementation Root.impl
  subcomponents
    app : system App.impl;
    cpu : processor CPU;
  properties
    Actual_Processor_Binding => reference (cpu) applies to app;
  end Root.impl;
end Overload;
EOF

names=(cruise_control avionics overload symmetric)
files=("$models/cruise_control.aadl" "$models/avionics.aadl" "$work/overload.aadl" "$models/symmetric.aadl")
roots=(CruiseControlSystem.impl Avionics.impl Root.impl Symmetric.impl)

submit_all() {  # submit_all <round-tag>
  for i in 0 1 2 3; do
    "$cli" --connect "$endpoint" "${files[$i]}" "${roots[$i]}" \
      2>"$work/${names[$i]}.$1.err" >"$work/${names[$i]}.$1.json"
    echo "  ${names[$i]} ($1): exit $?, $(cat "$work/${names[$i]}.$1.err")"
  done
}

echo "=== round 1: cold daemon ==="
start_daemon
submit_all cold

hits=$(stat_field hits_memory)
misses=$(stat_field misses)
[ "${hits:-x}" = 0 ] || fail "expected 0 cache hits after cold round, got '$hits'"
[ "${misses:-0}" -ge 4 ] || fail "expected >= 4 misses after cold round, got '$misses'"

echo "=== round 2: warm memory cache ==="
submit_all warm
hits=$(stat_field hits_memory)
[ "${hits:-0}" -ge 4 ] || fail "expected >= 4 cache hits after warm round, got '$hits'"
for n in "${names[@]}"; do
  cmp -s "$work/$n.cold.json" "$work/$n.warm.json" \
    || fail "$n: cached result is not byte-identical to the cold result"
  grep -q "cached: memory" "$work/$n.warm.err" \
    || fail "$n: warm round was not served from the memory tier"
done

stop_daemon

echo "=== round 3: fresh daemon, same disk cache ==="
start_daemon
submit_all disk
runs=$(stat_field analyses_run)
[ "${runs:-x}" = 0 ] || fail "restarted daemon re-explored ($runs runs) instead of serving from disk"
for n in "${names[@]}"; do
  cmp -s "$work/$n.cold.json" "$work/$n.disk.json" \
    || fail "$n: disk-tier result is not byte-identical to the cold result"
  grep -q "cached: disk" "$work/$n.disk.err" \
    || fail "$n: restart round was not served from the disk tier"
done
stop_daemon

echo "PASS: cache hits on resubmit, byte-identical results, disk tier survives restart"
