#!/usr/bin/env bash
# Crash-safety soak for the shared on-disk cache (DESIGN.md §15), driven by
# ctest (cache_soak) and the CI soak job.
#
# The invariant under test: no matter which I/O site fails — torn writes,
# failed renames, unreadable files, dead GC, kill -9'd cohabitants — the
# daemon never serves corrupt bytes. Every verdict below is byte-compared
# against a golden cold run (explore_ms aside); a fault may cost a re-run,
# never a wrong answer.
#
#   1. golden: one cold daemon round per model, verdicts + exit codes kept
#   2. two daemons on ONE --cache-dir: cohabitants discover each other
#      (startup log + shared.instances gauge), the second serves the first's
#      disk entries, and a kill -9'd daemon's registry entry is reaped by
#      the survivor's next sweep
#   3. crash debris: a truncated result entry and a dead writer's torn tmp
#      file planted in the dir — the entry is quarantined (one miss, then
#      self-heals), the tmp is swept, verdicts stay golden
#   4. fault matrix via $AADLSCHED_FAULT: cache.write / cache.rename /
#      cache.read each armed persistently in a fresh daemon; verdicts stay
#      golden, failures land in stats counters
#   5. size-budgeted GC: --cache-disk-cap evicts planted oldest artifacts at
#      startup; with gc.remove armed the eviction fails, is counted, and the
#      files survive
#   6. client resilience: `aadlsched --connect` against a dead endpoint
#      retries with backoff and exits 4 (unreachable), distinct from
#      analysis failure
#
# Usage: cache_soak.sh <aadlschedd-binary> <aadlsched-binary> <models-dir>
set -u

daemon=$1
cli=$2
models=$3

work=$(mktemp -d)
pids=()
cleanup() {
  for p in "${pids[@]:-}"; do kill "$p" 2>/dev/null; done
  wait 2>/dev/null
  rm -rf "$work"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*"
  for f in "$work"/*.log; do
    [ -f "$f" ] && { echo "--- $f ---"; cat "$f"; }
  done
  exit 1
}

# start_daemon <tag> [daemon-args...] — sets endpoint_<tag> and pid_<tag>.
# Arm faults by exporting AADLSCHED_FAULT before the call.
start_daemon() {
  local tag=$1
  shift
  # Empty the discovery file here, not only in the forked child: its
  # redirection truncates after the fork, so the first poll below could
  # still read the previous daemon's line for this tag.
  : >"$work/$tag.out"
  "$daemon" --port 0 "$@" >"$work/$tag.out" 2>"$work/$tag.log" &
  local pid=$!
  pids+=("$pid")
  local line=""
  for _ in $(seq 1 100); do
    line=$(head -n1 "$work/$tag.out" 2>/dev/null)
    [ -n "$line" ] && break
    kill -0 "$pid" 2>/dev/null || fail "daemon $tag died on startup"
    sleep 0.1
  done
  [ "${line#aadlschedd listening on }" != "$line" ] \
    || fail "daemon $tag: unexpected discovery line: $line"
  eval "endpoint_$tag=\${line#aadlschedd listening on }"
  eval "pid_$tag=$pid"
  echo "daemon $tag (pid $pid) at ${line#aadlschedd listening on }"
}

stop_daemon() {  # stop_daemon <tag> — protocol shutdown, expect exit 0
  local ep pid
  eval "ep=\$endpoint_$1; pid=\$pid_$1"
  "$cli" --connect "$ep" --shutdown >/dev/null \
    || fail "daemon $1: protocol shutdown failed"
  wait "$pid"
  local rc=$?
  [ "$rc" -eq 0 ] || fail "daemon $1 exited $rc (expected 0)"
}

# field <endpoint> <object> <name> — integer "name" inside the one-line
# stats sub-object ("cache", "gc", "shared").
field() {
  "$cli" --connect "$1" --stats 2>/dev/null \
    | sed -n "s/.*\"$2\": {\([^}]*\)}.*/\1/p" \
    | grep -o "\"$3\": [0-9]*" | head -n1 | grep -o '[0-9]*$'
}

# await_field <endpoint> <object> <name> <want> — poll field every 0.1 s
# until it reads <want>; give up (status 1) after 10 s. Maintenance ticks
# run on the daemon's own clock, so a fixed sleep is load-sensitive.
await_field() {
  local i
  for ((i = 0; i < 100; i++)); do
    [ "$(field "$1" "$2" "$3")" = "$4" ] && return 0
    sleep 0.1
  done
  return 1
}

norm() { sed 's/"explore_ms": [0-9.]*/"explore_ms": X/' "$1"; }

# submit <endpoint> <name> <round> [extra-cli-args...] — returns the CLI's
# exit code, leaves stdout/stderr in $work/<name>.<round>.{json,err}.
# Always --no-lint: the static screens would decide the tiny fixtures
# without exploring, and the soak needs real exploration.
submit() {
  local ep=$1 name=$2 round=$3
  shift 3
  "$cli" --connect "$ep" --no-lint "$@" "${file[$name]}" "${root[$name]}" \
    2>"$work/$name.$round.err" >"$work/$name.$round.json"
}

# check_golden <name> <round> — byte-compare a round's verdict to golden.
check_golden() {
  [ "$(norm "$work/$1.$2.json")" = "$(norm "$work/$1.golden.json")" ] \
    || fail "$1 ($2): verdict differs from the golden cold run"
}

# --- fixture models ---------------------------------------------------------
# Two generated single-thread systems (verdict decided by compute vs period:
# 2/10 schedulable, 12/10 not) keep every faulted round at millisecond cost;
# cruise_control exercises a real model for the shared-directory rounds.
gen_model() {  # gen_model <package> <compute_ms> > file
  cat <<EOF
package $1
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
    Compute_Execution_Time => $2 ms .. $2 ms;
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
end $1;
EOF
}
gen_model Tiny 2 >"$work/tiny.aadl"
gen_model Overload 12 >"$work/overload.aadl"

declare -A file root want
names=(tiny overload cruise)
file[tiny]=$work/tiny.aadl;        root[tiny]=Root.impl;                 want[tiny]=0
file[overload]=$work/overload.aadl; root[overload]=Root.impl;            want[overload]=1
file[cruise]=$models/cruise_control.aadl
root[cruise]=CruiseControlSystem.impl
want[cruise]=0

echo "=== 1: golden cold verdicts ==="
start_daemon g --cache-dir "$work/golden_cache"
for n in "${names[@]}"; do
  submit "$endpoint_g" "$n" golden
  rc=$?
  [ "$rc" -eq "${want[$n]}" ] || fail "$n (golden): exit $rc, want ${want[$n]}"
done
stop_daemon g

echo "=== 2: two daemons, one cache dir ==="
shared=$work/shared_cache
start_daemon a --cache-dir "$shared" --maintenance-interval-ms 300
start_daemon b --cache-dir "$shared" --maintenance-interval-ms 300
grep -q "sharing cache dir with daemon pid $pid_a" "$work/b.log" \
  || fail "daemon b did not report daemon a as a cohabitant"

for n in "${names[@]}"; do
  submit "$endpoint_a" "$n" via_a
  check_golden "$n" via_a
done
# Daemon b serves a's disk entries without re-exploring a single state.
for n in "${names[@]}"; do
  submit "$endpoint_b" "$n" via_b
  check_golden "$n" via_b
  grep -q "cached: disk" "$work/$n.via_b.err" \
    || fail "$n: daemon b did not serve daemon a's disk entry"
done
[ "$("$cli" --connect "$endpoint_b" --stats | grep -o '"analyses_run": [0-9]*' \
    | grep -o '[0-9]*$')" = 0 ] \
  || fail "daemon b re-explored instead of serving the shared disk tier"

# Within a maintenance tick both gauges converge on 2 cohabitants.
await_field "$endpoint_a" shared instances 2 \
  || fail "daemon a's cohabitant gauge never reached 2"
await_field "$endpoint_b" shared instances 2 \
  || fail "daemon b's cohabitant gauge never reached 2"

# kill -9: b never deregisters; a's next sweep must reap the registry entry
# (and the flock dies with the process — no stale lock can wedge a).
kill -9 "$pid_b"
wait "$pid_b" 2>/dev/null
await_field "$endpoint_a" shared instances 1 \
  || fail "daemon a never reaped the kill -9'd cohabitant"
submit "$endpoint_a" tiny after_kill
check_golden tiny after_kill
stop_daemon a

echo "=== 3: crash debris is quarantined and swept ==="
entry=$(ls "$shared"/*.json | head -n1)
[ -n "$entry" ] || fail "no result entries in the shared dir"
head -c 20 "$entry" >"$entry.torn" && mv "$entry.torn" "$entry"  # truncate
dead=$(bash -c 'echo $$')  # a pid that is provably dead by now
printf '{"half": ' >"$shared/torn.json.tmp.$dead"
start_daemon c --cache-dir "$shared"
[ ! -e "$shared/torn.json.tmp.$dead" ] \
  || fail "dead writer's torn tmp file survived the startup sweep"
for n in "${names[@]}"; do
  submit "$endpoint_c" "$n" debris
  check_golden "$n" debris
done
[ "$(field "$endpoint_c" cache corrupt_evictions)" = 1 ] \
  || fail "truncated entry was not quarantined exactly once"
stop_daemon c
# Self-healed: the re-run re-stored the entry; a fresh daemon disk-serves it.
start_daemon c2 --cache-dir "$shared"
for n in "${names[@]}"; do
  submit "$endpoint_c2" "$n" healed
  check_golden "$n" healed
  grep -q "cached: disk" "$work/$n.healed.err" \
    || fail "$n: quarantined entry did not self-heal on disk"
done
stop_daemon c2

echo "=== 4: fault matrix over every I/O site ==="
# Persistently armed write/rename faults: persistence is lost (and counted),
# verdicts are not.
for site in cache.write cache.rename; do
  dir=$work/fault_${site//./_}
  AADLSCHED_FAULT="$site:1:fault:1000000" \
    start_daemon f --cache-dir "$dir"
  for n in tiny overload; do
    submit "$endpoint_f" "$n" "$site"
    rc=$?
    [ "$rc" -eq "${want[$n]}" ] || fail "$n ($site): exit $rc"
    check_golden "$n" "$site"
  done
  [ "$(field "$endpoint_f" cache disk_store_failures)" -ge 2 ] \
    || fail "$site: store failures were not counted"
  # The memory tier still serves warm.
  submit "$endpoint_f" tiny "$site.warm"
  grep -q "cached: memory" "$work/tiny.$site.warm.err" \
    || fail "$site: memory tier stopped serving"
  stop_daemon f
  [ -z "$(ls "$dir"/*.json 2>/dev/null)" ] \
    || fail "$site: a failed store still published a final file"
done

# cache.read armed on a restart: the disk tier goes dark, the daemon
# re-explores — a fault costs work, never a wrong answer.
dir=$work/fault_cache_read
start_daemon f --cache-dir "$dir"
submit "$endpoint_f" tiny seed
stop_daemon f
AADLSCHED_FAULT="cache.read:1:fault:1000000" \
  start_daemon f --cache-dir "$dir"
submit "$endpoint_f" tiny read_dark
check_golden tiny read_dark
grep -q "cached" "$work/tiny.read_dark.err" \
  && fail "cache.read: an unreadable entry was somehow served"
stop_daemon f

echo "=== 5: size-budgeted GC ==="
dir=$work/gc_cache
mkdir -p "$dir"
# Three megabyte-scale stale artifacts, oldest first; a 1 MB budget must
# evict the two oldest at the startup sweep and keep the newest.
for i in 1 2 3; do
  head -c 700000 /dev/zero | tr '\0' 'x' >"$dir/stale$i.json"
  touch -d "@$(( $(date +%s) - 10000 + i ))" "$dir/stale$i.json"
done
start_daemon g2 --cache-dir "$dir" --cache-disk-cap 1
[ "$(field "$endpoint_g2" gc runs)" -ge 1 ] || fail "gc never ran"
[ "$(field "$endpoint_g2" gc removed_files)" = 2 ] \
  || fail "gc removed $(field "$endpoint_g2" gc removed_files) files, want 2"
[ ! -e "$dir/stale1.json" ] && [ ! -e "$dir/stale2.json" ] \
  && [ -e "$dir/stale3.json" ] || fail "gc did not evict oldest-first"
submit "$endpoint_g2" tiny gc_round
check_golden tiny gc_round
stop_daemon g2

# gc.remove armed: eviction fails, is counted, and the files survive.
for i in 1 2; do
  head -c 700000 /dev/zero | tr '\0' 'x' >"$dir/stale_again$i.json"
  touch -d "@$(( $(date +%s) - 10000 + i ))" "$dir/stale_again$i.json"
done
AADLSCHED_FAULT="gc.remove:1:fault:1000000" \
  start_daemon g3 --cache-dir "$dir" --cache-disk-cap 1
[ "$(field "$endpoint_g3" gc remove_failures)" -ge 1 ] \
  || fail "gc.remove: injected removal failures were not counted"
[ -e "$dir/stale_again1.json" ] || fail "gc.remove: file vanished anyway"
stop_daemon g3

echo "=== 6: client resilience ==="
# endpoint_a's daemon is long gone: the client must retry with backoff and
# exit 4 (unreachable) — distinct from analysis failure (2).
"$cli" --connect "$endpoint_a" --connect-timeout-ms 200 --connect-retries 2 \
  "${file[tiny]}" "${root[tiny]}" 2>"$work/unreachable.err" >/dev/null
rc=$?
[ "$rc" -eq 4 ] || fail "dead endpoint: exit $rc, want 4 (unreachable)"
grep -q "retry 1/2" "$work/unreachable.err" \
  || fail "client did not report its retry attempts"
grep -q "daemon unreachable after 3 attempt" "$work/unreachable.err" \
  || fail "client did not report the final unreachable diagnostic"

echo "PASS: zero corrupt serves across cohabitation, kill -9, crash debris, every fault site, GC, and a dead endpoint"
