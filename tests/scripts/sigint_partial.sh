#!/usr/bin/env bash
# SIGINT acceptance check (DESIGN.md §10): interrupting a long exploration
# must produce the same structured partial summary as any other budget stop
# — INCONCLUSIVE (cancelled) with states/depth — and exit code 3, not a
# blank death. Driven by ctest (aadlsched_sigint_partial_summary).
#
# Usage: sigint_partial.sh <aadlsched-binary> <model.aadl> <Root.impl>
set -u

bin=$1
model=$2
root=$3

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

"$bin" "$model" "$root" --no-lint >"$tmp" 2>&1 &
pid=$!

# Let exploration get going, then interrupt it mid-run. storm.aadl at
# 1 ms explores ~1.5M states in about a second on a fast host, so a
# one-second wait could find it finished; 0.3 s lands mid-run, and load
# only slows the run down.
sleep 0.3
kill -INT "$pid"
wait "$pid"
rc=$?

echo "--- aadlsched output ---"
cat "$tmp"
echo "--- exit code: $rc ---"

if [ "$rc" -ne 3 ]; then
  echo "FAIL: expected exit code 3 (inconclusive), got $rc"
  exit 1
fi
if ! grep -q "INCONCLUSIVE (cancelled)" "$tmp"; then
  echo "FAIL: partial summary missing 'INCONCLUSIVE (cancelled)'"
  exit 1
fi
if ! grep -q "states" "$tmp"; then
  echo "FAIL: partial summary reports no state count"
  exit 1
fi
echo "PASS: SIGINT produced a usable partial summary"
