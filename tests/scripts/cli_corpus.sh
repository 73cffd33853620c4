#!/usr/bin/env bash
# Hostile-input check for the command line: runs aadlsched on every model
# in the bad corpus plus the given extra models, once per mode (default,
# --lint, --classical), and requires an exit code of 0, 1 or 2. A signal
# (exit > 128) or a sanitizer report fails the check. Built with
# -DAADLSCHED_SANITIZE=address or =undefined it is the sanitized CLI run
# (ctest -L asan / -L ubsan). Driven by ctest (aadlsched_cli_bad_corpus).
#
# Usage: cli_corpus.sh <aadlsched-binary> <bad-corpus-dir> [extra.aadl...]
set -u

bin=$1
corpus=$2
shift 2

# Sanitizers exit 1 by default, which is a legal exit code here: make their
# reports unmistakable.
export ASAN_OPTIONS="exitcode=99:${ASAN_OPTIONS:-}"
export UBSAN_OPTIONS="exitcode=99:halt_on_error=1:${UBSAN_OPTIONS:-}"

out=$(mktemp)
trap 'rm -f "$out"' EXIT

fail=0
runs=0
for model in "$corpus"/*.aadl "$@"; do
  for mode in "" --lint --classical; do
    "$bin" "$model" Root.impl --quantum 1 $mode >"$out" 2>&1
    rc=$?
    runs=$((runs + 1))
    if [ "$rc" -gt 2 ] ||
       grep -q -e 'runtime error:' -e 'Sanitizer' "$out"; then
      echo "FAIL: $(basename "$model") ${mode:-(default)} exited $rc"
      tail -n 20 "$out"
      fail=1
    fi
  done
done
echo "$runs runs"
exit $fail
