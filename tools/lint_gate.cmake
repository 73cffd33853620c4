# Lint CI gate (ROADMAP item): diff the machine-readable lint report for a
# shipped or corpus model against its checked-in baseline, failing on ANY
# change — new findings on existing models must be acknowledged by
# regenerating the baseline, never slipped in silently.
#
# Usage (wired as ctest cases by tools/CMakeLists.txt):
#   cmake -DAADLSCHED_BIN=<tool> -DMODEL=<m.aadl> -DROOT=<Root.impl>
#         -DBASELINE=<tests/baselines/m.lint.json> -P lint_gate.cmake
#
# Regenerate a baseline after an intentional change with:
#   aadlsched <m.aadl> <Root.impl> --lint --lint-format json > \
#       tests/baselines/<m>.lint.json
# (corpus models under tests/corpus/lint keep theirs in
# tests/baselines/lint/).

foreach(var AADLSCHED_BIN MODEL ROOT BASELINE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "lint_gate.cmake: missing -D${var}=...")
  endif()
endforeach()

execute_process(
  COMMAND ${AADLSCHED_BIN} ${MODEL} ${ROOT} --lint --lint-format json
  OUTPUT_VARIABLE actual
  ERROR_VARIABLE errout
  RESULT_VARIABLE rc)

# --lint exits 1 when error-severity findings exist; that can be a valid
# baselined state, so only launcher failures (no JSON produced) are fatal.
if(NOT rc EQUAL 0 AND NOT rc EQUAL 1)
  message(FATAL_ERROR "lint gate: '${AADLSCHED_BIN} ${MODEL} ${ROOT} --lint' "
                      "failed to run (rc=${rc}):\n${errout}")
endif()

if(NOT EXISTS ${BASELINE})
  message(FATAL_ERROR "lint gate: baseline '${BASELINE}' is missing. "
                      "Generate it from the current report:\n${actual}")
endif()

file(READ ${BASELINE} expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "lint gate: report for ${MODEL} drifted from "
                      "${BASELINE}.\n--- expected ---\n${expected}\n"
                      "--- actual ---\n${actual}\n"
                      "If the change is intentional, regenerate the "
                      "baseline (see tools/lint_gate.cmake).")
endif()
