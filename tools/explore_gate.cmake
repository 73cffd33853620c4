# Exploration byte-identity gate: run aadlsched on one shipped model at one
# quantum in one analysis mode, and diff both its canonical --json result and
# its CLI text against checked-in goldens. Any change fails, so a rewrite of
# the successor generator or the state store has to reproduce every verdict,
# state count, transition count, depth and counterexample byte for byte.
#
# Masked before the comparison (they measure the run, not the verdict):
#   - JSON: the value of "explore_ms";
#   - text: the exploration time and everything after "fan memo" on the
#     exploration stats line (fan memo and successor counters).
# Each golden starts with an "exit: N" line pinning the exit code.
#
# Usage (wired as ctest cases by tools/CMakeLists.txt):
#   cmake -DAADLSCHED_BIN=<tool> -DMODEL=<m.aadl> -DROOT=<Root.impl>
#         -DQUANTUM=<ms> -DMODE=default|no-lint
#         -DGOLDEN=<tests/baselines/explore/m.qN.mode> -P explore_gate.cmake
#
# Regenerate after an intentional change by adding -DUPDATE=1, which writes
# <GOLDEN>.json and <GOLDEN>.txt instead of comparing.

foreach(var AADLSCHED_BIN MODEL ROOT QUANTUM MODE GOLDEN)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "explore_gate.cmake: missing -D${var}=...")
  endif()
endforeach()

if(MODE STREQUAL "default")
  set(mode_flags "")
elseif(MODE STREQUAL "no-lint")
  set(mode_flags --no-lint)
else()
  message(FATAL_ERROR "explore_gate.cmake: unknown MODE '${MODE}'")
endif()

# Runs the CLI with the extra flags in ARGN; leaves the masked golden text
# (exit line + stdout) in `out_var`.
function(run_masked out_var)
  execute_process(
    COMMAND ${AADLSCHED_BIN} ${MODEL} ${ROOT} --quantum ${QUANTUM}
            ${mode_flags} ${ARGN}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  # 0 schedulable, 1 not schedulable, 3 inconclusive; anything else means
  # the run itself failed.
  if(NOT rc MATCHES "^[013]$")
    message(FATAL_ERROR "explore gate: '${AADLSCHED_BIN} ${MODEL} ${ROOT} "
                        "--quantum ${QUANTUM} ${mode_flags} ${ARGN}' failed "
                        "(rc=${rc}):\n${err}")
  endif()
  string(REGEX REPLACE "\"explore_ms\": *[-+.0-9eE]+" "\"explore_ms\": \"*\""
         out "${out}")
  string(REGEX REPLACE "exploration: [.0-9]+ ms" "exploration: * ms"
         out "${out}")
  string(REGEX REPLACE ", fan memo [^\n]*" ", fan memo *" out "${out}")
  set(${out_var} "exit: ${rc}\n${out}" PARENT_SCOPE)
endfunction()

run_masked(actual_json --json)
run_masked(actual_text)

if(UPDATE)
  file(WRITE "${GOLDEN}.json" "${actual_json}")
  file(WRITE "${GOLDEN}.txt" "${actual_text}")
  return()
endif()

foreach(kind json text)
  if(kind STREQUAL "json")
    set(file "${GOLDEN}.json")
  else()
    set(file "${GOLDEN}.txt")
  endif()
  if(NOT EXISTS "${file}")
    message(FATAL_ERROR "explore gate: golden '${file}' is missing; record "
                        "it with -DUPDATE=1 (see tools/explore_gate.cmake).")
  endif()
  file(READ "${file}" expected)
  if(NOT actual_${kind} STREQUAL expected)
    message(FATAL_ERROR "explore gate: ${kind} output for ${MODEL} @ "
                        "${QUANTUM} ms (${MODE}) drifted from ${file}.\n"
                        "--- expected ---\n${expected}\n"
                        "--- actual ---\n${actual_${kind}}")
  endif()
endforeach()
