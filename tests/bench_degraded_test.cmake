# Script-mode ctest helper: the host-perf degradation contract, end to end.
# Runs a bench binary with CPT_NO_HOST_PERF=1 (the deterministic stand-in
# for EPERM/ENOSYS perf_event_open environments) and requires that it
#   1. exits 0 — a perf-less host must never fail a bench run,
#   2. produces a report that tools/bench_diff.py finds equal to the
#      committed baseline — the JSON shape is availability-invariant, so the
#      degraded report has exactly the baseline's sections and keys, and
#   3. stamps the degraded mode honestly (available false, rusage source,
#      a non-empty reason naming the override).
# The run uses the baseline's trace length (CPT_TRACE_LEN=50000).
#
# Invoked as:
#   cmake -DBENCH=<binary> -DDIFF=<bench_diff.py> -DBASELINE=<BENCH_*.json>
#         -DPYTHON=<python3> -DOUT=<scratch.json> -P this_file
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env CPT_NO_HOST_PERF=1 CPT_TRACE_LEN=50000
          "${BENCH}" "--json=${OUT}"
  RESULT_VARIABLE result
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "degraded bench run failed (exit ${result}): ${err}")
endif()

execute_process(
  COMMAND "${PYTHON}" "${DIFF}" "${BASELINE}" "${OUT}"
  RESULT_VARIABLE result
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT result EQUAL 0)
  message(FATAL_ERROR
          "degraded report differs from ${BASELINE}:\n${out}${err}")
endif()

file(READ "${OUT}" report)
if(NOT report MATCHES "\"available\": false")
  message(FATAL_ERROR "degraded report does not stamp available:false")
endif()
if(NOT report MATCHES "\"source\": \"rusage\"")
  message(FATAL_ERROR "degraded report does not stamp source:rusage")
endif()
if(NOT report MATCHES "disabled by CPT_NO_HOST_PERF")
  message(FATAL_ERROR "degraded report does not carry the forced-off reason")
endif()
message(STATUS "degraded bench report matches the baseline and is honestly stamped")
