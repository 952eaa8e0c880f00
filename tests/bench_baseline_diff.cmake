# Script-mode ctest helper: zero simulated drift against one committed
# baseline.  Runs one bench at the paper's trace length with --json and
# requires tools/bench_diff.py to find no simulated or structural difference
# from its BENCH_<name>.json.  Timing keys are reported by bench_diff but
# never fail it.
#
# With -DDEGRADED=ON it checks the host-perf degradation contract instead:
# the bench runs with CPT_NO_HOST_PERF=1 (the deterministic stand-in for
# EPERM/ENOSYS perf_event_open environments), must still exit 0 and match
# the baseline (the report's shape does not depend on counter availability),
# and must stamp the degraded mode honestly (available false, rusage source,
# a reason naming the override).
#
# Invoked as:
#   cmake -DBENCH=<binary> -DDIFF=<bench_diff.py> -DBASELINE=<BENCH_*.json>
#         -DPYTHON=<python3> -DOUT=<scratch.json> [-DDEGRADED=ON] -P this_file
set(env "")
if(DEGRADED)
  set(env CPT_NO_HOST_PERF=1)
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env ${env} "${BENCH}" "--json=${OUT}"
  RESULT_VARIABLE result
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "${BENCH} failed (exit ${result}): ${err}")
endif()

execute_process(
  COMMAND "${PYTHON}" "${DIFF}" "${BASELINE}" "${OUT}"
  RESULT_VARIABLE result
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "${OUT} drifted from ${BASELINE}:\n${out}${err}")
endif()

if(DEGRADED)
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
endif()
message(STATUS "${OUT} matches ${BASELINE}")
