# Script-mode ctest helper: the host-perf degradation contract, end to end.
# Runs a bench binary with CPT_NO_HOST_PERF=1 (the deterministic stand-in
# for EPERM/ENOSYS perf_event_open environments) and requires that it
#   1. exits 0 — a perf-less host must never fail a bench run,
#   2. produces a report that tools/check_bench_json.py accepts — the JSON
#      shape is availability-invariant, and
#   3. stamps the degraded mode honestly (available false, rusage source,
#      a non-empty reason naming the override).
#
# Invoked as:
#   cmake -DBENCH=<binary> -DCHECKER=<check_bench_json.py> -DPYTHON=<python3>
#         -DDUMP_ENUMS=<cpt_dump_enums> -DOUT=<scratch.json> -P this_file
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env CPT_NO_HOST_PERF=1 CPT_TRACE_LEN=2000
          "${BENCH}" "--json=${OUT}"
  RESULT_VARIABLE result
  ERROR_VARIABLE err)
if(NOT result EQUAL 0)
  message(FATAL_ERROR "degraded bench run failed (exit ${result}): ${err}")
endif()

execute_process(
  COMMAND "${PYTHON}" "${CHECKER}" --dump-enums "${DUMP_ENUMS}" "${OUT}"
  RESULT_VARIABLE result
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT result EQUAL 0)
  message(FATAL_ERROR
          "degraded report failed schema validation: ${out} ${err}")
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
message(STATUS "degraded bench report is schema-valid and honestly stamped")
