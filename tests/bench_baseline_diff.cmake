# Script-mode ctest helper: zero simulated drift against the committed
# baselines.  Runs each baseline bench at the trace length its BENCH_*.json
# was generated with (CPT_TRACE_LEN=50000) and requires tools/bench_diff.py
# to find no simulated or structural difference.  Timing keys are reported
# by bench_diff but never fail it without --time-tol.
#
# Invoked as:
#   cmake -DBENCH_DIR=<dir holding the bench binaries> -DDIFF=<bench_diff.py>
#         -DPYTHON=<python3> -DSRC=<repo root> -DOUT=<scratch dir>
#         -P this_file
file(MAKE_DIRECTORY "${OUT}")
foreach(name table1 fig9 fig11a fig11b fig11c fig11d)
  set(report "${OUT}/${name}.json")
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env CPT_TRACE_LEN=50000
            "${BENCH_DIR}/bench_${name}" "--json=${report}"
    RESULT_VARIABLE result
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT result EQUAL 0)
    message(FATAL_ERROR "bench_${name} failed (exit ${result}): ${err}")
  endif()
  execute_process(
    COMMAND "${PYTHON}" "${DIFF}" "${SRC}/BENCH_${name}.json" "${report}"
    RESULT_VARIABLE result
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT result EQUAL 0)
    message(FATAL_ERROR "bench_${name} drifted from BENCH_${name}.json:\n${out}${err}")
  endif()
endforeach()
message(STATUS "all six benches match their committed baselines")
