# Script-mode ctest helper: zero simulated drift against the committed
# baselines.  Runs each baseline bench at the trace length its BENCH_*.json
# was generated with (CPT_TRACE_LEN=50000) and requires tools/bench_diff.py
# to find no simulated or structural difference.  Timing keys are reported
# by bench_diff but never fail it.  Every bench is run
# and diffed before the script fails, and the failure names each one that
# crashed or drifted, so a drift in one baseline cannot hide another.
#
# Invoked as:
#   cmake -DBENCH_DIR=<dir holding the bench binaries> -DDIFF=<bench_diff.py>
#         -DPYTHON=<python3> -DSRC=<repo root> -DOUT=<scratch dir>
#         -P this_file
file(MAKE_DIRECTORY "${OUT}")
set(failed "")
foreach(name table1 fig9 fig11a fig11b fig11c fig11d)
  set(report "${OUT}/${name}.json")
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env CPT_TRACE_LEN=50000
            "${BENCH_DIR}/bench_${name}" "--json=${report}"
    RESULT_VARIABLE result
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT result EQUAL 0)
    message(SEND_ERROR "bench_${name} failed (exit ${result}): ${err}")
    list(APPEND failed "bench_${name} (exit ${result})")
    continue()
  endif()
  execute_process(
    COMMAND "${PYTHON}" "${DIFF}" "${SRC}/BENCH_${name}.json" "${report}"
    RESULT_VARIABLE result
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT result EQUAL 0)
    message(SEND_ERROR "bench_${name} drifted from BENCH_${name}.json:\n${out}${err}")
    list(APPEND failed "BENCH_${name}.json")
  endif()
endforeach()
if(failed)
  list(JOIN failed ", " failed_list)
  message(FATAL_ERROR "baselines not reproduced: ${failed_list}")
endif()
message(STATUS "all six benches match their committed baselines")
