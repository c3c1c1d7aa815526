# Argument check for tools/run_bench.sh: every guard threshold set to a
# non-number or to the empty string, and a build tree configured Debug, must
# each exit 2 with its own error message before any benchmark starts.
#
# Usage: cmake -DRUN_BENCH=<path to run_bench.sh> -DWORK_DIR=<scratch dir>
#              -P run_bench_args.cmake

foreach(var RUN_BENCH WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_bench_args.cmake needs -D${var}=...")
  endif()
endforeach()

set(thresholds
  BENCH_MIN_SPEEDUP BENCH_FIT_MIN_SPEEDUP BENCH_MONITOR_MIN_RATIO
  BENCH_NET_MIN_RPS BENCH_REPLICA_MIN_EPS BENCH_CENTRALITY_MIN_SPEEDUP)

# Two fake build trees, neither with any bench binary: one that passes the
# Release/native gate (so only a bad threshold can stop the script) and one
# configured Debug.
file(REMOVE_RECURSE "${WORK_DIR}")
file(WRITE "${WORK_DIR}/release/CMakeCache.txt"
  "CMAKE_BUILD_TYPE:STRING=Release\nFORUMCAST_NATIVE:BOOL=ON\n")
file(WRITE "${WORK_DIR}/debug/CMakeCache.txt"
  "CMAKE_BUILD_TYPE:STRING=Debug\nFORUMCAST_NATIVE:BOOL=ON\n")

# run_bench(<build dir> <expected stderr regex> [NAME=VALUE ...]): runs the
# script with only the given thresholds set and asserts exit 2, the expected
# message, and no benchmark started.
function(run_bench build_dir expect)
  set(unset_args)
  foreach(var IN LISTS thresholds)
    list(APPEND unset_args "--unset=${var}")
  endforeach()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env ${unset_args} ${ARGN}
            bash "${RUN_BENCH}" --build-dir "${WORK_DIR}/${build_dir}"
                 --out-dir "${WORK_DIR}/out"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  set(what "run_bench.sh --build-dir ${build_dir} with '${ARGN}'")
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${what}: exit ${rc}, expected 2\n${out}${err}")
  endif()
  if(NOT err MATCHES "${expect}")
    message(FATAL_ERROR "${what}: stderr lacks '${expect}':\n${err}")
  endif()
  if(out MATCHES "== bench/" OR EXISTS "${WORK_DIR}/out")
    message(FATAL_ERROR "${what}: a benchmark started\n${out}")
  endif()
endfunction()

foreach(var IN LISTS thresholds)
  run_bench(release "${var} must be a non-negative decimal" "${var}=abc")
  run_bench(release "${var} must be a non-negative decimal" "${var}=")
endforeach()
run_bench(debug "CMAKE_BUILD_TYPE='Debug' \\(need Release\\)")

list(LENGTH thresholds count)
math(EXPR runs "2 * ${count} + 1")
message(STATUS "run_bench.sh rejected all ${runs} bad configurations with exit 2")
