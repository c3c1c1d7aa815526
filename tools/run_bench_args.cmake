# Argument check for tools/run_bench.sh: every guard threshold set to a
# non-number or to the empty string, and a build tree configured Debug, must
# each exit 2 with its own error message before any benchmark starts. A
# Release tree passes the gate whether native or portable, and names the
# forumcast_native stamp (1 or 0) and report files (BENCH_<name>.json or
# BENCH_<name>_portable.json) it would write before stopping, exit 2, at the
# first bench binary it lacks.
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

# Three fake build trees, none with any bench binary: a native and a
# portable one that pass the Release gate (so only a bad threshold or the
# missing binaries can stop the script) and one configured Debug.
file(REMOVE_RECURSE "${WORK_DIR}")
file(WRITE "${WORK_DIR}/release/CMakeCache.txt"
  "CMAKE_BUILD_TYPE:STRING=Release\nFORUMCAST_NATIVE:BOOL=ON\n")
file(WRITE "${WORK_DIR}/portable/CMakeCache.txt"
  "CMAKE_BUILD_TYPE:STRING=Release\nFORUMCAST_NATIVE:BOOL=OFF\n")
file(WRITE "${WORK_DIR}/debug/CMakeCache.txt"
  "CMAKE_BUILD_TYPE:STRING=Debug\nFORUMCAST_NATIVE:BOOL=ON\n")

# run_bench(<build dir> <expected stderr regex> [NAME=VALUE ...]): runs the
# script with only the given thresholds set and asserts exit 2, the expected
# message, and no benchmark started. The script's stdout is left in
# `run_bench_out`.
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
  set(run_bench_out "${out}" PARENT_SCOPE)
endfunction()

foreach(var IN LISTS thresholds)
  run_bench(release "${var} must be a non-negative decimal" "${var}=abc")
  run_bench(release "${var} must be a non-negative decimal" "${var}=")
endforeach()
run_bench(debug "CMAKE_BUILD_TYPE='Debug' \\(need Release\\)")

# Release trees, native and portable: past the gate, the stamp line, then the
# first missing binary.
foreach(tree release portable)
  run_bench(${tree} "bench/serve not built")
  if(tree STREQUAL "release")
    set(stamp "forumcast_native=1: reports go to [^\n]*/BENCH_<name>\\.json")
  else()
    set(stamp "forumcast_native=0: reports go to [^\n]*/BENCH_<name>_portable\\.json")
  endif()
  if(NOT run_bench_out MATCHES "${stamp}")
    message(FATAL_ERROR "run_bench.sh --build-dir ${tree}: stdout lacks "
                        "'${stamp}':\n${run_bench_out}")
  endif()
endforeach()

list(LENGTH thresholds count)
math(EXPR runs "2 * ${count} + 3")
message(STATUS "run_bench.sh stopped all ${runs} configurations with exit 2 before any benchmark")
