# Committed-baseline check: every BENCH_*.json at the repo root must parse as
# JSON, carry context.num_cpus, and carry the context stamps
# forumcast_build_type=Release and forumcast_native that tools/run_bench.sh
# injects. The native stamp must match the name: BENCH_<name>_portable.json
# comes from a portable tree (0), every other report from a native one (1;
# reports recorded before the 0/1 stamp read ON). A truncated or
# hand-carried report fails here instead of poisoning later comparisons.
#
# Usage: cmake -DSOURCE_DIR=<repo root> -P bench_json.cmake

if(NOT DEFINED SOURCE_DIR)
  message(FATAL_ERROR "bench_json.cmake needs -DSOURCE_DIR=...")
endif()

file(GLOB reports "${SOURCE_DIR}/BENCH_*.json")
if(NOT reports)
  message(FATAL_ERROR "no BENCH_*.json under ${SOURCE_DIR}")
endif()

set(bad)
foreach(report IN LISTS reports)
  get_filename_component(name "${report}" NAME)
  file(READ "${report}" text)
  string(JSON type ERROR_VARIABLE err TYPE "${text}")
  if(err)
    list(APPEND bad "${name}: does not parse (${err})")
    continue()
  endif()
  string(JSON cpus ERROR_VARIABLE err GET "${text}" context num_cpus)
  if(err)
    list(APPEND bad "${name}: no context.num_cpus")
    continue()
  endif()
  string(JSON build ERROR_VARIABLE err
         GET "${text}" context forumcast_build_type)
  if(err OR NOT build STREQUAL "Release")
    list(APPEND bad "${name}: context.forumcast_build_type is '${build}', not Release")
    continue()
  endif()
  string(JSON native ERROR_VARIABLE err
         GET "${text}" context forumcast_native)
  if(err)
    list(APPEND bad "${name}: no context.forumcast_native")
    continue()
  endif()
  if(name MATCHES "_portable\\.json$")
    set(want "^(0|OFF)$")
    set(mode portable)
  else()
    set(want "^(1|ON)$")
    set(mode native)
  endif()
  if(NOT native MATCHES "${want}")
    list(APPEND bad "${name}: context.forumcast_native is '${native}', not ${mode}")
    continue()
  endif()
  string(JSON count ERROR_VARIABLE err LENGTH "${text}" benchmarks)
  if(err OR count EQUAL 0)
    list(APPEND bad "${name}: no benchmarks")
    continue()
  endif()
  message(STATUS "${name}: ${count} benchmarks, ${cpus} cpus, Release, ${mode}")
endforeach()

if(bad)
  list(JOIN bad "\n  " lines)
  message(FATAL_ERROR "bad committed bench reports:\n  ${lines}")
endif()
