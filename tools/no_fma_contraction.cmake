# Contraction guard (ctest: tools.no_fma_contraction): a portable build's
# forumcast_ml archive must hold no fused multiply-add. The portable kernel
# sets (src/ml/kernels.hpp) give the same bits on every x86-64 host only
# because none of them contracts `acc + a*b` into one rounding; a target
# attribute or an extra -m flag that lets the compiler emit vfmadd (GCC does
# under -mavx512f even with -mno-fma) would silently fork the digests. On
# x86-64 the archive must also hold 256-bit code, so the guard is known to
# be looking at the wide kernel set. Native builds pin their FMAs on purpose
# and skip.
#
# Invoked as:
#   cmake -DOBJDUMP=<objdump> -DARCHIVE=<libforumcast_ml.a> -DNATIVE=<bool>
#         -DPROCESSOR=<CMAKE_SYSTEM_PROCESSOR> -DWORK_DIR=<dir>
#         -P no_fma_contraction.cmake

foreach(var ARCHIVE WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "no_fma_contraction.cmake needs -D${var}=...")
  endif()
endforeach()

if(NATIVE)
  message(STATUS "no_fma_contraction: skipped (FORUMCAST_NATIVE=ON builds "
                 "use explicit FMA by design)")
  return()
endif()
if(NOT OBJDUMP)
  message(STATUS "no_fma_contraction: skipped (no objdump found)")
  return()
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(listing "${WORK_DIR}/forumcast_ml.dis")
execute_process(
  COMMAND "${OBJDUMP}" -d --no-show-raw-insn "${ARCHIVE}"
  OUTPUT_FILE "${listing}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${OBJDUMP} -d ${ARCHIVE} failed (rc=${rc})")
endif()

file(STRINGS "${listing}" fused REGEX "[ \t]vfn?m(add|sub)")
if(fused)
  list(LENGTH fused count)
  list(SUBLIST fused 0 10 shown)
  list(JOIN shown "\n  " lines)
  message(FATAL_ERROR
    "${count} fused multiply-add instructions in ${ARCHIVE} (see "
    "${listing}); a portable build must not contract:\n  ${lines}")
endif()

if(PROCESSOR MATCHES "^(x86_64|AMD64|amd64)$")
  file(STRINGS "${listing}" wide REGEX "%ymm" LIMIT_COUNT 1)
  if(NOT wide)
    message(FATAL_ERROR "no 256-bit instructions in ${ARCHIVE}: the AVX2 "
                        "kernel set was not compiled in")
  endif()
endif()
message(STATUS "no_fma_contraction: ${ARCHIVE} holds no fused multiply-add")
