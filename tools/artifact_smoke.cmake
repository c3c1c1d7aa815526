# End-to-end smoke test for the model-artifact layer (ctest: tools.artifact_smoke).
#
# Exercises the bundle workflow across real process boundaries:
#   1. `forumcast fit --model-out` fits a pipeline, saves the bundle, and
#      prints a prediction digest (FNV-1a over a probe set, with the scalar
#      and batch paths cross-checked bit-for-bit inside the CLI).
#   2. `forumcast serve --model-in` — twice, in fresh processes — loads the
#      bundle cold and prints its digest. All three digests must be equal:
#      the loaded pipeline predicts bit-identically to the one that fit.
#   3. The serve process must run zero fit stages, asserted via the absence
#      of any pipeline.fit.* metric in its --metrics-out snapshot (and the
#      presence of pipeline.bundle_loads).
#
# Invoked as:
#   cmake -DFORUMCAST_CLI=<path> -DWORK_DIR=<dir> -P artifact_smoke.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)

if(NOT FORUMCAST_CLI OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DFORUMCAST_CLI=... -DWORK_DIR=... -P artifact_smoke.cmake")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(posts "${WORK_DIR}/posts.csv")
set(bundle "${WORK_DIR}/model.fcm")
set(metrics "${WORK_DIR}/serve_metrics.json")

execute_process(
  COMMAND "${FORUMCAST_CLI}" generate
          --questions 150 --users 150 --seed 7 --out "${posts}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "forumcast generate failed (rc=${rc})")
endif()

function(extract_digest output out_var)
  string(REGEX MATCH "prediction digest: ([0-9a-f]+)" _match "${output}")
  if(NOT CMAKE_MATCH_1)
    message(FATAL_ERROR "no prediction digest in output:\n${output}")
  endif()
  set(${out_var} "${CMAKE_MATCH_1}" PARENT_SCOPE)
endfunction()

# --- fit: train, save the bundle, print the reference digest. ---
execute_process(
  COMMAND "${FORUMCAST_CLI}" fit
          --data "${posts}" --model-out "${bundle}"
          --history-days 25 --lda-iterations 5 --seed 7
  RESULT_VARIABLE rc OUTPUT_VARIABLE fit_out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "forumcast fit failed (rc=${rc})")
endif()
if(NOT EXISTS "${bundle}")
  message(FATAL_ERROR "fit did not write ${bundle}")
endif()
extract_digest("${fit_out}" fit_digest)

# --- serve twice, fresh process each time: digests must all agree. ---
execute_process(
  COMMAND "${FORUMCAST_CLI}" serve
          --data "${posts}" --model-in "${bundle}"
          --question 0 --top 3 --metrics-out "${metrics}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE serve_out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "forumcast serve failed (rc=${rc})")
endif()
extract_digest("${serve_out}" serve_digest)

execute_process(
  COMMAND "${FORUMCAST_CLI}" serve
          --data "${posts}" --model-in "${bundle}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE serve_again_out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "second forumcast serve failed (rc=${rc})")
endif()
extract_digest("${serve_again_out}" serve_again_digest)

if(NOT fit_digest STREQUAL serve_digest OR NOT fit_digest STREQUAL serve_again_digest)
  message(FATAL_ERROR "prediction digests diverged across processes: "
                      "fit=${fit_digest} serve=${serve_digest} serve#2=${serve_again_digest}")
endif()

# --- serve must cold-start: zero fit stages ran. ---
file(READ "${metrics}" metrics_json)
string(FIND "${metrics_json}" "pipeline.fit." fit_pos)
if(NOT fit_pos EQUAL -1)
  message(FATAL_ERROR "serve --model-in ran fit stages (pipeline.fit.* metrics present)")
endif()
string(JSON loads ERROR_VARIABLE err
       GET "${metrics_json}" counters pipeline.bundle_loads)
if(err OR loads LESS 1)
  message(FATAL_ERROR "serve did not record pipeline.bundle_loads: ${err}")
endif()
string(JSON pairs ERROR_VARIABLE err
       GET "${metrics_json}" counters serve.pairs_scored)
if(err OR pairs LESS 1)
  message(FATAL_ERROR "serve scored no pairs: ${err}")
endif()

message(STATUS "artifact smoke test passed: digest ${fit_digest} bit-stable "
               "across fit and two cold serves")
