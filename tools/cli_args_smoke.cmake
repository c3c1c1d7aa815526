# Strict numeric flags (ctest: tools.cli_args).
#
# Every numeric flag of forumcast and forumcast-netctl is parsed in full and
# range-checked for its target type. Each case below passes one bad value
# and must exit non-zero with the flag's name on stderr: a trailing-garbage
# count, ports outside 0..65535 (listen) or 1..65535 (dial), a negative
# size, a history window whose end day overflows an int, and a user id
# past 2^32 - 1. Each command carries a timeout, so a
# value that is silently accepted (a daemon left listening on a truncated
# port) fails the case instead of hanging the test.
#
# Invoked as:
#   cmake -DFORUMCAST_CLI=<path> -DFORUMCAST_NETCTL=<path> -DWORK_DIR=<dir>
#         -P cli_args_smoke.cmake

if(NOT FORUMCAST_CLI OR NOT FORUMCAST_NETCTL OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DFORUMCAST_CLI=... -DFORUMCAST_NETCTL=... "
                      "-DWORK_DIR=... -P cli_args_smoke.cmake")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(base "${WORK_DIR}/base.csv")
set(events "${WORK_DIR}/events.jsonl")
set(bundle "${WORK_DIR}/model.fcm")

execute_process(
  COMMAND "${FORUMCAST_CLI}" generate --questions 40 --users 40 --seed 5
          --out "${base}" --events-out "${events}" --events-after-day 20
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "forumcast generate failed (rc=${rc})")
endif()
execute_process(
  COMMAND "${FORUMCAST_CLI}" fit --data "${base}" --lda-iterations 2
          --model-out "${bundle}"
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "forumcast fit failed (rc=${rc})")
endif()

set(failures 0)

# expect_rejected(<flag> <command...>): runs the command, which must fail
# with "--<flag>" named on stderr.
function(expect_rejected flag)
  execute_process(
    COMMAND ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err TIMEOUT 60)
  if(rc EQUAL 0 OR NOT rc MATCHES "^[0-9]+$")
    message(SEND_ERROR "--${flag}: expected a non-zero exit, got '${rc}'")
    set(failures 1 PARENT_SCOPE)
  elseif(NOT err MATCHES "--${flag} expects")
    message(SEND_ERROR "--${flag}: stderr does not name the flag:\n${err}")
    set(failures 1 PARENT_SCOPE)
  else()
    message(STATUS "--${flag} rejected: ${err}")
  endif()
endfunction()

expect_rejected(questions
  "${FORUMCAST_CLI}" generate --questions 12x --users 40
  --out "${WORK_DIR}/unused.csv")
expect_rejected(primary-port
  "${FORUMCAST_CLI}" replica --data "${base}" --primary-port 70000
  --wal-dir "${WORK_DIR}/follower" --boot-timeout-ms 500)
expect_rejected(listen
  "${FORUMCAST_CLI}" serve --data "${base}" --model-in "${bundle}"
  --listen 70000)
expect_rejected(replisten
  "${FORUMCAST_CLI}" ingest --data "${base}" --wal-dir "${WORK_DIR}/primary"
  --lda-iterations 2 --listen 0 --replisten 70000)
expect_rejected(chunk
  "${FORUMCAST_CLI}" ingest --data "${base}" --ingest "${events}"
  --lda-iterations 2 --chunk -1)
expect_rejected(history-days
  "${FORUMCAST_CLI}" route --data "${base}" --model-in "${bundle}"
  --history-days 2147483647)
expect_rejected(users
  "${FORUMCAST_NETCTL}" owners --cluster "a=127.0.0.1:1" --users 4294967297)

if(failures)
  message(FATAL_ERROR "a bad flag value was accepted")
endif()
message(STATUS "cli args: every bad flag value rejected")
