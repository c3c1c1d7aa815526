// Shared pieces of the perfbench driver: the request plan the load
// generator replays, the per-request results it reports back, process
// helpers, and small statistics.
//
// The driver (driver.cpp) hosts the serving stack; the load generator
// (loadgen.cpp) is the same binary started with `--role loadgen` in its own
// process, so its sockets, buffers and CPU time never count against the
// server process. The two exchange plain binary files in the run's work
// directory and share one clock: std::chrono::steady_clock is
// CLOCK_MONOTONIC, which every process on the host reads alike.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "forum/post.hpp"
#include "net/protocol.hpp"

namespace perfbench {

using forumcast::forum::QuestionId;
using forumcast::forum::UserId;

enum class RequestKind : std::uint8_t { kScore = 0, kRoute = 1 };

/// One request of a workload. due_us is the open-loop send time relative to
/// the run's start; closed-loop plans leave it at -1.
struct PlannedRequest {
  std::int64_t due_us = -1;
  RequestKind kind = RequestKind::kScore;
  QuestionId question = 0;
  std::vector<UserId> users;
};

void write_plan(const std::string& path, const std::vector<PlannedRequest>& plan);
std::vector<PlannedRequest> read_plan(const std::string& path);

enum class Status : std::uint8_t {
  kOk = 0,
  kQueueFull = 1,   ///< kErrorResponse with ErrorCode::kQueueFull
  kError = 2,       ///< any other error frame
  kBadResponse = 3, ///< wrong kind, wrong size, or non-finite values
  kTimeout = 4,     ///< no response before the drain deadline
};

/// What the load generator saw for one sent request. Times are
/// steady_clock nanoseconds; due_ns is 0 for closed-loop requests.
struct RequestResult {
  std::uint32_t plan_index = 0;
  Status status = Status::kOk;
  RequestKind kind = RequestKind::kScore;
  std::int64_t due_ns = 0;
  std::int64_t send_ns = 0;
  std::int64_t recv_ns = 0;
  std::uint64_t digest = 0;  ///< response_digest() of the answer
};

void write_results(const std::string& path,
                   const std::vector<RequestResult>& results);
std::vector<RequestResult> read_results(const std::string& path);

/// FNV-1a over the raw bits of a score or route response: equal digests mean
/// bit-equal answers.
std::uint64_t response_digest(const forumcast::net::Message& response);

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Sorted-copy quantile with linear interpolation (q in [0, 1]). These three
/// return NaN for no values, which the driver reports as a missing source.
double quantile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);
double median(std::vector<double> values);

/// Starts `argv` (argv[0] is a path) with stdout and stderr appended to
/// `log_path`. The child is killed if this process dies first.
pid_t spawn(const std::vector<std::string>& argv, const std::string& log_path);
/// Waits up to timeout_s for `pid`; true (and *exit_code) once it exited.
bool wait_exit(pid_t pid, double timeout_s, int* exit_code);
/// SIGTERM, a grace period, then SIGKILL; always reaps the child.
void stop_process(pid_t pid);
/// spawn + wait; returns the exit code (or -1 on timeout, after a kill).
int run_process(const std::vector<std::string>& argv,
                const std::string& log_path, double timeout_s);

/// Entry point of `perfbench --role loadgen ...`.
int run_loadgen(const std::map<std::string, std::string>& args);

}  // namespace perfbench
