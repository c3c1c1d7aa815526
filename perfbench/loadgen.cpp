// The load generator process and the helpers common.hpp declares.
//
// One thread multiplexes every client connection over ppoll(): the machine
// has few cores and the server shares them, so a thread per connection
// would measure the scheduler rather than the server. Open-loop plans are
// sent when due (pipelined on a connection if earlier answers are still
// out); closed-loop plans keep a fixed window of requests in flight per
// connection. Every answer is checked for shape and finiteness here and
// digested so the driver can compare it bit for bit with an in-process
// reference.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "common.hpp"
#include "util/digest.hpp"

namespace perfbench {

namespace {

template <typename T>
void put(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

template <typename T>
T get(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(value));
  if (!in) throw std::runtime_error("truncated perfbench data file");
  return value;
}

void fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

void write_plan(const std::string& path,
                const std::vector<PlannedRequest>& plan) {
  std::ofstream out(path, std::ios::binary);
  put<std::uint64_t>(out, plan.size());
  for (const PlannedRequest& request : plan) {
    put(out, request.due_us);
    put(out, request.kind);
    put(out, request.question);
    put<std::uint32_t>(out, static_cast<std::uint32_t>(request.users.size()));
    out.write(reinterpret_cast<const char*>(request.users.data()),
              static_cast<std::streamsize>(request.users.size() *
                                           sizeof(UserId)));
  }
  if (!out) throw std::runtime_error("cannot write plan " + path);
}

std::vector<PlannedRequest> read_plan(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read plan " + path);
  std::vector<PlannedRequest> plan(get<std::uint64_t>(in));
  for (PlannedRequest& request : plan) {
    request.due_us = get<std::int64_t>(in);
    request.kind = get<RequestKind>(in);
    request.question = get<QuestionId>(in);
    request.users.resize(get<std::uint32_t>(in));
    in.read(reinterpret_cast<char*>(request.users.data()),
            static_cast<std::streamsize>(request.users.size() * sizeof(UserId)));
    if (!in) throw std::runtime_error("truncated plan " + path);
  }
  return plan;
}

void write_results(const std::string& path,
                   const std::vector<RequestResult>& results) {
  std::ofstream out(path, std::ios::binary);
  put<std::uint64_t>(out, results.size());
  for (const RequestResult& result : results) put(out, result);
  if (!out) throw std::runtime_error("cannot write results " + path);
}

std::vector<RequestResult> read_results(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read results " + path);
  std::vector<RequestResult> results(get<std::uint64_t>(in));
  for (RequestResult& result : results) result = get<RequestResult>(in);
  return results;
}

std::uint64_t response_digest(const forumcast::net::Message& response) {
  forumcast::util::Fnv1a digest;
  digest.u64(static_cast<std::uint64_t>(response.kind));
  for (const auto& p : response.predictions) {
    digest.f64(p.answer_probability);
    digest.f64(p.votes);
    digest.f64(p.delay_hours);
  }
  digest.u64(response.feasible ? 1 : 0);
  for (const auto& route : response.routes) {
    digest.u64(route.user);
    digest.f64(route.probability);
    digest.f64(route.prediction.answer_probability);
    digest.f64(route.prediction.votes);
    digest.f64(route.prediction.delay_hours);
  }
  return digest.value();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

pid_t spawn(const std::vector<std::string>& argv, const std::string& log_path) {
  // Everything the child touches is prepared before fork(): between fork and
  // exec only async-signal-safe calls are allowed.
  std::vector<char*> args;
  for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) fail("fork");
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      ::close(fd);
    }
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  return pid;
}

bool wait_exit(pid_t pid, double timeout_s, int* exit_code) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  for (;;) {
    int status = 0;
    const pid_t done = ::waitpid(pid, &status, WNOHANG);
    if (done == pid) {
      if (exit_code != nullptr) {
        *exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
      }
      return true;
    }
    if (done < 0 && errno != EINTR) return true;  // already reaped
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void stop_process(pid_t pid) {
  if (pid <= 0) return;
  ::kill(pid, SIGTERM);
  if (wait_exit(pid, 10.0, nullptr)) return;
  ::kill(pid, SIGKILL);
  wait_exit(pid, 10.0, nullptr);
}

int run_process(const std::vector<std::string>& argv,
                const std::string& log_path, double timeout_s) {
  const pid_t pid = spawn(argv, log_path);
  int code = -1;
  if (!wait_exit(pid, timeout_s, &code)) {
    ::kill(pid, SIGKILL);
    wait_exit(pid, 10.0, nullptr);
    return -1;
  }
  return code;
}

// ---------------------------------------------------------------------------
// The load generator.

namespace {

namespace net = forumcast::net;

struct Connection {
  int fd = -1;
  std::string out;
  std::size_t out_offset = 0;
  std::string in;
};

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) fail("socket");
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    fail("connect");
  }
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

void flush(Connection& conn) {
  while (conn.out_offset < conn.out.size()) {
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_offset,
                             conn.out.size() - conn.out_offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      fail("send");
    }
    conn.out_offset += static_cast<std::size_t>(n);
  }
  if (conn.out_offset == conn.out.size()) {
    conn.out.clear();
    conn.out_offset = 0;
  }
}

/// Shape check of one answer against its request.
Status judge(const net::Message& response, const PlannedRequest& request) {
  if (response.kind == net::MessageKind::kErrorResponse) {
    return response.error == net::ErrorCode::kQueueFull ? Status::kQueueFull
                                                        : Status::kError;
  }
  if (request.kind == RequestKind::kScore) {
    if (response.kind != net::MessageKind::kScoreResponse ||
        response.predictions.size() != request.users.size()) {
      return Status::kBadResponse;
    }
    for (const auto& p : response.predictions) {
      if (!(p.answer_probability >= 0.0 && p.answer_probability <= 1.0) ||
          !std::isfinite(p.votes) || !std::isfinite(p.delay_hours)) {
        return Status::kBadResponse;
      }
    }
    return Status::kOk;
  }
  if (response.kind != net::MessageKind::kRouteResponse) return Status::kBadResponse;
  double total = 0.0;
  for (const auto& route : response.routes) {
    if (std::find(request.users.begin(), request.users.end(), route.user) ==
            request.users.end() ||
        !(route.probability > 0.0 && route.probability <= 1.0 + 1e-9)) {
      return Status::kBadResponse;
    }
    total += route.probability;
  }
  if (response.feasible && std::abs(total - 1.0) > 1e-6) return Status::kBadResponse;
  return Status::kOk;
}

}  // namespace

int run_loadgen(const std::map<std::string, std::string>& args) {
  const auto arg = [&](const char* key) {
    const auto it = args.find(key);
    if (it == args.end()) throw std::runtime_error(std::string("loadgen needs --") + key);
    return it->second;
  };
  const auto port = static_cast<std::uint16_t>(std::stoi(arg("port")));
  const std::vector<PlannedRequest> plan = read_plan(arg("plan"));
  const std::int64_t start_ns = std::stoll(arg("start-ns"));
  const auto run_ns = static_cast<std::int64_t>(std::stod(arg("seconds")) * 1e9);
  const auto connections = static_cast<std::size_t>(std::stoi(arg("connections")));
  const auto window = static_cast<std::size_t>(std::stoi(arg("window")));
  const bool closed_loop = window > 0;
  if (plan.empty() || connections == 0) throw std::runtime_error("empty load");
  // Best effort: a generator starved by the server's threads sends late.
  ::setpriority(PRIO_PROCESS, 0, -10);

  std::vector<Connection> conns(connections);
  for (Connection& conn : conns) conn.fd = connect_loopback(port);

  std::vector<RequestResult> results;
  results.reserve(closed_loop ? 1 << 16 : plan.size());
  std::unordered_map<std::uint64_t, std::size_t> pending;  // request id → result slot
  std::size_t next_plan = 0;

  const auto send_request = [&](Connection& conn, std::size_t plan_index, std::int64_t due_ns) {
    net::Message request;
    request.kind = plan[plan_index].kind == RequestKind::kScore
                       ? net::MessageKind::kScoreRequest
                       : net::MessageKind::kRouteRequest;
    request.request_id = results.size() + 1;
    request.question = plan[plan_index].question;
    request.users = plan[plan_index].users;
    RequestResult result;
    result.plan_index = static_cast<std::uint32_t>(plan_index);
    result.kind = plan[plan_index].kind;
    result.due_ns = due_ns;
    net::append_frame(conn.out, request);
    result.send_ns = now_ns();
    pending.emplace(request.request_id, results.size());
    results.push_back(result);
    flush(conn);
  };

  const std::int64_t end_ns = start_ns + run_ns;
  while (now_ns() < start_ns) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  if (closed_loop) {
    for (Connection& conn : conns) {
      for (std::size_t w = 0; w < window; ++w) {
        send_request(conn, next_plan++ % plan.size(), 0);
      }
    }
  }

  std::vector<pollfd> fds(conns.size());
  const std::int64_t drain_deadline = end_ns + 20'000'000'000LL;
  for (;;) {
    const std::int64_t now = now_ns();
    if (!closed_loop) {
      while (next_plan < plan.size() &&
             start_ns + plan[next_plan].due_us * 1000 <= now) {
        const std::size_t i = next_plan++;
        send_request(conns[i % conns.size()], i, start_ns + plan[i].due_us * 1000);
      }
    }
    const bool issuing = closed_loop ? now < end_ns : next_plan < plan.size();
    if (!issuing && pending.empty()) break;
    if (now > drain_deadline) break;

    std::int64_t wait_ns = 5'000'000;
    if (!closed_loop && next_plan < plan.size()) {
      wait_ns = std::max<std::int64_t>(
          0, start_ns + plan[next_plan].due_us * 1000 - now_ns());
    }
    for (std::size_t c = 0; c < conns.size(); ++c) {
      fds[c].fd = conns[c].fd;
      fds[c].events = static_cast<short>(POLLIN | (conns[c].out.empty() ? 0 : POLLOUT));
      fds[c].revents = 0;
    }
    timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                     static_cast<long>(wait_ns % 1'000'000'000)};
    const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (ready < 0 && errno != EINTR) fail("ppoll");
    if (ready <= 0) continue;
    for (std::size_t c = 0; c < conns.size(); ++c) {
      Connection& conn = conns[c];
      if (fds[c].revents & POLLOUT) flush(conn);
      if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      char chunk[1 << 16];
      for (;;) {
        const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
        if (n < 0) {
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          if (errno == EINTR) continue;
          fail("recv");
        }
        if (n == 0) throw std::runtime_error("server closed a load connection");
        conn.in.append(chunk, static_cast<std::size_t>(n));
      }
      std::size_t consumed = 0;
      for (;;) {
        const net::DecodeFrameResult decoded =
            net::decode_frame(std::string_view(conn.in).substr(consumed));
        if (decoded.corrupt) throw std::runtime_error("corrupt frame from server");
        if (decoded.bytes_consumed == 0) break;
        consumed += decoded.bytes_consumed;
        const std::int64_t recv = now_ns();
        const auto it = pending.find(decoded.message.request_id);
        if (it == pending.end()) throw std::runtime_error("answer to unknown request");
        RequestResult& result = results[it->second];
        pending.erase(it);
        result.recv_ns = recv;
        result.status = judge(decoded.message, plan[result.plan_index]);
        result.digest = response_digest(decoded.message);
        if (closed_loop && recv < end_ns) {
          send_request(conn, next_plan++ % plan.size(), 0);
        }
      }
      conn.in.erase(0, consumed);
    }
  }
  for (const auto& [id, slot] : pending) results[slot].status = Status::kTimeout;
  for (Connection& conn : conns) ::close(conn.fd);
  write_results(arg("out"), results);
  return 0;
}

}  // namespace perfbench
