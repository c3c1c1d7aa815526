// forumcast-netctl — control client for the serving daemon.
//
//   netctl health   --port P
//   netctl score    --port P --question Q --users "0,1,2"
//   netctl route    --port P --question Q --users "0,1,2" [--top K]
//   netctl metrics  --port P
//   netctl swap     --port P --model BUNDLE
//   netctl shutdown --port P
//   netctl digest   --port P
//       Recomputes the CLI's prediction digest entirely over the wire
//       (same probe questions, same candidate set, same FNV-1a fold over
//       raw IEEE-754 bits). Equal output proves wire scores are
//       bit-identical to the serving process's in-process scores.
//   netctl hammer   --port P --requests N --concurrency C
//                   [--swap-model BUNDLE --swaps K]
//       Closed-loop load: C client threads issue N score requests total;
//       optionally K hot swaps are spread through the run. Reports
//       "ok: N errors: E" — a drain-safe server under same-content swaps
//       answers every request (E == 0, every score frame well-formed).
//   netctl replstatus --port P
//       Replication role + progress (role/applied/head/lag/digest). Every
//       daemon answers: primaries report their durable head, followers
//       their applied position — equal digests at equal seqs across the
//       tier is the replication correctness check.
//   netctl score --cluster "a=host:port,b=host:port" --question Q --users U
//       Cluster-sharded scoring: each user is answered by its consistent-
//       hash ring owner; the reassembled response is bit-identical to any
//       single node's (every replica holds the full model).
//   netctl owners --cluster "a=host:port,..." --users "0,1,2"
//       Ring ownership for the given users (no connection is opened).
#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli_args.hpp"
#include "net/client.hpp"
#include "replica/cluster.hpp"
#include "util/check.hpp"
#include "util/digest.hpp"

namespace {

using namespace forumcast;

using cli::Args;

std::uint16_t port_of(const Args& args) {
  return args.require_dial_port("port");
}

std::vector<forum::UserId> parse_users(const std::string& csv) {
  std::vector<forum::UserId> users;
  std::stringstream stream(csv);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) {
      users.push_back(cli::parse_int<forum::UserId>("users", item));
    }
  }
  return users;
}

int cmd_health(const Args& args) {
  net::Client client(port_of(args));
  const net::HealthInfo health = client.health();
  std::cout << "questions: " << health.num_questions
            << " users: " << health.num_users
            << " generation: " << health.model_generation
            << " swap_epoch: " << health.swap_epoch
            << " queue_depth: " << health.queue_depth << "\n";
  return 0;
}

int cmd_score(const Args& args) {
  const auto users = parse_users(args.require("users"));
  const auto question = args.get_int<forum::QuestionId>("question", 0);
  std::vector<core::Prediction> predictions;
  const std::string cluster = args.get("cluster", "");
  if (cluster.empty()) {
    net::Client client(port_of(args));
    predictions = client.score(question, users);
  } else {
    // Sharded: each user's slice goes to its ring owner; the reassembled
    // order matches the input, so output is identical to the single-node
    // path above.
    replica::ClusterClient client(replica::parse_cluster(cluster));
    predictions = client.score(question, users);
  }
  for (std::size_t i = 0; i < users.size(); ++i) {
    std::cout << "user " << users[i] << " p=" << predictions[i].answer_probability
              << " votes=" << predictions[i].votes
              << " delay_h=" << predictions[i].delay_hours << "\n";
  }
  return 0;
}

int cmd_replstatus(const Args& args) {
  net::Client client(port_of(args));
  const net::ReplicaStatusInfo status = client.replica_status();
  const char* role = status.role == 1   ? "primary"
                     : status.role == 2 ? "follower"
                                        : "standalone";
  std::cout << "role: " << role << " applied_seq: " << status.applied_seq
            << " head_seq: " << status.head_seq
            << " lag_events: " << status.lag_events
            << " lag_ms: " << status.lag_ms << " digest: " << std::hex
            << status.digest << std::dec << "\n";
  return 0;
}

int cmd_owners(const Args& args) {
  const auto endpoints = replica::parse_cluster(args.require("cluster"));
  replica::Ring ring;
  for (const auto& endpoint : endpoints) ring.add_node(endpoint.name);
  for (const forum::UserId user : parse_users(args.require("users"))) {
    std::cout << "user " << user << " -> " << ring.owner(user) << "\n";
  }
  return 0;
}

int cmd_route(const Args& args) {
  net::Client client(port_of(args));
  const auto users = parse_users(args.require("users"));
  const auto question = args.get_int<forum::QuestionId>("question", 0);
  const auto top_k = args.get_int<std::uint32_t>("top", 0);
  const net::Message response = client.route(question, top_k, users);
  std::cout << "feasible: " << (response.feasible ? "yes" : "no") << "\n";
  for (const net::RouteEntry& entry : response.routes) {
    std::cout << "user " << entry.user << " p=" << entry.probability
              << " P(answer)=" << entry.prediction.answer_probability << "\n";
  }
  return 0;
}

int cmd_metrics(const Args& args) {
  net::Client client(port_of(args));
  std::cout << client.metrics_json() << "\n";
  return 0;
}

int cmd_swap(const Args& args) {
  net::Client client(port_of(args));
  const net::Message response = client.swap_model(args.require("model"));
  std::cout << "swapped: generation " << response.generation << " swap_epoch "
            << response.swap_epoch << "\n";
  return 0;
}

int cmd_shutdown(const Args& args) {
  net::Client client(port_of(args));
  client.shutdown_server();
  std::cout << "server draining\n";
  return 0;
}

// Wire replication of the CLI's prediction_digest: the same probe questions
// and candidates, scored over the socket instead of in-process. The CLI
// folds each (â, v̂, r̂) once for every candidate and a second time for the
// first 16 (its scalar-path crosscheck — bit-equal to the batch triple by
// construction, which the serving process asserts at startup), so the wire
// side folds those triples twice. Score responses carry raw IEEE-754 bits,
// so equal digests mean bit-identical predictions end to end.
int cmd_digest(const Args& args) {
  net::Client client(port_of(args));
  const net::HealthInfo health = client.health();
  FORUMCAST_CHECK_MSG(health.num_questions > 0, "server has no questions");

  std::vector<forum::QuestionId> probes;
  for (const std::uint32_t q :
       {std::uint32_t{0}, health.num_questions / 2, health.num_questions - 1}) {
    if (std::find(probes.begin(), probes.end(), q) == probes.end()) {
      probes.push_back(q);
    }
  }
  std::vector<forum::UserId> candidates;
  const std::uint32_t probe_users = std::min<std::uint32_t>(health.num_users, 128);
  for (forum::UserId u = 0; u < probe_users; ++u) candidates.push_back(u);

  util::Fnv1a digest;
  for (const forum::QuestionId q : probes) {
    const auto batch = client.score(q, candidates);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const core::Prediction& p = batch[i];
      digest.f64(p.answer_probability);
      digest.f64(p.votes);
      digest.f64(p.delay_hours);
      if (i < 16) {
        digest.f64(p.answer_probability);
        digest.f64(p.votes);
        digest.f64(p.delay_hours);
      }
    }
  }
  std::cout << "prediction digest: " << std::hex << digest.value() << std::dec
            << "\n";
  return 0;
}

int cmd_hammer(const Args& args) {
  const std::uint16_t port = port_of(args);
  const long total = args.get_int("requests", 1000L, 0L);
  const long concurrency = args.get_int("concurrency", 4L, 1L);
  const std::string swap_bundle = args.get("swap-model", "");
  const long swaps = swap_bundle.empty() ? 0 : args.get_int("swaps", 2L, 0L);

  net::Client probe(port);
  const net::HealthInfo health = probe.health();
  FORUMCAST_CHECK_MSG(health.num_questions > 0 && health.num_users > 0,
                      "server dataset is empty");
  const std::uint32_t questions = std::min<std::uint32_t>(health.num_questions, 8);
  const std::uint32_t users = std::min<std::uint32_t>(health.num_users, 64);

  std::atomic<long> ok{0};
  std::atomic<long> errors{0};
  std::atomic<long> issued{0};

  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(concurrency));
  for (long t = 0; t < concurrency; ++t) {
    workers.emplace_back([&, t] {
      try {
        net::Client client(port);
        std::vector<forum::UserId> batch(4);
        for (;;) {
          const long seq = issued.fetch_add(1);
          if (seq >= total) break;
          const auto question = static_cast<forum::QuestionId>(
              (seq + t) % questions);
          for (std::size_t i = 0; i < batch.size(); ++i) {
            batch[i] = static_cast<forum::UserId>((seq + i) % users);
          }
          try {
            const auto predictions = client.score(question, batch);
            if (predictions.size() == batch.size()) {
              ok.fetch_add(1);
            } else {
              errors.fetch_add(1);
            }
          } catch (const std::exception&) {
            errors.fetch_add(1);
          }
        }
      } catch (const std::exception&) {
        errors.fetch_add(1);  // could not even connect
      }
    });
  }

  // Spread the hot swaps through the run from this thread: each swap lands
  // while the workers above are mid-traffic.
  if (swaps > 0) {
    net::Client control(port);
    for (long s = 0; s < swaps; ++s) {
      while (issued.load() < (s + 1) * total / (swaps + 1) &&
             issued.load() < total) {
        std::this_thread::yield();
      }
      const net::Message response = control.swap_model(swap_bundle);
      std::cout << "swap " << (s + 1) << ": swap_epoch "
                << response.swap_epoch << "\n";
    }
  }

  for (std::thread& worker : workers) worker.join();
  std::cout << "ok: " << ok.load() << " errors: " << errors.load() << "\n";
  return errors.load() == 0 ? 0 : 1;
}

void usage() {
  std::cout
      << "usage: forumcast-netctl "
         "<health|score|route|metrics|swap|shutdown|digest|hammer|replstatus|"
         "owners> --port P [--flag value ...]\n"
         "  health   --port P\n"
         "  score    --port P --question Q --users \"0,1,2\"\n"
         "           [--cluster \"a=host:port,...\"]  shard by ring owner\n"
         "                                        instead of --port\n"
         "  route    --port P --question Q --users \"0,1,2\" [--top K]\n"
         "  metrics  --port P\n"
         "  swap     --port P --model BUNDLE\n"
         "  shutdown --port P\n"
         "  digest   --port P      wire replica of the CLI prediction digest\n"
         "  hammer   --port P --requests N --concurrency C\n"
         "           [--swap-model BUNDLE --swaps K]\n"
         "  replstatus --port P    replication role/applied/head/lag/digest\n"
         "  owners   --cluster \"a=host:port,...\" --users \"0,1,2\"\n"
         "           consistent-hash ring ownership (offline)\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string command = argv[1];
  try {
    const Args args(argc, argv, 2);
    if (command == "health") return cmd_health(args);
    if (command == "score") return cmd_score(args);
    if (command == "route") return cmd_route(args);
    if (command == "metrics") return cmd_metrics(args);
    if (command == "swap") return cmd_swap(args);
    if (command == "shutdown") return cmd_shutdown(args);
    if (command == "digest") return cmd_digest(args);
    if (command == "hammer") return cmd_hammer(args);
    if (command == "replstatus") return cmd_replstatus(args);
    if (command == "owners") return cmd_owners(args);
    usage();
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
