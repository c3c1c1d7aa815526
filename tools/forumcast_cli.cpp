// forumcast — command-line interface.
//
//   forumcast generate --questions N --users N --seed S --out posts.csv
//       Generate a synthetic Stack Overflow-like forum and export it.
//
//   forumcast stats --data posts.csv
//       Dataset statistics after the paper's preprocessing.
//
//   forumcast predict --data posts.csv --history-days D --question Q [--top K]
//       Fit the pipeline on the first D days and print the top-K candidate
//       answerers for question Q with (â, v̂, r̂).
//
//   forumcast route --data posts.csv --history-days D --lambda L --epsilon E
//       Route every question arriving after day D through the LP of eq. (2).
//
//   forumcast evaluate --data posts.csv [--folds F] [--repeats R]
//       Run the Table-I protocol (all three tasks + baselines).
//
//   forumcast ingest --data base.csv --ingest events.jsonl
//       Fit on the base forum, then stream the events through the live
//       ingestion subsystem (src/stream/): incremental dataset + feature
//       updates with fine-grained serving-cache invalidation. --wal-dir
//       makes ingestion durable (and recovers any previous log found
//       there); --snapshot-every N compacts the log periodically.
//
//   forumcast fit --data posts.csv --model-out model.fcm
//       Fit the pipeline and save the whole fitted state (extractor, topic
//       model, graphs, all three predictors) as one versioned model bundle.
//
//   forumcast serve --data posts.csv --model-in model.fcm [--question Q]
//       Cold-start serving: load the bundle (zero fit stages) and score.
//       Prints a prediction digest — bit-equal to the fit process's digest.
//
//   forumcast serve --data posts.csv --model-in model.fcm --listen PORT
//       Serving daemon: epoll event loop on 127.0.0.1:PORT (0 = ephemeral)
//       speaking the length-prefixed binary protocol (src/net/), with
//       concurrent requests coalesced into batched scoring. SIGINT/SIGTERM
//       or a shutdown request drain gracefully. --port-file publishes the
//       bound port for scripts that listen on an ephemeral one.
//
// predict and route also accept --model-in (serve from a bundle instead of
// fitting) and --model-out (save the fitted pipeline after fitting).
//
// All subcommands accept --seed for reproducibility, plus:
//   --trace-out FILE     record a Chrome trace (chrome://tracing / Perfetto)
//                        of the run and write it to FILE
//   --metrics-out FILE   dump the metrics registry snapshot as JSON to FILE
#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "core/recommender.hpp"
#include "exp/experiment.hpp"
#include "eval/metrics.hpp"
#include "forum/generator.hpp"
#include "forum/io.hpp"
#include "net/server.hpp"
#include "obs/monitor/monitor.hpp"
#include "obs/obs.hpp"
#include "replica/follower.hpp"
#include "replica/primary.hpp"
#include "serve/batch_scorer.hpp"
#include "stream/event_json.hpp"
#include "stream/live_state.hpp"
#include "stream/split.hpp"
#include "cli_args.hpp"
#include "util/check.hpp"
#include "util/digest.hpp"
#include "util/table.hpp"

namespace {

using namespace forumcast;

using cli::Args;

forum::Dataset load_data(const Args& args) {
  const std::string path = args.require("data");
  std::cout << "loading " << path << "...\n";
  const auto dataset = forum::load_posts_csv(path).preprocessed();
  const auto stats = dataset.stats();
  std::cout << "loaded " << stats.questions << " answered questions, "
            << stats.answers << " answers, " << stats.distinct_users
            << " users\n";
  return dataset;
}

// The live-ingest commands load --data raw (no preprocessing): the event
// stream references these ids.
forum::Dataset load_raw_base(const Args& args) {
  const std::string path = args.require("data");
  std::cout << "loading " << path << "...\n";
  auto base = forum::load_posts_csv(path);
  std::cout << "loaded " << base.num_questions() << " questions, "
            << base.num_users() << " users\n";
  return base;
}

// --centrality-mode exact|sampled and --centrality-pivots N select how SLN
// centralities are computed and refreshed (graph::CentralityConfig). The
// knob is saved into the model bundle, so ingest/serve runs that load the
// model inherit it without repeating the flags.
void apply_centrality_flags(core::PipelineConfig& config, const Args& args) {
  graph::CentralityConfig& centrality = config.extractor.centrality;
  const std::string mode = args.get("centrality-mode", "exact");
  if (mode == "sampled") {
    centrality.mode = graph::CentralityMode::kSampled;
  } else {
    FORUMCAST_CHECK_MSG(
        mode == "exact",
        "--centrality-mode must be 'exact' or 'sampled', got '" << mode << "'");
  }
  centrality.num_pivots = args.get_int<std::size_t>(
      "centrality-pivots", centrality.num_pivots, 1);
}

// The training flags every fitting command shares: --lda-iterations,
// --seed, --fit-threads and the centrality flags.
core::PipelineConfig pipeline_config(const Args& args) {
  core::PipelineConfig config;
  config.extractor.lda.iterations =
      args.get_int<std::size_t>("lda-iterations", 50);
  config.seed = args.get_int<std::uint64_t>("seed", 99);
  config.fit_threads = args.get_int<std::size_t>("fit-threads", 1);
  apply_centrality_flags(config, args);
  return config;
}

// The ingest commands fit on every question of the base dataset: the event
// stream extends that window, it never re-windows it.
core::ForecastPipeline fit_all_questions(const forum::Dataset& dataset,
                                         const Args& args) {
  core::ForecastPipeline pipeline(pipeline_config(args));
  std::vector<forum::QuestionId> window(dataset.num_questions());
  std::iota(window.begin(), window.end(), forum::QuestionId{0});
  std::cout << "fitting on " << window.size() << " threads...\n";
  pipeline.fit(dataset, window);
  return pipeline;
}

/// --history-days: the training window is days 1..D and arrivals start on
/// day D + 1, so D + 1 must still fit in an int.
int history_days_flag(const Args& args) {
  return args.get_int("history-days", 25, 1,
                      std::numeric_limits<int>::max() - 1);
}

core::ForecastPipeline fit_pipeline(const forum::Dataset& dataset,
                                    const Args& args) {
  const int history_days = history_days_flag(args);
  core::PipelineConfig config = pipeline_config(args);
  core::ForecastPipeline pipeline(config);
  const auto history = dataset.questions_in_days(1, history_days);
  FORUMCAST_CHECK_MSG(!history.empty(), "no questions in days 1-" << history_days);
  std::cout << "training on " << history.size() << " threads (days 1-"
            << history_days << ")...\n";
  pipeline.fit(dataset, history);
  return pipeline;
}

void save_bundle(const core::ForecastPipeline& pipeline,
                 const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  FORUMCAST_CHECK_MSG(out.good(), "cannot write model bundle: " << path);
  pipeline.save(out);
  out.flush();
  FORUMCAST_CHECK_MSG(out.good(), "failed writing model bundle: " << path);
  std::cout << "wrote model bundle " << path << " ("
            << std::filesystem::file_size(path) << " bytes)\n";
}

core::ForecastPipeline load_bundle(const forum::Dataset& dataset,
                                   const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  FORUMCAST_CHECK_MSG(in.good(), "cannot open model bundle: " << path);
  auto pipeline = core::ForecastPipeline::load(in, dataset);
  std::cout << "loaded model bundle " << path << " (generation "
            << pipeline.generation() << ")\n";
  return pipeline;
}

/// --model-in → load the bundle (zero fit stages); otherwise fit. With
/// --model-out the resulting pipeline is saved afterwards.
core::ForecastPipeline obtain_pipeline(const forum::Dataset& dataset,
                                       const Args& args) {
  const std::string model_in = args.get("model-in", "");
  core::ForecastPipeline pipeline = model_in.empty()
                                        ? fit_pipeline(dataset, args)
                                        : load_bundle(dataset, model_in);
  const std::string model_out = args.get("model-out", "");
  if (!model_out.empty()) save_bundle(pipeline, model_out);
  return pipeline;
}

/// The bundle an ingest run starts from: --model-in wins; else a bundle a
/// previous run left in the WAL directory (a restart: the WAL replay then
/// reapplies the streamed events on top); else "" — fit from scratch.
std::string ingest_bundle_path(const Args& args, const std::string& wal_dir) {
  const std::string model_in = args.get("model-in", "");
  if (!model_in.empty() || wal_dir.empty()) return model_in;
  const std::string left_behind = stream::model_bundle_path(wal_dir);
  return std::filesystem::exists(left_behind) ? left_behind : std::string{};
}

void print_recovery(const stream::LiveState& live, const std::string& wal_dir) {
  if (live.events_recovered() == 0) return;
  std::cout << "recovered " << live.events_recovered() << " events from "
            << wal_dir
            << (live.recovered_truncated_tail() ? " (torn WAL tail)" : "")
            << "\n";
}

/// Deterministic probe over both serving paths: three questions (first,
/// middle, last) × up to 128 users scored through the batched engine, plus
/// the scalar reference path for the leading users of each question —
/// checked bit-equal against the batch result pair by pair. Equal digests
/// across processes mean the loaded bundle predicts bit-identically to the
/// pipeline that saved it.
std::uint64_t prediction_digest(const core::ForecastPipeline& pipeline) {
  const forum::Dataset& dataset = pipeline.dataset();
  const std::size_t num_questions = dataset.num_questions();
  const serve::BatchScorer scorer(pipeline, serve::BatchScorerConfig{});

  std::vector<forum::QuestionId> probes;
  for (const std::size_t q :
       {std::size_t{0}, num_questions / 2, num_questions - 1}) {
    const auto id = static_cast<forum::QuestionId>(q);
    if (std::find(probes.begin(), probes.end(), id) == probes.end()) {
      probes.push_back(id);
    }
  }
  std::vector<forum::UserId> candidates;
  const std::size_t probe_users = std::min<std::size_t>(dataset.num_users(), 128);
  for (forum::UserId u = 0; u < probe_users; ++u) candidates.push_back(u);

  const auto bits = [](double value) {
    return std::bit_cast<std::uint64_t>(value);
  };
  util::Fnv1a digest;
  for (const forum::QuestionId q : probes) {
    const auto batch = scorer.score(q, candidates);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const core::Prediction& p = batch[i];
      digest.f64(p.answer_probability);
      digest.f64(p.votes);
      digest.f64(p.delay_hours);
      if (i < 16) {
        const core::Prediction scalar = pipeline.predict(candidates[i], q);
        FORUMCAST_CHECK_MSG(
            bits(scalar.answer_probability) == bits(p.answer_probability) &&
                bits(scalar.votes) == bits(p.votes) &&
                bits(scalar.delay_hours) == bits(p.delay_hours),
            "scalar/batch prediction mismatch at user "
                << candidates[i] << " question " << q);
        digest.f64(scalar.answer_probability);
        digest.f64(scalar.votes);
        digest.f64(scalar.delay_hours);
      }
    }
  }
  return digest.value();
}

void print_prediction_digest(const core::ForecastPipeline& pipeline) {
  std::cout << "prediction digest: " << std::hex << prediction_digest(pipeline)
            << std::dec << "\n";
}

serve::BatchScorerConfig scorer_config(const Args& args) {
  serve::BatchScorerConfig config;
  config.block_rows = args.get_int<std::size_t>("batch-size", 256, 1);
  return config;
}

void print_cache_stats(const serve::BatchScorer& scorer) {
  const serve::FeatureCacheStats stats = scorer.cache_stats();
  std::cerr << "serve cache: user " << stats.user_hits << " hits / "
            << stats.user_misses << " misses, question "
            << stats.question_hits << " hits / " << stats.question_misses
            << " misses, " << stats.invalidations << " invalidations\n";
}

// Every user except the question's asker.
std::vector<forum::UserId> candidate_answerers(const forum::Dataset& dataset,
                                               forum::QuestionId question) {
  std::vector<forum::UserId> candidates;
  candidates.reserve(dataset.num_users());
  for (forum::UserId u = 0; u < dataset.num_users(); ++u) {
    if (u == dataset.thread(question).question.creator) continue;
    candidates.push_back(u);
  }
  return candidates;
}

// Prints the --top candidates by P(answer); predictions[i] scores
// candidates[i].
void print_top_table(const std::string& title,
                     const std::vector<forum::UserId>& candidates,
                     const std::vector<core::Prediction>& predictions,
                     const Args& args) {
  const auto top_k = args.get_int<std::size_t>("top", 10);
  struct Scored {
    forum::UserId user;
    core::Prediction prediction;
  };
  std::vector<Scored> scored;
  scored.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    scored.push_back({candidates[i], predictions[i]});
  }
  std::partial_sort(scored.begin(),
                    scored.begin() + static_cast<std::ptrdiff_t>(
                                         std::min(top_k, scored.size())),
                    scored.end(), [](const Scored& a, const Scored& b) {
                      return a.prediction.answer_probability >
                             b.prediction.answer_probability;
                    });
  util::Table table(title, {"user", "P(answer)", "votes", "delay (h)"});
  for (std::size_t i = 0; i < std::min(top_k, scored.size()); ++i) {
    table.add_row({std::to_string(scored[i].user),
                   util::Table::num(scored[i].prediction.answer_probability),
                   util::Table::num(scored[i].prediction.votes, 2),
                   util::Table::num(scored[i].prediction.delay_hours, 2)});
  }
  table.print(std::cout);
}

int cmd_generate(const Args& args) {
  forum::GeneratorConfig config;
  config.num_questions = args.get_int<std::size_t>("questions", 2000);
  config.num_users = args.get_int<std::size_t>("users", 2000);
  config.seed = args.get_int<std::uint64_t>("seed", 2026);
  const std::string out = args.get("out", "posts.csv");
  const auto forum_data = forum::generate_forum(config);

  const std::string events_out = args.get("events-out", "");
  if (events_out.empty()) {
    forum::save_posts_csv(forum_data.dataset, out);
    const auto stats = forum_data.dataset.stats();
    std::cout << "wrote " << out << ": " << stats.questions << " questions, "
              << stats.answers << " answers, " << stats.distinct_users
              << " users\n";
    return 0;
  }

  // Split: activity before the cutoff day becomes the base CSV, everything
  // after becomes a JSONL event stream for `forumcast ingest`.
  const double cutoff_day = args.get_double("events-after-day", 25.0);
  FORUMCAST_CHECK_MSG(cutoff_day >= 1, "--events-after-day must be >= 1");
  auto split =
      stream::split_events_after(forum_data.dataset, cutoff_day * 24.0);
  FORUMCAST_CHECK_MSG(split.base.num_questions() > 0,
                      "no questions before day " << cutoff_day);

  // The CSV format carries no user count (load derives max id + 1), so
  // events referencing users unseen in the base would fail ingestion.
  forum::UserId base_users = 0;
  for (const auto& thread : split.base.threads()) {
    base_users = std::max(base_users, thread.question.creator + 1);
    for (const auto& answer : thread.answers) {
      base_users = std::max(base_users, answer.creator + 1);
    }
  }
  // Unseen-author events are dropped — but the split pre-assigned contiguous
  // question ids and answer indices assuming every event replays, so a
  // dropped NewQuestion/NewAnswer also invalidates its id/index and every
  // event referencing it. One ordered pass (causality holds: a question
  // precedes its answers, an answer precedes its votes) drops the dependents
  // and renumbers the survivors to match what LiveState will assign.
  const std::size_t before = split.events.size();
  const auto base_count =
      static_cast<forum::QuestionId>(split.base.num_questions());
  std::map<forum::QuestionId, forum::QuestionId> question_remap;
  std::map<forum::QuestionId, std::vector<std::int32_t>> dropped_answers;
  forum::QuestionId next_question = base_count;
  std::vector<stream::ForumEvent> kept;
  kept.reserve(split.events.size());
  for (stream::ForumEvent& event : split.events) {
    const bool unseen_author =
        (event.type == stream::EventType::kNewQuestion ||
         event.type == stream::EventType::kNewAnswer) &&
        event.user >= base_users;
    if (event.type == stream::EventType::kNewQuestion) {
      if (unseen_author) continue;  // id never maps; dependents drop below
      question_remap[event.question] = next_question;
      event.question = next_question++;
      kept.push_back(std::move(event));
      continue;
    }
    if (event.question >= base_count) {
      const auto it = question_remap.find(event.question);
      if (it == question_remap.end()) continue;  // question was dropped
      event.question = it->second;
    }
    auto& dropped = dropped_answers[event.question];
    if (event.type == stream::EventType::kNewAnswer) {
      if (unseen_author) {
        dropped.push_back(event.answer_index);
        continue;
      }
      event.answer_index -= static_cast<std::int32_t>(dropped.size());
    } else if (event.answer_index >= 0) {  // vote on a specific answer
      std::int32_t shift = 0;
      bool target_dropped = false;
      for (const std::int32_t index : dropped) {
        if (index == event.answer_index) target_dropped = true;
        if (index < event.answer_index) ++shift;
      }
      if (target_dropped) continue;
      event.answer_index -= shift;
    }
    kept.push_back(std::move(event));
  }
  split.events = std::move(kept);
  if (split.events.size() != before) {
    std::cerr << "note: dropped " << before - split.events.size()
              << " events from users unseen before day " << cutoff_day << "\n";
  }

  forum::save_posts_csv(split.base, out);
  stream::save_events_jsonl(events_out, split.events);
  std::cout << "wrote " << out << ": " << split.base.num_questions()
            << " questions (days 1-" << cutoff_day << ")\n"
            << "wrote " << events_out << ": " << split.events.size()
            << " events after day " << cutoff_day << "\n";
  return 0;
}

int run_ingest_daemon(const Args& args);  // defined after run_daemon

int cmd_ingest(const Args& args) {
  if (!args.get("listen", "").empty()) {
    // Primary daemon mode: serve reads and replicate the event WAL while a
    // feed thread streams the events in.
    return run_ingest_daemon(args);
  }
  auto dataset = load_raw_base(args);

  const std::string wal_dir = args.get("wal-dir", "");
  const std::string model_in = ingest_bundle_path(args, wal_dir);
  core::ForecastPipeline pipeline = model_in.empty()
                                        ? fit_all_questions(dataset, args)
                                        : load_bundle(dataset, model_in);

  stream::LiveStateConfig live_config;
  live_config.wal_dir = wal_dir;
  live_config.snapshot_every = args.get_int<std::size_t>("snapshot-every", 0);
  stream::LiveState live(pipeline, dataset, live_config);
  print_recovery(live, wal_dir);

  serve::BatchScorer scorer(pipeline, scorer_config(args));
  live.attach(&scorer);

  // --monitor 1: live model-quality monitoring. Every scored batch lands in
  // the prediction ledger; streamed answers and votes join back against it;
  // serving-time features are checked for drift against the fit-time
  // baseline; SLOs run on event time. Ledger entries only exist for scored
  // questions, so recent base questions are warm-scored up front and each
  // newly arrived question right after its chunk — answers streaming in
  // later then find predictions to resolve.
  const bool monitoring = args.get_int("monitor", 0) != 0;
  std::optional<obs::monitor::QualityMonitor> monitor;
  std::vector<forum::UserId> candidates_all;
  std::size_t warm_mark = dataset.num_questions();
  double last_event_time = dataset.last_post_time();
  if (monitoring) {
    obs::monitor::MonitorConfig monitor_config;
    monitor_config.slo_auc_min =
        args.get_double("slo-auc", monitor_config.slo_auc_min);
    monitor_config.slo_psi_max =
        args.get_double("slo-psi", monitor_config.slo_psi_max);
    monitor_config.slo_p99_latency_ms =
        args.get_double("slo-p99", monitor_config.slo_p99_latency_ms);
    monitor.emplace(monitor_config);
    monitor->set_baseline(pipeline.feature_baseline());
    monitor->set_feature_fn([&pipeline](forum::UserId u, forum::QuestionId q) {
      return pipeline.extractor().features(u, q);
    });
    scorer.set_monitor(&*monitor);
    live.attach_monitor(&*monitor);

    candidates_all.reserve(dataset.num_users());
    for (forum::UserId u = 0; u < dataset.num_users(); ++u) {
      candidates_all.push_back(u);
    }
    const std::size_t warm = args.get_int<std::size_t>("monitor-warm", 64);
    const std::size_t first =
        warm_mark > warm ? warm_mark - warm : std::size_t{0};
    for (std::size_t q = first; q < warm_mark; ++q) {
      live.score(scorer, static_cast<forum::QuestionId>(q), candidates_all);
    }
  }

  const std::string events_path = args.get("ingest", "");
  if (!events_path.empty()) {
    const auto events = stream::load_events_jsonl(events_path);
    const std::size_t chunk = args.get_int<std::size_t>("chunk", 256, 1);
    std::size_t applied = 0;
    for (std::size_t begin = 0; begin < events.size(); begin += chunk) {
      const std::size_t n = std::min(chunk, events.size() - begin);
      applied += live.ingest(
          std::span<const stream::ForumEvent>(events).subspan(begin, n));
      if (monitor) {
        // Ledger the chunk's new arrivals so later answers can join.
        for (; warm_mark < dataset.num_questions(); ++warm_mark) {
          live.score(scorer, static_cast<forum::QuestionId>(warm_mark),
                     candidates_all);
        }
      }
    }
    if (!events.empty()) last_event_time = events.back().timestamp_hours;
    std::cout << "ingested " << applied << " events (seq "
              << live.last_seq() << "), " << dataset.num_questions()
              << " questions live\n";
  }
  std::cout << "state digest: " << std::hex << live.digest() << std::dec
            << "\n";

  const long question = args.get_int("question", -1L);
  if (question >= 0) {
    FORUMCAST_CHECK_MSG(static_cast<std::size_t>(question) <
                            dataset.num_questions(),
                        "question " << question << " out of range");
    const auto q = static_cast<forum::QuestionId>(question);
    const auto candidates = candidate_answerers(dataset, q);
    print_top_table("top candidate answerers for question " +
                        std::to_string(q) + " (post-ingest)",
                    candidates, live.score(scorer, q, candidates), args);
  }
  if (monitor) {
    const auto report = monitor->evaluate_now(last_event_time);
    std::cout << report.to_string();
    live.attach_monitor(nullptr);
    scorer.set_monitor(nullptr);
  }
  print_cache_stats(scorer);
  live.detach(&scorer);
  return 0;
}

int cmd_stats(const Args& args) {
  const auto dataset = load_data(args);
  const auto stats = dataset.stats();
  util::Table table("dataset statistics (after preprocessing)",
                    {"metric", "value"});
  table.add_row({"questions", std::to_string(stats.questions)});
  table.add_row({"answers", std::to_string(stats.answers)});
  table.add_row({"askers", std::to_string(stats.askers)});
  table.add_row({"answerers", std::to_string(stats.answerers)});
  table.add_row({"distinct users", std::to_string(stats.distinct_users)});
  table.add_row({"answer-matrix density",
                 util::Table::num(stats.answer_matrix_density, 6)});
  table.add_row({"time span (h)", util::Table::num(dataset.last_post_time(), 1)});
  table.print(std::cout);
  return 0;
}

// Scores `question` against every candidate through the batched serving
// engine and prints the top-K table. Shared by predict and serve.
void print_top_candidates(const forum::Dataset& dataset,
                          const core::ForecastPipeline& pipeline,
                          const Args& args, forum::QuestionId question) {
  const auto candidates = candidate_answerers(dataset, question);
  const serve::BatchScorer scorer(pipeline, scorer_config(args));
  print_top_table(
      "top candidate answerers for question " + std::to_string(question),
      candidates, scorer.score(question, candidates), args);
  print_cache_stats(scorer);
}

int cmd_predict(const Args& args) {
  const auto dataset = load_data(args);
  const auto question = args.get_int<forum::QuestionId>("question", 0);
  FORUMCAST_CHECK_MSG(question < dataset.num_questions(),
                      "question " << question << " out of range");
  const auto pipeline = obtain_pipeline(dataset, args);
  print_top_candidates(dataset, pipeline, args, question);
  return 0;
}

int cmd_fit(const Args& args) {
  const auto dataset = load_data(args);
  const auto pipeline = fit_pipeline(dataset, args);
  save_bundle(pipeline, args.require("model-out"));
  print_prediction_digest(pipeline);
  return 0;
}

// Signal → graceful drain: Server::stop() is async-signal-safe (one atomic
// store plus an eventfd write), so the handler may call it directly.
std::atomic<net::Server*> g_listen_server{nullptr};

extern "C" void handle_stop_signal(int) {
  net::Server* server = g_listen_server.load(std::memory_order_acquire);
  if (server != nullptr) server->stop();
}

// Runs `server` until a shutdown request or SIGINT/SIGTERM drains it, then
// restores the default signal dispositions.
void serve_until_stopped(net::Server& server) {
  g_listen_server.store(&server, std::memory_order_release);
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  server.run();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  g_listen_server.store(nullptr, std::memory_order_release);
}

// Publishes a bound port atomically (tmp + rename): a poller either sees no
// file or a complete port number, never a torn write.
void publish_port_file(const std::string& port_file, std::uint16_t port) {
  if (port_file.empty()) return;
  const std::string tmp = port_file + ".wip";
  {
    std::ofstream out(tmp);
    FORUMCAST_CHECK_MSG(out.good(), "cannot write " << port_file);
    out << port << "\n";
  }
  std::filesystem::rename(tmp, port_file);
}

net::ServerConfig daemon_server_config(const Args& args) {
  net::ServerConfig config;
  config.port = args.get_listen_port("listen");
  // Absent flags keep the library defaults (BatcherConfig).
  config.batcher.max_batch_requests = args.get_int<std::size_t>(
      "max-batch", config.batcher.max_batch_requests);
  config.batcher.max_queue =
      args.get_int<std::size_t>("queue-cap", config.batcher.max_queue);
  config.batcher.threads =
      args.get_int<std::size_t>("net-threads", config.batcher.threads);
  return config;
}

int run_daemon(const forum::Dataset& dataset, core::ForecastPipeline&& owned,
               const Args& args) {
  // The daemon owns the pipeline through the scorer's shared_ptr so a hot
  // swap can retire it safely while route solves still hold a snapshot.
  auto pipeline =
      std::make_shared<const core::ForecastPipeline>(std::move(owned));
  serve::BatchScorer scorer(pipeline, scorer_config(args));

  net::Server server(scorer, dataset, daemon_server_config(args));
  publish_port_file(args.get("port-file", ""), server.port());
  std::cout << "listening on port " << server.port() << std::endl;

  serve_until_stopped(server);

  std::cout << "served " << server.requests_seen() << " requests\n";
  return 0;
}

// `forumcast ingest --listen P --replisten R`: the primary of a replicated
// read-serving tier. Serves scoring reads like `serve --listen`, but over a
// live-ingest state: a feed thread streams the --ingest events in (paced by
// --feed-delay-ms), each durable chunk wakes the replication pump, and
// followers subscribed on the replication port receive the WAL stream plus
// head-digest spans for the divergence check. A hot swap rebuilds serving
// state (base dataset + new bundle + WAL replay) and broadcasts kModelSwap
// so followers re-fetch and rebuild too.
int run_ingest_daemon(const Args& args) {
  const auto base = load_raw_base(args);

  // Replication ships the durable log, so the primary daemon requires one.
  const std::string wal_dir = args.require("wal-dir");
  std::filesystem::create_directories(wal_dir);

  // Serving state is always built bundle-first — the exact path a swap
  // rebuild and a follower bootstrap take — so all three start
  // bit-identical.
  const std::string model_in = ingest_bundle_path(args, wal_dir);
  std::string bundle_bytes;
  if (!model_in.empty()) {
    bundle_bytes = replica::read_bundle_file(model_in);
    std::cout << "using model bundle " << model_in << " ("
              << bundle_bytes.size() << " bytes)\n";
  } else {
    std::ostringstream out;
    fit_all_questions(base, args).save(out);
    bundle_bytes = std::move(out).str();
  }

  stream::LiveStateConfig live_config;
  live_config.wal_dir = wal_dir;
  live_config.snapshot_every = args.get_int<std::size_t>("snapshot-every", 0);
  replica::Primary primary(base, bundle_bytes, live_config,
                           scorer_config(args));
  print_recovery(*primary.node().current()->live, wal_dir);

  net::ServerConfig config = daemon_server_config(args);
  primary.configure(config);
  config.replication_port = args.get_listen_port("replisten");
  net::Server server(primary.node().scorer(), base, config);

  publish_port_file(args.get("port-file", ""), server.port());
  publish_port_file(args.get("repl-port-file", ""), server.replication_port());
  std::cout << "listening on port " << server.port() << " (replication on "
            << server.replication_port() << ")" << std::endl;

  // The feed thread is the live event source: it streams the --ingest file
  // through LiveState in chunks, pacing with --feed-delay-ms so followers
  // demonstrably tail a *moving* log, and nudges the replication pump after
  // every durable chunk.
  std::atomic<bool> feed_stop{false};
  std::thread feed;
  const std::string events_path = args.get("ingest", "");
  if (!events_path.empty()) {
    feed = std::thread([&] {
      const auto events = stream::load_events_jsonl(events_path);
      const std::size_t chunk = args.get_int<std::size_t>("chunk", 256, 1);
      const double delay_ms = args.get_double("feed-delay-ms", 0.0);
      std::size_t applied = 0;
      for (std::size_t begin = 0;
           begin < events.size() && !feed_stop.load(std::memory_order_acquire);
           begin += chunk) {
        const std::size_t n = std::min(chunk, events.size() - begin);
        applied += primary.ingest(
            std::span<const stream::ForumEvent>(events).subspan(begin, n));
        server.notify_replication();
        if (delay_ms > 0) {
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(delay_ms));
        }
      }
      // Smoke tests key on this marker to know the stream has fully landed.
      std::cout << "feed complete: " << applied << " events (seq "
                << primary.node().applied_seq() << ")" << std::endl;
    });
  }

  serve_until_stopped(server);

  feed_stop.store(true, std::memory_order_release);
  if (feed.joinable()) feed.join();
  std::cout << "served " << server.requests_seen() << " requests\n";
  return 0;
}

// `forumcast replica`: a follower of the replicated tier. Bootstraps from
// the primary's replication port (or locally from --wal-dir on restart),
// tails the WAL stream on a background thread, and serves reads on its own
// port through the same daemon the primary uses.
int cmd_replica(const Args& args) {
  // Same raw base snapshot the primary ingests on top of.
  const auto base = load_raw_base(args);

  replica::FollowerConfig follower_config;
  follower_config.primary_host = args.get("primary-host", "127.0.0.1");
  // The primary's replication port.
  follower_config.primary_port = args.require_dial_port("primary-port");
  follower_config.wal_dir = args.require("wal-dir");
  std::filesystem::create_directories(follower_config.wal_dir);
  follower_config.snapshot_every =
      args.get_int<std::size_t>("snapshot-every", 0);
  follower_config.heartbeat_ms =
      args.get_double("heartbeat-ms", follower_config.heartbeat_ms);
  // Bounded transport: a dead or still-booting primary costs bounded time
  // per attempt; the follower's own reconnect loop owns the long game.
  follower_config.client.connect_timeout_ms = 2000.0;
  follower_config.client.connect_retries = 4;
  follower_config.client.retry_backoff_ms = 100.0;

  replica::Follower follower(base, follower_config);
  std::thread tail([&] { follower.run(); });

  const double boot_timeout_ms = args.get_double("boot-timeout-ms", 60000.0);
  if (!follower.wait_serving(boot_timeout_ms)) {
    follower.stop();
    tail.join();
    std::cerr << "error: no serving state after " << boot_timeout_ms
              << " ms (primary unreachable and no local bundle)\n";
    return 1;
  }

  net::ServerConfig config = daemon_server_config(args);
  follower.configure(config);
  net::Server server(follower.scorer(), base, config);

  publish_port_file(args.get("port-file", ""), server.port());
  std::cout << "follower serving on port " << server.port() << " (applied seq "
            << follower.applied_seq() << ")" << std::endl;

  serve_until_stopped(server);

  follower.stop();
  tail.join();
  std::cout << "served " << server.requests_seen() << " requests (applied seq "
            << follower.applied_seq() << ", resyncs " << follower.resyncs()
            << ", swaps " << follower.swaps_applied() << ")\n";
  return 0;
}

int cmd_serve(const Args& args) {
  const auto dataset = load_data(args);
  // Cold start: the bundle restores every fit product, so no fit stage runs
  // (the metrics snapshot carries no pipeline.fit.* histograms — the smoke
  // test asserts exactly that).
  auto pipeline = load_bundle(dataset, args.require("model-in"));
  print_prediction_digest(pipeline);
  if (args.get("listen", "").size() > 0) {
    return run_daemon(dataset, std::move(pipeline), args);
  }
  const long question = args.get_int("question", -1L);
  if (question >= 0) {
    FORUMCAST_CHECK_MSG(
        static_cast<std::size_t>(question) < dataset.num_questions(),
        "question " << question << " out of range");
    print_top_candidates(dataset, pipeline, args,
                         static_cast<forum::QuestionId>(question));
  }
  return 0;
}

int cmd_route(const Args& args) {
  const int history_days = history_days_flag(args);
  const auto dataset = load_data(args);
  const auto pipeline = obtain_pipeline(dataset, args);
  const int last_day =
      static_cast<int>(dataset.last_post_time() / 24.0) + 1;
  const auto arrivals = dataset.questions_in_days(history_days + 1, last_day);
  FORUMCAST_CHECK_MSG(!arrivals.empty(), "no arrivals after the history window");

  core::RecommenderConfig config;
  config.epsilon = args.get_double("epsilon", 0.3);
  config.quality_time_tradeoff = args.get_double("lambda", 0.2);
  config.default_capacity = args.get_double("capacity", 2.0);
  const serve::BatchScorer scorer(pipeline, scorer_config(args));
  const core::Recommender recommender(pipeline, scorer.predict_fn(), config);

  std::vector<forum::UserId> candidates;
  {
    std::vector<bool> seen(dataset.num_users(), false);
    for (const auto& pair : dataset.answered_pairs(
             dataset.questions_in_days(1, history_days))) {
      if (!seen[pair.user]) {
        seen[pair.user] = true;
        candidates.push_back(pair.user);
      }
    }
  }
  std::vector<double> load(candidates.size(), 0.0);
  util::Table table("routing decisions",
                    {"question", "user", "p", "P(answer)", "votes", "delay (h)"});
  for (forum::QuestionId q : arrivals) {
    const auto result = recommender.recommend(q, candidates, load);
    if (!result.feasible) {
      table.add_row({std::to_string(q), "-", "-", "-", "-", "-"});
      continue;
    }
    const auto& top = result.ranking.front();
    table.add_row({std::to_string(q), std::to_string(top.user),
                   util::Table::num(top.probability, 2),
                   util::Table::num(top.prediction.answer_probability, 2),
                   util::Table::num(top.prediction.votes, 2),
                   util::Table::num(top.prediction.delay_hours, 2)});
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (candidates[i] == top.user) {
        load[i] += 1.0;
        break;
      }
    }
  }
  table.print(std::cout);
  print_cache_stats(scorer);
  return 0;
}

int cmd_evaluate(const Args& args) {
  const auto dataset = load_data(args);
  std::vector<forum::QuestionId> omega(dataset.num_questions());
  for (std::size_t i = 0; i < omega.size(); ++i) {
    omega[i] = static_cast<forum::QuestionId>(i);
  }
  features::ExtractorConfig extractor_config;
  extractor_config.lda.iterations =
      args.get_int<std::size_t>("lda-iterations", 50);
  exp::ExperimentContext context(dataset, omega, omega, extractor_config);

  exp::TaskSetup setup = exp::fast_task_setup();
  setup.folds = args.get_int<std::size_t>("folds", 5);
  setup.repeats = args.get_int<std::size_t>("repeats", 2);
  setup.seed = args.get_int<std::uint64_t>("seed", 1234);
  std::cout << "running " << setup.folds * setup.repeats
            << " cross-validation iterations...\n";
  const auto result = exp::run_tasks(context, setup);

  util::Table table("evaluation (Table I protocol)",
                    {"Task", "Metric", "Baseline", "Our model", "Improvement"});
  auto row = [&](const std::string& task, const std::string& metric,
                 const exp::TaskMetrics& baseline, const exp::TaskMetrics& ours,
                 bool higher_better) {
    table.add_row({task, metric, util::Table::num(baseline.mean()),
                   util::Table::num(ours.mean()),
                   util::Table::num(eval::improvement_percent(
                                        baseline.mean(), ours.mean(), higher_better),
                                    1) +
                       "%"});
  };
  row("a_uq", "AUC", result.answer_auc_baseline, result.answer_auc, true);
  row("v_uq", "RMSE", result.vote_rmse_baseline, result.vote_rmse, false);
  row("r_uq", "RMSE (h)", result.timing_rmse_baseline, result.timing_rmse, false);
  table.print(std::cout);
  return 0;
}

void usage() {
  std::cout << "usage: forumcast <generate|stats|fit|serve|predict|route|evaluate|ingest|replica> [--flag value ...]\n"
               "  generate --questions N --users N --seed S --out posts.csv\n"
               "           [--events-out events.jsonl --events-after-day D]\n"
               "           split: base CSV holds days 1-D, later activity\n"
               "           becomes a JSONL event stream for `ingest`\n"
               "  stats    --data posts.csv\n"
               "  fit      --data posts.csv --model-out model.fcm [--history-days D]\n"
               "           fit, save the whole pipeline as a versioned bundle,\n"
               "           and print a prediction digest\n"
               "  serve    --data posts.csv --model-in model.fcm [--question Q --top K]\n"
               "           cold-start from the bundle (zero fit stages); the\n"
               "           digest is bit-equal to the fit process's\n"
               "           [--listen PORT]      run the serving daemon on\n"
               "                                127.0.0.1:PORT (0 = ephemeral)\n"
               "           [--port-file FILE]   publish the bound port\n"
               "           [--max-batch N]      micro-batch size cap (256)\n"
               "           [--queue-cap N]      admission queue bound (4096)\n"
               "           [--net-threads N]    scoring workers (one per core)\n"
               "  predict  --data posts.csv --question Q [--history-days D] [--top K]\n"
               "  route    --data posts.csv [--history-days D] [--lambda L] [--epsilon E]\n"
               "  evaluate --data posts.csv [--folds F] [--repeats R]\n"
               "  ingest   --data base.csv --ingest events.jsonl [--chunk N]\n"
               "           [--wal-dir DIR] [--snapshot-every N]\n"
               "           [--question Q --top K]  score after ingesting\n"
               "           [--listen PORT]      primary daemon: serve reads while a\n"
               "                                feed thread streams the events in\n"
               "                                (requires --wal-dir; accepts the\n"
               "                                serve daemon flags)\n"
               "           [--replisten PORT]   replication listener: followers\n"
               "                                subscribe here for the WAL stream\n"
               "           [--repl-port-file F] publish the replication port\n"
               "           [--feed-delay-ms X]  pause between ingested chunks\n"
               "  replica  --data base.csv --primary-port P --wal-dir DIR\n"
               "           follower daemon: bootstrap from the primary's\n"
               "           replication port (or locally from --wal-dir on a\n"
               "           restart), tail the WAL stream, serve reads\n"
               "           [--primary-host H]   primary address (127.0.0.1)\n"
               "           [--listen PORT]      serving port (0 = ephemeral)\n"
               "           [--port-file FILE]   publish the bound port\n"
               "           [--heartbeat-ms X]   idle heartbeat interval (250)\n"
               "           [--boot-timeout-ms X] bootstrap deadline (60000)\n"
               "monitoring (ingest):\n"
               "  --monitor 1          ledger every scored batch, join streamed\n"
               "                       answers/votes back as labels (rolling AUC,\n"
               "                       vote RMSE, timing log-likelihood, ECE),\n"
               "                       track per-feature PSI vs the fit-time\n"
               "                       baseline, evaluate SLOs on event time,\n"
               "                       and print the monitor report\n"
               "  --monitor-warm N     recent base questions warm-scored into the\n"
               "                       ledger before ingesting (default 64)\n"
               "  --slo-auc X          rolling-AUC floor (default 0.80)\n"
               "  --slo-psi X          per-feature PSI ceiling (default 0.25)\n"
               "  --slo-p99 X          p99 score() latency ceiling, ms (default 5)\n"
               "model bundles (predict, route, ingest):\n"
               "  --model-in FILE      load the fitted pipeline from a bundle\n"
               "                       instead of fitting (ingest also picks up\n"
               "                       a bundle found in --wal-dir automatically)\n"
               "  --model-out FILE     save the fitted pipeline after fitting\n"
               "serving (predict, route, serve):\n"
               "  --batch-size N       rows per batched-scoring block (default 256);\n"
               "                       cache hit/miss counters land in --metrics-out\n"
               "training (fit, predict, route, ingest):\n"
               "  --fit-threads N      AD-LDA Gibbs shards (0 = all cores); the\n"
               "                       only fit stage that splits across threads.\n"
               "                       1 (default) runs the serial sampler; N>1\n"
               "                       is deterministic per thread count\n"
               "  --centrality-mode M  'exact' (default; exact Brandes, identical\n"
               "                       at any thread count)\n"
               "                       or 'sampled' (pivot-sampled centralities\n"
               "                       with incremental dirty-region refresh —\n"
               "                       the streaming-ingest scale knob). Saved\n"
               "                       into the model bundle.\n"
               "  --centrality-pivots N  sampled-mode source budget per graph\n"
               "                       (default 128; larger = more accurate)\n"
               "observability (any subcommand):\n"
               "  --trace-out FILE     write a Chrome trace (chrome://tracing, Perfetto)\n"
               "  --metrics-out FILE   write the metrics registry snapshot as JSON\n";
}

// Writes the collected trace / metrics snapshots after the command ran.
// Returns false (and complains on stderr) if a file could not be written.
bool flush_observability(const Args& args) {
  bool ok = true;
  const std::string trace_out = args.get("trace-out", "");
  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    if (out) {
      obs::TraceCollector::global().write_chrome_trace(out);
    }
    if (!out) {
      std::cerr << "error: cannot write trace to " << trace_out << "\n";
      ok = false;
    } else {
      std::cerr << "trace written to " << trace_out
                << " (open in chrome://tracing or https://ui.perfetto.dev)\n";
      // Per-run aggregate: where the time went, by span name.
      util::Table table("stage timings", {"span", "count", "total (ms)",
                                          "mean (ms)", "max (ms)"});
      for (const auto& row : obs::TraceCollector::global().aggregate()) {
        table.add_row({row.name, std::to_string(row.count),
                       util::Table::num(row.total_ms, 1),
                       util::Table::num(row.mean_ms, 2),
                       util::Table::num(row.max_ms, 1)});
      }
      table.print(std::cerr);
    }
  }
  const std::string metrics_out = args.get("metrics-out", "");
  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out);
    if (out) {
      out << obs::MetricsRegistry::global().snapshot().to_json() << "\n";
    }
    if (!out) {
      std::cerr << "error: cannot write metrics to " << metrics_out << "\n";
      ok = false;
    } else {
      std::cerr << "metrics written to " << metrics_out << "\n";
    }
  }
  return ok;
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
    if (!args.get("trace-out", "").empty()) {
      obs::TraceCollector::global().set_enabled(true);
    }
    int rc = 2;
    if (command == "generate") rc = cmd_generate(args);
    else if (command == "stats") rc = cmd_stats(args);
    else if (command == "fit") rc = cmd_fit(args);
    else if (command == "serve") rc = cmd_serve(args);
    else if (command == "predict") rc = cmd_predict(args);
    else if (command == "route") rc = cmd_route(args);
    else if (command == "evaluate") rc = cmd_evaluate(args);
    else if (command == "ingest") rc = cmd_ingest(args);
    else if (command == "replica") rc = cmd_replica(args);
    else {
      usage();
      return 2;
    }
    if (!flush_observability(args) && rc == 0) rc = 1;
    return rc;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
