// Google-benchmark microbenchmarks for the heavy substrate components:
// LDA Gibbs sweeps, Brandes betweenness, feature extraction, training steps,
// and the simplex solver. These guard the experiment-harness runtimes.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "features/extractor.hpp"
#include "forum/generator.hpp"
#include "forum/sln.hpp"
#include "graph/centrality.hpp"
#include "ml/adam.hpp"
#include "ml/mlp.hpp"
#include "obs/obs.hpp"
#include "opt/routing_lp.hpp"
#include "topics/lda.hpp"
#include "util/rng.hpp"

namespace {

using namespace forumcast;

// ---------- LDA ----------

void BM_LdaGibbs(benchmark::State& state) {
  const auto docs = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  std::vector<std::vector<text::TokenId>> documents(docs);
  const std::size_t vocab = 500;
  for (auto& doc : documents) {
    doc.resize(40);
    for (auto& token : doc) {
      token = static_cast<text::TokenId>(rng.uniform_index(vocab));
    }
  }
  for (auto _ : state) {
    topics::Lda lda({.num_topics = 8, .iterations = 10, .seed = 2});
    lda.fit(documents, vocab);
    benchmark::DoNotOptimize(lda.document_topics(0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(docs * 40 * 10));
}
BENCHMARK(BM_LdaGibbs)->Arg(200)->Arg(1000);

// ---------- graph centralities ----------

graph::Graph random_graph(std::size_t nodes, std::size_t edges,
                          std::uint64_t seed) {
  graph::Graph g(nodes);
  util::Rng rng(seed);
  while (g.edge_count() < edges) {
    g.add_edge(rng.uniform_index(nodes), rng.uniform_index(nodes));
  }
  return g;
}

void BM_Betweenness(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  const auto g = random_graph(nodes, nodes * 2, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::betweenness_centrality(g));
  }
}
BENCHMARK(BM_Betweenness)->Arg(500)->Arg(2000);

void BM_Closeness(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  const auto g = random_graph(nodes, nodes * 2, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::closeness_centrality(g));
  }
}
BENCHMARK(BM_Closeness)->Arg(500)->Arg(2000);

// ---------- feature extraction ----------

struct FeatureFixture {
  forum::Dataset dataset;
  std::unique_ptr<features::FeatureExtractor> extractor;

  static FeatureFixture& instance() {
    static FeatureFixture fixture;
    return fixture;
  }

 private:
  FeatureFixture() {
    forum::GeneratorConfig config;
    config.num_users = 500;
    config.num_questions = 400;
    config.seed = 7;
    dataset = forum::generate_forum(config).dataset.preprocessed();
    std::vector<forum::QuestionId> all(dataset.num_questions());
    for (std::size_t i = 0; i < all.size(); ++i) {
      all[i] = static_cast<forum::QuestionId>(i);
    }
    features::ExtractorConfig extractor_config;
    extractor_config.lda.iterations = 20;
    extractor = std::make_unique<features::FeatureExtractor>(dataset, all,
                                                             extractor_config);
  }
};

void BM_FeatureVector(benchmark::State& state) {
  auto& fixture = FeatureFixture::instance();
  util::Rng rng(11);
  for (auto _ : state) {
    const auto u =
        static_cast<forum::UserId>(rng.uniform_index(fixture.dataset.num_users()));
    const auto q = static_cast<forum::QuestionId>(
        rng.uniform_index(fixture.dataset.num_questions()));
    benchmark::DoNotOptimize(fixture.extractor->features(u, q));
  }
}
BENCHMARK(BM_FeatureVector);

void BM_ExtractorConstruction(benchmark::State& state) {
  forum::GeneratorConfig config;
  config.num_users = 300;
  config.num_questions = 200;
  config.seed = 13;
  const auto dataset = forum::generate_forum(config).dataset.preprocessed();
  std::vector<forum::QuestionId> all(dataset.num_questions());
  for (std::size_t i = 0; i < all.size(); ++i) {
    all[i] = static_cast<forum::QuestionId>(i);
  }
  features::ExtractorConfig extractor_config;
  extractor_config.lda.iterations = 10;
  for (auto _ : state) {
    features::FeatureExtractor extractor(dataset, all, extractor_config);
    benchmark::DoNotOptimize(extractor.dimension());
  }
}
BENCHMARK(BM_ExtractorConstruction);

// ---------- training steps ----------

void BM_MlpTrainStep(benchmark::State& state) {
  ml::Mlp net(34, {{20, ml::Activation::ReLU},
                   {20, ml::Activation::ReLU},
                   {20, ml::Activation::ReLU},
                   {1, ml::Activation::Identity}},
              17);
  ml::Adam adam(net.param_count());
  util::Rng rng(19);
  std::vector<double> x(34);
  for (double& v : x) v = rng.normal();
  ml::Mlp::Tape tape;
  for (auto _ : state) {
    net.zero_grad();
    const auto y = net.forward(x, tape);
    net.backward(tape, std::vector<double>{y[0] - 1.0});
    adam.step(net.params(), net.grads());
  }
}
BENCHMARK(BM_MlpTrainStep);

// ---------- observability overhead ----------
//
// These quantify the cost of the obs primitives themselves so the <2%
// instrumentation-overhead budget (DESIGN.md) stays auditable. Span cost is
// measured both with collection disabled (the default — one relaxed atomic
// load) and enabled (timestamping + per-thread buffer append).

void BM_ObsSpanDisabled(benchmark::State& state) {
  obs::TraceCollector::global().set_enabled(false);
  for (auto _ : state) {
    FORUMCAST_SPAN("bench.span_disabled");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ObsSpanDisabled);

void BM_ObsSpanEnabled(benchmark::State& state) {
  obs::TraceCollector::global().set_enabled(true);
  for (auto _ : state) {
    FORUMCAST_SPAN("bench.span_enabled");
    benchmark::ClobberMemory();
  }
  obs::TraceCollector::global().set_enabled(false);
  obs::TraceCollector::global().clear();
}
BENCHMARK(BM_ObsSpanEnabled);

void BM_ObsCounterAdd(benchmark::State& state) {
  for (auto _ : state) {
    FORUMCAST_COUNTER_ADD("bench.counter", 1);
  }
}
BENCHMARK(BM_ObsCounterAdd);

void BM_ObsHistogramObserve(benchmark::State& state) {
  util::Rng rng(31);
  for (auto _ : state) {
    FORUMCAST_HISTOGRAM_OBSERVE("bench.histogram", rng.uniform(0.0, 100.0),
                                1.0, 10.0, 50.0);
  }
}
BENCHMARK(BM_ObsHistogramObserve);

// ---------- routing LP ----------

void BM_RoutingGreedy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(23);
  opt::RoutingProblem problem;
  for (std::size_t i = 0; i < n; ++i) {
    problem.weights.push_back(rng.normal());
    problem.capacities.push_back(rng.uniform(0.1, 1.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt::solve_routing(problem));
  }
}
BENCHMARK(BM_RoutingGreedy)->Arg(100)->Arg(1000);


}  // namespace

BENCHMARK_MAIN();
