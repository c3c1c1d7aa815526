// Sampled + incremental centrality (graph/centrality_engine) and the exact
// functions' edge cases.
//
// Contracts under test:
//  - exact edge cases: all-zero/negative normalization, isolated nodes,
//    fully disconnected graphs, n < 3 early-outs, thread-count determinism;
//  - sample_pivots is a pure function of (n, k, seed, epoch);
//  - sampled estimates are thread-count invariant, collapse to the exact
//    values when the pivot set is all nodes (closeness bit-exactly; the
//    linear-scaled betweenness up to summation order), and stay within a
//    0.05 max-abs error of exact on max-normalized values on forum-shaped
//    graphs at realistic pivot budgets (the ISSUE's accuracy bar);
//  - an incremental refresh() is bit-identical to a full rebuild() over the
//    same graph with the same pivot set, and only pivots whose shortest-path
//    trees the new edges touch are re-swept.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "artifact/artifact.hpp"
#include "core/pipeline.hpp"
#include "forum/generator.hpp"
#include "graph/centrality.hpp"
#include "graph/centrality_engine.hpp"
#include "graph/graph.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace forumcast::graph {
namespace {

Graph random_graph(std::size_t nodes, std::size_t edges, std::uint64_t seed) {
  Graph graph(nodes);
  util::Rng rng(seed);
  std::size_t added = 0;
  while (added < edges) {
    const auto u = static_cast<NodeId>(rng.uniform_index(nodes));
    const auto v = static_cast<NodeId>(rng.uniform_index(nodes));
    if (u != v && graph.add_edge(u, v)) ++added;
  }
  return graph;
}

// Forum-shaped social graph like the extractor's QA graph: a small set of
// heavy answerer hubs with zipf-ish popularity, every asker linking to a
// handful of hubs, and co-answer edges between hubs that share a question.
// Betweenness concentrates on the hubs — the topology the sampled
// estimator's accuracy bar is defined against.
Graph qa_shaped_graph(std::size_t nodes, std::uint64_t seed) {
  util::Rng rng(seed);
  const std::size_t hubs = std::max<std::size_t>(4, nodes / 12);
  Graph graph(nodes);
  std::vector<double> weight(hubs);
  double total = 0.0;
  for (std::size_t h = 0; h < hubs; ++h) {
    weight[h] = 1.0 / (1.0 + static_cast<double>(h));
    total += weight[h];
  }
  const auto draw_hub = [&] {
    double r = static_cast<double>(rng.uniform_index(1000000)) / 1e6 * total;
    for (std::size_t h = 0; h < hubs; ++h) {
      if ((r -= weight[h]) <= 0.0) return static_cast<NodeId>(h);
    }
    return static_cast<NodeId>(hubs - 1);
  };
  for (NodeId asker = static_cast<NodeId>(hubs); asker < nodes; ++asker) {
    const std::size_t answers = 1 + rng.uniform_index(4);
    NodeId previous = static_cast<NodeId>(nodes);
    for (std::size_t i = 0; i < answers; ++i) {
      const NodeId hub = draw_hub();
      graph.add_edge(asker, hub);
      if (previous < nodes && previous != hub) graph.add_edge(previous, hub);
      previous = hub;
    }
  }
  return graph;
}

std::vector<std::pair<NodeId, NodeId>> random_new_edges(Graph& graph,
                                                        std::size_t count,
                                                        std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::pair<NodeId, NodeId>> added;
  while (added.size() < count) {
    const auto u = static_cast<NodeId>(rng.uniform_index(graph.node_count()));
    const auto v = static_cast<NodeId>(rng.uniform_index(graph.node_count()));
    if (u != v && graph.add_edge(u, v)) added.emplace_back(u, v);
  }
  return added;
}

void expect_bitwise_equal(const std::vector<double>& actual,
                          const std::vector<double>& expected,
                          const char* what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(actual[i], expected[i]) << what << "[" << i << "]";
  }
}

double max_abs_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

// --- Exact-path edge cases (satellite coverage for centrality.cpp) ---

TEST(CentralityEdge, NormalizedToMaxAllZeroIsUnchanged) {
  const std::vector<double> zeros(5, 0.0);
  EXPECT_EQ(normalized_to_max(zeros), zeros);
}

TEST(CentralityEdge, NormalizedToMaxAllNegativeIsUnchanged) {
  const std::vector<double> values = {-3.0, -1.0, -2.5};
  EXPECT_EQ(normalized_to_max(values), values);
}

TEST(CentralityEdge, NormalizedToMaxEmptyIsUnchanged) {
  EXPECT_TRUE(normalized_to_max({}).empty());
}

TEST(CentralityEdge, NormalizedToMaxScalesByMaximum) {
  const auto normalized = normalized_to_max({0.0, 2.0, 4.0});
  EXPECT_EQ(normalized, (std::vector<double>{0.0, 0.5, 1.0}));
}

TEST(CentralityEdge, IsolatedNodesScoreZero) {
  // Triangle {0,1,2} plus isolated nodes 3, 4.
  Graph graph(5);
  graph.add_edge(0, 1);
  graph.add_edge(1, 2);
  graph.add_edge(0, 2);
  const auto closeness = closeness_centrality(graph);
  const auto betweenness = betweenness_centrality(graph);
  EXPECT_GT(closeness[0], 0.0);
  EXPECT_EQ(closeness[3], 0.0);
  EXPECT_EQ(closeness[4], 0.0);
  EXPECT_EQ(betweenness[3], 0.0);
  EXPECT_EQ(betweenness[4], 0.0);
}

TEST(CentralityEdge, FullyDisconnectedGraphIsAllZero) {
  const Graph graph(6);
  EXPECT_EQ(closeness_centrality(graph), std::vector<double>(6, 0.0));
  EXPECT_EQ(betweenness_centrality(graph), std::vector<double>(6, 0.0));
}

TEST(CentralityEdge, SmallGraphEarlyOuts) {
  const Graph empty(0);
  EXPECT_TRUE(closeness_centrality(empty).empty());
  EXPECT_TRUE(betweenness_centrality(empty).empty());

  const Graph single(1);
  EXPECT_EQ(closeness_centrality(single), std::vector<double>{0.0});
  EXPECT_EQ(betweenness_centrality(single), std::vector<double>{0.0});

  Graph pair(2);
  pair.add_edge(0, 1);
  // closeness = (n−1)/d = 1 for both endpoints; betweenness early-outs at
  // n < 3 (no node can be interior to a shortest path).
  EXPECT_EQ(closeness_centrality(pair), (std::vector<double>{1.0, 1.0}));
  EXPECT_EQ(betweenness_centrality(pair), (std::vector<double>{0.0, 0.0}));
}

TEST(CentralityEdge, ThreadCountDeterminismSweep) {
  // Big enough that summing the sources in a thread-dependent order would
  // change the last bits of most values.
  const Graph graph = random_graph(600, 1600, 77);
  const auto serial_closeness = closeness_centrality(graph, 1);
  const auto serial_betweenness = betweenness_centrality(graph, 1);
  for (const std::size_t threads : {2, 3, 4, 8}) {
    // Closeness writes disjoint per-node outputs; betweenness sums a fixed
    // set of source slots in a fixed order. Both match serial bit for bit.
    expect_bitwise_equal(closeness_centrality(graph, threads),
                         serial_closeness, "closeness vs serial");
    expect_bitwise_equal(betweenness_centrality(graph, threads),
                         serial_betweenness, "betweenness vs serial");
  }
}

// --- Pivot sampling ---

TEST(CentralitySampled, PivotStreamIsDeterministic) {
  const auto a = sample_pivots(500, 64, 42, 0);
  const auto b = sample_pivots(500, 64, 42, 0);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 64u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_EQ(std::adjacent_find(a.begin(), a.end()), a.end()) << "duplicates";
  for (const NodeId v : a) EXPECT_LT(v, 500u);
}

TEST(CentralitySampled, PivotStreamVariesWithSeedAndEpoch) {
  const auto base = sample_pivots(500, 64, 42, 0);
  EXPECT_NE(base, sample_pivots(500, 64, 43, 0));
  EXPECT_NE(base, sample_pivots(500, 64, 42, 1));
}

TEST(CentralitySampled, PivotBudgetAtOrAboveNodeCountIsEveryNode) {
  for (const std::size_t budget : {10u, 11u, 1000u}) {
    const auto pivots = sample_pivots(10, budget, 7, 3);
    ASSERT_EQ(pivots.size(), 10u);
    for (NodeId v = 0; v < 10; ++v) EXPECT_EQ(pivots[v], v);
  }
}

TEST(CentralitySampled, ZeroNodesOrZeroPivotsIsEmpty) {
  EXPECT_TRUE(sample_pivots(0, 8, 1, 0).empty());
  EXPECT_TRUE(sample_pivots(8, 0, 1, 0).empty());
}

// --- Sampled estimator properties ---

TEST(CentralitySampled, AllNodePivotSetCollapsesToExact) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    const Graph graph = random_graph(48, 120, seed);
    CentralityConfig config;
    config.mode = CentralityMode::kSampled;
    config.num_pivots = graph.node_count();
    CentralityEngine engine(config);
    engine.rebuild(graph);
    // Closeness folds integer distance sums, so with every node a pivot it
    // reproduces the exact bits. The linear-scaled betweenness equals exact
    // mathematically at k = n but sums in a different order, so compare
    // with a tight relative tolerance instead of bitwise.
    expect_bitwise_equal(engine.closeness(), closeness_centrality(graph, 1),
                         "closeness k=n");
    const auto sampled = engine.betweenness();
    const auto exact = betweenness_centrality(graph, 1);
    ASSERT_EQ(sampled.size(), exact.size());
    for (std::size_t v = 0; v < sampled.size(); ++v) {
      EXPECT_NEAR(sampled[v], exact[v], 1e-9 * std::max(1.0, exact[v]))
          << "betweenness k=n [" << v << "] seed " << seed;
    }
  }
}

TEST(CentralitySampled, ResultsAreThreadCountInvariant) {
  const Graph graph = random_graph(120, 320, 5);
  CentralityConfig config;
  config.mode = CentralityMode::kSampled;
  config.num_pivots = 32;
  CentralityEngine reference(config);
  reference.rebuild(graph, 1);
  for (const std::size_t threads : {2, 4, 8}) {
    CentralityEngine engine(config);
    engine.rebuild(graph, threads);
    expect_bitwise_equal(engine.betweenness(), reference.betweenness(),
                         "betweenness across threads");
    expect_bitwise_equal(engine.closeness(), reference.closeness(),
                         "closeness across threads");
  }
}

class CentralitySampledError : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CentralitySampledError, NormalizedErrorWithinBound) {
  // The ISSUE's accuracy bar: ≤ 0.05 max-abs error on max-normalized values
  // against exact. The bound is defined on forum-shaped (hub-dominated)
  // graphs — on flat random graphs max-normalized pointwise error of any
  // source-sampling estimator is an order of magnitude worse, because
  // betweenness mass is spread thin and the normalizing max is itself noisy.
  const std::uint64_t seed = GetParam();
  const Graph graph = qa_shaped_graph(400, seed);
  CentralityConfig config;
  config.mode = CentralityMode::kSampled;
  config.num_pivots = 200;
  config.seed = 0x5ce7a117u + seed;
  CentralityEngine engine(config);
  engine.rebuild(graph);
  const double betweenness_err =
      max_abs_diff(normalized_to_max(engine.betweenness()),
                   normalized_to_max(betweenness_centrality(graph, 1)));
  const double closeness_err =
      max_abs_diff(normalized_to_max(engine.closeness()),
                   normalized_to_max(closeness_centrality(graph, 1)));
  EXPECT_LE(betweenness_err, 0.05) << "seed " << seed;
  EXPECT_LE(closeness_err, 0.05) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CentralitySampledError,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(CentralitySampledError, OperatingPointMeetsAccuracyBar) {
  // The acceptance operating point: 2000 nodes with a pivot budget a
  // 12.5× sweep reduction below exact (k = 160) must stay within the 0.05
  // max-abs bound on max-normalized values. Speed at this configuration is
  // covered by bench/centrality; this pins the accuracy half.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const Graph graph = qa_shaped_graph(2000, seed);
    CentralityConfig config;
    config.mode = CentralityMode::kSampled;
    config.num_pivots = 160;
    config.seed = 0x5ce7a117u + seed;
    CentralityEngine engine(config);
    engine.rebuild(graph);
    const double betweenness_err =
        max_abs_diff(normalized_to_max(engine.betweenness()),
                     normalized_to_max(betweenness_centrality(graph, 0)));
    const double closeness_err =
        max_abs_diff(normalized_to_max(engine.closeness()),
                     normalized_to_max(closeness_centrality(graph, 0)));
    EXPECT_LE(betweenness_err, 0.05) << "seed " << seed;
    EXPECT_LE(closeness_err, 0.05) << "seed " << seed;
  }
}

// --- Incremental engine ---

TEST(CentralityEngine, IncrementalRefreshMatchesRebuildBitwise) {
  for (const std::uint64_t seed : {21u, 22u, 23u}) {
    Graph graph = random_graph(120, 300, seed);
    CentralityConfig config;
    config.mode = CentralityMode::kSampled;
    config.num_pivots = 24;
    CentralityEngine incremental(config);
    incremental.rebuild(graph);

    // Three batches of edge insertions, refreshing after each: the engine
    // must track a from-scratch build over the same pivot set (a fresh
    // engine's first rebuild draws epoch 0, like ours did).
    for (int batch = 0; batch < 3; ++batch) {
      const auto new_edges =
          random_new_edges(graph, 10, seed * 100 + batch);
      incremental.refresh(graph, new_edges);
      EXPECT_FALSE(incremental.last_refresh().full_rebuild);
      EXPECT_LE(incremental.last_refresh().sweeps, config.num_pivots);

      CentralityEngine fresh(config);
      fresh.rebuild(graph);
      expect_bitwise_equal(incremental.betweenness(), fresh.betweenness(),
                           "incremental betweenness");
      expect_bitwise_equal(incremental.closeness(), fresh.closeness(),
                           "incremental closeness");
    }
  }
}

TEST(CentralityEngine, EquidistantEdgeSweepsNothing) {
  // 4-cycle 0-1-2-3-0 with every node a pivot. The chord {0,2} joins nodes
  // equidistant from pivots 1 and 3, so exactly pivots 0 and 2 re-sweep.
  Graph graph(4);
  graph.add_edge(0, 1);
  graph.add_edge(1, 2);
  graph.add_edge(2, 3);
  graph.add_edge(3, 0);
  CentralityConfig config;
  config.mode = CentralityMode::kSampled;
  config.num_pivots = 4;
  CentralityEngine engine(config);
  engine.rebuild(graph);

  ASSERT_TRUE(graph.add_edge(0, 2));
  const std::vector<std::pair<NodeId, NodeId>> new_edges = {{0, 2}};
  engine.refresh(graph, new_edges);
  EXPECT_EQ(engine.last_refresh().sweeps, 2u);
  EXPECT_EQ(engine.last_refresh().affected_pivots, 2u);
  EXPECT_EQ(engine.last_refresh().dirty_vertices, 2u);
  EXPECT_FALSE(engine.last_refresh().full_rebuild);

  CentralityEngine fresh(config);
  fresh.rebuild(graph);
  expect_bitwise_equal(engine.betweenness(), fresh.betweenness(),
                       "post-chord betweenness");
  expect_bitwise_equal(engine.closeness(), fresh.closeness(),
                       "post-chord closeness");
}

TEST(CentralityEngine, RefreshBeforeRebuildFallsBackToFullRebuild) {
  const Graph graph = random_graph(40, 100, 9);
  CentralityConfig config;
  config.mode = CentralityMode::kSampled;
  config.num_pivots = 8;
  CentralityEngine engine(config);
  engine.refresh(graph, {});
  EXPECT_TRUE(engine.built());
  EXPECT_TRUE(engine.last_refresh().full_rebuild);
  EXPECT_EQ(engine.last_refresh().sweeps, 8u);
}

TEST(CentralityEngine, InvalidateDropsCaches) {
  const Graph graph = random_graph(40, 100, 10);
  CentralityConfig config;
  config.mode = CentralityMode::kSampled;
  config.num_pivots = 8;
  CentralityEngine engine(config);
  engine.rebuild(graph);
  EXPECT_TRUE(engine.built());
  engine.invalidate();
  EXPECT_FALSE(engine.built());
  engine.refresh(graph, {});
  EXPECT_TRUE(engine.last_refresh().full_rebuild);
}

TEST(CentralityEngine, OneShotHelpersMatchEngine) {
  const Graph graph = random_graph(60, 150, 31);
  CentralityConfig config;
  config.mode = CentralityMode::kSampled;
  config.num_pivots = 16;
  CentralityEngine engine(config);
  engine.rebuild(graph);
  expect_bitwise_equal(sampled_betweenness_centrality(graph, config),
                       engine.betweenness(), "one-shot betweenness");
  expect_bitwise_equal(sampled_closeness_centrality(graph, config),
                       engine.closeness(), "one-shot closeness");
}

#if FORUMCAST_OBS_ENABLED
TEST(CentralityEngine, EmitsObservabilityCounters) {
  // The sampled/incremental path's cost must be visible in netctl metrics:
  // full_refreshes on rebuild, sampled_pivots per sweep batch, and
  // dirty_vertices per incremental refresh.
  auto& registry = obs::MetricsRegistry::global();
  const auto full_before = registry.counter("centrality.full_refreshes").value();
  const auto pivots_before =
      registry.counter("centrality.sampled_pivots").value();
  const auto dirty_before =
      registry.counter("centrality.dirty_vertices").value();

  Graph graph = random_graph(80, 200, 41);
  CentralityConfig config;
  config.mode = CentralityMode::kSampled;
  config.num_pivots = 20;
  CentralityEngine engine(config);
  engine.rebuild(graph);
  const auto edges = random_new_edges(graph, 5, 42);
  engine.refresh(graph, edges);

  EXPECT_EQ(registry.counter("centrality.full_refreshes").value(),
            full_before + 1);
  EXPECT_GE(registry.counter("centrality.sampled_pivots").value(),
            pivots_before + config.num_pivots);
  EXPECT_GE(registry.counter("centrality.dirty_vertices").value(),
            dirty_before + 2);
}
#endif

// --- Bundle round trip of the knob ---

// A small pipeline fitted in sampled mode with a 17-pivot budget.
core::ForecastPipeline fit_sampled_pipeline(const forum::Dataset& dataset) {
  core::PipelineConfig config;
  config.extractor.lda.iterations = 10;
  config.answer.logistic.epochs = 10;
  config.vote.epochs = 5;
  config.timing.epochs = 4;
  config.survival_samples_per_thread = 2;
  config.extractor.centrality.mode = CentralityMode::kSampled;
  config.extractor.centrality.num_pivots = 17;
  config.extractor.centrality.seed = 99991;

  core::ForecastPipeline pipeline(config);
  pipeline.fit(dataset, dataset.questions_in_days(1, 25));
  return pipeline;
}

forum::Dataset bundle_dataset() {
  forum::GeneratorConfig gen;
  gen.num_users = 90;
  gen.num_questions = 90;
  gen.seed = 515;
  return forum::generate_forum(gen).dataset.preprocessed();
}

TEST(CentralityBundle, KnobRoundTripsThroughModelBundle) {
  const auto dataset = bundle_dataset();
  const auto pipeline = fit_sampled_pipeline(dataset);

  std::ostringstream out;
  pipeline.save(out);
  std::istringstream in(std::move(out).str());
  const auto loaded = core::ForecastPipeline::load(in, dataset);

  const CentralityConfig& restored =
      loaded.extractor().config().centrality;
  EXPECT_EQ(restored.mode, CentralityMode::kSampled);
  EXPECT_EQ(restored.num_pivots, 17u);
  EXPECT_EQ(restored.seed, 99991u);

  // The arrays themselves are stored verbatim, so the loaded extractor's
  // centralities match the saved ones bit-for-bit regardless of mode.
  expect_bitwise_equal(
      std::vector<double>(loaded.extractor().qa_betweenness().begin(),
                          loaded.extractor().qa_betweenness().end()),
      std::vector<double>(pipeline.extractor().qa_betweenness().begin(),
                          pipeline.extractor().qa_betweenness().end()),
      "loaded qa betweenness");
}

std::uint32_t load_le32(const std::string& bytes, std::size_t at) {
  std::uint32_t value = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    value |= std::uint32_t{static_cast<unsigned char>(bytes[at + i])} << (8 * i);
  }
  return value;
}

// Rewrites the pivot budget inside the bundle's centrality section and
// re-stamps that section's CRC, so only the loader's own checks can refuse
// the result. Frames are [u32 length][u32 crc][u32 kind, body] after the
// 8-byte header; the centrality body is u32 format, u8 mode, u64 pivots,
// u64 seed.
std::string with_pivot_budget(std::string bundle, std::uint64_t pivots) {
  for (std::size_t at = 8; at + 12 <= bundle.size();
       at += 8 + load_le32(bundle, at)) {
    if (load_le32(bundle, at + 8) !=
        static_cast<std::uint32_t>(artifact::SectionKind::kCentralityConfig)) {
      continue;
    }
    for (std::size_t i = 0; i < 8; ++i) {
      bundle[at + 17 + i] = static_cast<char>(pivots >> (8 * i));
    }
    const std::uint32_t crc = artifact::crc32(
        std::string_view(bundle).substr(at + 8, load_le32(bundle, at)));
    for (std::size_t i = 0; i < 4; ++i) {
      bundle[at + 4 + i] = static_cast<char>(crc >> (8 * i));
    }
    return bundle;
  }
  ADD_FAILURE() << "bundle has no centrality section";
  return bundle;
}

TEST(CentralityBundle, LoadRejectsZeroPivotBudget) {
  const auto dataset = bundle_dataset();
  std::ostringstream out;
  fit_sampled_pipeline(dataset).save(out);
  const std::string bundle = std::move(out).str();

  // Control: the rewrite itself yields a loadable bundle.
  std::istringstream patched(with_pivot_budget(bundle, 5));
  EXPECT_EQ(core::ForecastPipeline::load(patched, dataset)
                .extractor()
                .config()
                .centrality.num_pivots,
            5u);

  // A zero budget passes every CRC but would serve all-zero sampled
  // centralities; the loader names it instead.
  std::istringstream zero(with_pivot_budget(bundle, 0));
  try {
    core::ForecastPipeline::load(zero, dataset);
    ADD_FAILURE() << "expected CheckError";
  } catch (const util::CheckError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("num pivots"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace forumcast::graph
