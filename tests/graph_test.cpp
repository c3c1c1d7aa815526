#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "graph/centrality.hpp"
#include "graph/graph.hpp"
#include "graph/link_features.hpp"
#include "util/check.hpp"

namespace forumcast::graph {
namespace {

Graph path_graph(std::size_t n) {
  Graph g(n);
  for (std::size_t i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  return g;
}

Graph star_graph(std::size_t leaves) {
  Graph g(leaves + 1);
  for (std::size_t i = 1; i <= leaves; ++i) g.add_edge(0, i);
  return g;
}

// ---------- basic structure ----------

TEST(Graph, AddEdgeDeduplicatesAndIgnoresSelfLoops) {
  Graph g(3);
  EXPECT_TRUE(g.add_edge(0, 1));
  EXPECT_FALSE(g.add_edge(1, 0));  // duplicate (undirected)
  EXPECT_FALSE(g.add_edge(2, 2));  // self loop
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(Graph, NeighborsAreSorted) {
  Graph g(5);
  g.add_edge(2, 4);
  g.add_edge(2, 0);
  g.add_edge(2, 3);
  const auto n = g.neighbors(2);
  ASSERT_EQ(n.size(), 3u);
  EXPECT_EQ(n[0], 0u);
  EXPECT_EQ(n[1], 3u);
  EXPECT_EQ(n[2], 4u);
}

TEST(Graph, DegreeAndAverageDegree) {
  Graph g = star_graph(4);
  EXPECT_EQ(g.degree(0), 4u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_DOUBLE_EQ(g.average_degree(), 2.0 * 4 / 5);
}

TEST(Graph, OutOfRangeThrows) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 5), util::CheckError);
  EXPECT_THROW(g.degree(2), util::CheckError);
  EXPECT_THROW(g.neighbors(9), util::CheckError);
}

// ---------- BFS / components ----------

TEST(Graph, BfsDistancesOnPath) {
  const Graph g = path_graph(5);
  const auto dist = g.bfs_distances(0);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(dist[i], i);
}

TEST(Graph, BfsUnreachableMarked) {
  Graph g(4);
  g.add_edge(0, 1);
  const auto dist = g.bfs_distances(0);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], Graph::kUnreachable);
  EXPECT_EQ(dist[3], Graph::kUnreachable);
}

TEST(Graph, ConnectedComponents) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  std::size_t count = 0;
  const auto comp = g.connected_components(count);
  EXPECT_EQ(count, 3u);  // {0,1,2}, {3,4}, {5}
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[1], comp[2]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[3]);
  EXPECT_NE(comp[3], comp[5]);
  EXPECT_EQ(g.largest_component_size(), 3u);
}

// ---------- closeness ----------

TEST(Centrality, ClosenessOnStar) {
  const Graph g = star_graph(4);
  const auto closeness = closeness_centrality(g);
  // Center: distances all 1 → (5−1)/4 = 1. Leaves: 1+2+2+2=7 → 4/7.
  EXPECT_NEAR(closeness[0], 1.0, 1e-12);
  for (std::size_t i = 1; i <= 4; ++i) EXPECT_NEAR(closeness[i], 4.0 / 7.0, 1e-12);
}

TEST(Centrality, ClosenessDisconnectedUsesReachableOnly) {
  Graph g(4);
  g.add_edge(0, 1);  // component {0,1}; 2,3 isolated
  const auto closeness = closeness_centrality(g);
  // Paper convention: unreachable terms removed → (n−1)/dist_sum = 3/1.
  EXPECT_NEAR(closeness[0], 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(closeness[2], 0.0);  // isolated → 0
}

TEST(Centrality, ClosenessTinyGraphs) {
  EXPECT_TRUE(closeness_centrality(Graph(0)).empty());
  const auto single = closeness_centrality(Graph(1));
  EXPECT_DOUBLE_EQ(single[0], 0.0);
}

// ---------- betweenness ----------

TEST(Centrality, BetweennessOnPath) {
  const Graph g = path_graph(5);
  const auto b = betweenness_centrality(g);
  // Path 0-1-2-3-4: b(0)=b(4)=0, b(1)=b(3)=3, b(2)=4.
  EXPECT_NEAR(b[0], 0.0, 1e-12);
  EXPECT_NEAR(b[1], 3.0, 1e-12);
  EXPECT_NEAR(b[2], 4.0, 1e-12);
  EXPECT_NEAR(b[3], 3.0, 1e-12);
  EXPECT_NEAR(b[4], 0.0, 1e-12);
}

TEST(Centrality, BetweennessOnStar) {
  const Graph g = star_graph(4);
  const auto b = betweenness_centrality(g);
  // Center lies on all C(4,2)=6 leaf pairs.
  EXPECT_NEAR(b[0], 6.0, 1e-12);
  for (std::size_t i = 1; i <= 4; ++i) EXPECT_NEAR(b[i], 0.0, 1e-12);
}

TEST(Centrality, BetweennessSplitsOverParallelShortestPaths) {
  // Square 0-1-2-3-0: two shortest paths between opposite corners.
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 0);
  const auto b = betweenness_centrality(g);
  // Each node carries half of one opposite pair: 0.5.
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(b[i], 0.5, 1e-12);
}

TEST(Centrality, BetweennessDisconnectedIsFinite) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const auto b = betweenness_centrality(g);
  EXPECT_NEAR(b[1], 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(b[3], 0.0);
}

TEST(Centrality, NormalizedToMax) {
  const auto normalized = normalized_to_max({2.0, 4.0, 1.0});
  EXPECT_DOUBLE_EQ(normalized[1], 1.0);
  EXPECT_DOUBLE_EQ(normalized[0], 0.5);
  const auto zeros = normalized_to_max({0.0, 0.0});
  EXPECT_DOUBLE_EQ(zeros[0], 0.0);
}

// ---------- link features ----------

TEST(LinkFeatures, ResourceAllocationIndex) {
  // 0 and 1 share neighbors 2 (degree 3) and 3 (degree 2).
  Graph g(5);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  g.add_edge(2, 4);
  g.add_edge(0, 3);
  g.add_edge(1, 3);
  EXPECT_NEAR(resource_allocation_index(g, 0, 1), 1.0 / 3.0 + 1.0 / 2.0, 1e-12);
}

TEST(LinkFeatures, ResourceAllocationNoCommonNeighbors) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_DOUBLE_EQ(resource_allocation_index(g, 0, 2), 0.0);
  EXPECT_DOUBLE_EQ(resource_allocation_index(g, 0, 3), 0.0);
}

}  // namespace
}  // namespace forumcast::graph
