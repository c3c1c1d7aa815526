#include "graph/centrality.hpp"

#include <algorithm>
#include <queue>
#include <stack>
#include <vector>

#include "graph/brandes.hpp"
#include "obs/obs.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace forumcast::graph {

namespace detail {

namespace {

// Forward BFS phase shared by both sweep variants: shortest-path counts,
// hop distances, predecessor DAG, and the reverse finish order.
std::stack<NodeId> brandes_forward_pass(const Graph& graph, NodeId source,
                                        BrandesScratch& scratch) {
  std::fill(scratch.sigma.begin(), scratch.sigma.end(), 0.0);
  std::fill(scratch.delta.begin(), scratch.delta.end(), 0.0);
  std::fill(scratch.dist.begin(), scratch.dist.end(), -1LL);
  for (auto& preds : scratch.predecessors) preds.clear();

  scratch.sigma[source] = 1.0;
  scratch.dist[source] = 0;
  std::stack<NodeId> order;
  std::queue<NodeId> frontier;
  frontier.push(source);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    order.push(u);
    for (NodeId v : graph.neighbors(u)) {
      if (scratch.dist[v] < 0) {
        scratch.dist[v] = scratch.dist[u] + 1;
        frontier.push(v);
      }
      if (scratch.dist[v] == scratch.dist[u] + 1) {
        scratch.sigma[v] += scratch.sigma[u];
        scratch.predecessors[v].push_back(u);
      }
    }
  }
  return order;
}

}  // namespace

void brandes_source_sweep(const Graph& graph, NodeId source,
                          BrandesScratch& scratch) {
  std::stack<NodeId> order = brandes_forward_pass(graph, source, scratch);
  while (!order.empty()) {
    const NodeId w = order.top();
    order.pop();
    for (NodeId u : scratch.predecessors[w]) {
      scratch.delta[u] +=
          scratch.sigma[u] / scratch.sigma[w] * (1.0 + scratch.delta[w]);
    }
  }
}

void brandes_source_sweep_scaled(const Graph& graph, NodeId source,
                                 BrandesScratch& scratch) {
  std::stack<NodeId> order = brandes_forward_pass(graph, source, scratch);
  // Accumulate A_s(v) = sum over targets t of (sigma_st(v)/sigma_st)/d(s,t)
  // (per-target injection 1/d instead of 1), then scale by d(s,v): the
  // result is sum_t (sigma_st(v)/sigma_st) * d(s,v)/d(s,t). One divide per
  // node, not per DAG edge, keeps the sweep cost at parity with the
  // unscaled variant.
  while (!order.empty()) {
    const NodeId w = order.top();
    order.pop();
    const double inject =
        w == source ? 0.0 : 1.0 / static_cast<double>(scratch.dist[w]);
    for (NodeId u : scratch.predecessors[w]) {
      scratch.delta[u] +=
          scratch.sigma[u] / scratch.sigma[w] * (inject + scratch.delta[w]);
    }
  }
  const std::size_t n = graph.node_count();
  for (NodeId v = 0; v < n; ++v) {
    scratch.delta[v] = (v == source || scratch.dist[v] <= 0)
                           ? 0.0
                           : static_cast<double>(scratch.dist[v]) *
                                 scratch.delta[v];
  }
}

}  // namespace detail

namespace {

// Source slots of exact betweenness (fewer on graphs with fewer nodes).
constexpr std::size_t kBetweennessSlots = 64;

// Adds one finished sweep's dependency into the accumulator: one `+=` per
// element (unvisited nodes contribute an exact 0.0).
void accumulate_sweep(const detail::BrandesScratch& scratch, NodeId source,
                      std::vector<double>& betweenness) {
  for (NodeId w = 0; w < betweenness.size(); ++w) {
    if (w != source) betweenness[w] += scratch.delta[w];
  }
}

}  // namespace

std::vector<double> closeness_centrality(const Graph& graph,
                                         std::size_t threads) {
  const std::size_t n = graph.node_count();
  std::vector<double> closeness(n, 0.0);
  if (n < 2) return closeness;
  FORUMCAST_SPAN_NAMED(span, "graph.closeness");
  FORUMCAST_COUNTER_ADD("graph.bfs_sources", n);
  util::parallel_for_chunks(
      n,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t u = begin; u < end; ++u) {
          const auto dist = graph.bfs_distances(u);
          double total = 0.0;
          for (NodeId v = 0; v < n; ++v) {
            if (v == u || dist[v] == Graph::kUnreachable) continue;
            total += static_cast<double>(dist[v]);
          }
          if (total > 0.0) {
            closeness[u] = static_cast<double>(n - 1) / total;
          }
        }
      },
      threads);
  if (span.active()) {
    span.arg("nodes", static_cast<double>(n));
    const double seconds = span.elapsed_seconds();
    if (seconds > 0.0) {
      span.arg("sources_per_sec", static_cast<double>(n) / seconds);
    }
  }
  return closeness;
}

std::vector<double> betweenness_centrality(const Graph& graph,
                                           std::size_t threads) {
  const std::size_t n = graph.node_count();
  std::vector<double> betweenness(n, 0.0);
  if (n < 3) return betweenness;
  FORUMCAST_SPAN_NAMED(span, "graph.betweenness");
  FORUMCAST_COUNTER_ADD("graph.bfs_sources", n);
  // Sources are dealt round-robin into a fixed number of slots: slot s
  // sweeps s, s + slots, ... in ascending order into its own accumulator,
  // and the slots are summed in slot order. `threads` only decides which
  // worker runs a slot, so the bits are the same at any thread count.
  const std::size_t slots = std::min(kBetweennessSlots, n);
  std::vector<std::vector<double>> partials(slots,
                                            std::vector<double>(n, 0.0));
  util::parallel_for_chunks(
      slots,
      [&](std::size_t begin, std::size_t end) {
        detail::BrandesScratch scratch(n);
        for (std::size_t slot = begin; slot < end; ++slot) {
          for (std::size_t source = slot; source < n; source += slots) {
            detail::brandes_source_sweep(graph, static_cast<NodeId>(source),
                                         scratch);
            accumulate_sweep(scratch, static_cast<NodeId>(source),
                             partials[slot]);
          }
        }
      },
      threads);
  for (const auto& partial : partials) {
    for (std::size_t v = 0; v < n; ++v) betweenness[v] += partial[v];
  }
  // Each unordered pair is counted from both endpoints in an undirected graph.
  for (double& b : betweenness) b /= 2.0;
  if (span.active()) {
    span.arg("nodes", static_cast<double>(n));
    span.arg("slots", static_cast<double>(slots));
    const double seconds = span.elapsed_seconds();
    if (seconds > 0.0) {
      span.arg("sources_per_sec", static_cast<double>(n) / seconds);
    }
  }
  return betweenness;
}

std::vector<NodeId> sample_pivots(std::size_t node_count,
                                  std::size_t num_pivots, std::uint64_t seed,
                                  std::uint64_t epoch) {
  std::vector<NodeId> pivots;
  if (node_count == 0 || num_pivots == 0) return pivots;
  if (num_pivots >= node_count) {
    pivots.resize(node_count);
    for (NodeId v = 0; v < node_count; ++v) pivots[v] = v;
    return pivots;
  }
  // Counter-derived stream: the state starts at a (seed, epoch) mix and each
  // draw advances it by one splitmix64 step. Distinctness via rejection;
  // modulo bias is irrelevant here (pivots need to be deterministic and
  // well-spread, not perfectly uniform).
  std::uint64_t state = seed + 0x9e3779b97f4a7c15ULL * (epoch + 1);
  std::vector<std::uint8_t> taken(node_count, 0);
  pivots.reserve(num_pivots);
  while (pivots.size() < num_pivots) {
    const auto v =
        static_cast<NodeId>(util::splitmix64(state) % node_count);
    if (!taken[v]) {
      taken[v] = 1;
      pivots.push_back(v);
    }
  }
  // Ascending order fixes the accumulation order of per-pivot contributions,
  // which is what makes sampled results thread-count invariant.
  std::sort(pivots.begin(), pivots.end());
  return pivots;
}

std::vector<double> normalized_to_max(std::vector<double> values) {
  const auto it = std::max_element(values.begin(), values.end());
  if (it == values.end() || *it <= 0.0) return values;
  const double max_value = *it;
  for (double& v : values) v /= max_value;
  return values;
}

}  // namespace forumcast::graph
