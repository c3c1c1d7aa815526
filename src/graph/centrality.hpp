// Centrality measures for the SLN social features (Sec. II-B xv–xix).
//
// Closeness follows the paper's convention for disconnected graphs:
// l_u = (|U| − 1) / Σ_{v reachable} z_{u,v}, with unreachable pairs removed
// from the sum; isolated nodes get 0. Betweenness is Brandes' exact
// algorithm on the unweighted graph.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace forumcast::graph {

/// How centralities are computed and refreshed.
enum class CentralityMode : std::uint8_t {
  kExact = 0,    ///< full Brandes / all-source BFS; thread-count invariant
  kSampled = 1,  ///< pivot-sampled estimates + incremental dirty-region refresh
};

/// The exact↔sampled error/speed knob. Defaults to exact so every existing
/// digest (predictions, stream replay, bundles) is untouched; sampled mode
/// trades a bounded estimation error for O(pivots·E) refreshes instead of
/// O(V·E), plus incremental updates that re-sweep only affected pivots.
struct CentralityConfig {
  CentralityMode mode = CentralityMode::kExact;
  std::size_t num_pivots = 128;  ///< clamped to node count; k ≥ n ⇒ exact
  std::uint64_t seed = 0x5ce7a117u;  ///< pivot-stream seed
};

/// Draws `num_pivots` distinct node ids (ascending) from a counter-derived
/// splitmix64 stream keyed on (seed, epoch). Pure function of its arguments:
/// the same (node_count, num_pivots, seed, epoch) always yields the same
/// pivot set, independent of thread count or platform. `num_pivots` ≥
/// `node_count` returns every node.
std::vector<NodeId> sample_pivots(std::size_t node_count,
                                  std::size_t num_pivots, std::uint64_t seed,
                                  std::uint64_t epoch);

/// Closeness centrality for every node. With threads > 1 the per-source BFS
/// sweeps run in parallel; results are identical to the serial computation.
std::vector<double> closeness_centrality(const Graph& graph,
                                         std::size_t threads = 1);

/// Betweenness centrality for every node (undirected; each pair counted
/// once). Sources are split into a fixed set of slots, each summed in
/// source order and reduced in slot order; `threads` only spreads the slots
/// over workers, so the result is bit-identical at any thread count.
std::vector<double> betweenness_centrality(const Graph& graph,
                                           std::size_t threads = 1);

/// Scales values so the maximum is 1 (no-op on all-zero input).
std::vector<double> normalized_to_max(std::vector<double> values);

}  // namespace forumcast::graph
