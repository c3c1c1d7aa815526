#include "graph/link_features.hpp"

namespace forumcast::graph {

double resource_allocation_index(const Graph& graph, NodeId u, NodeId v) {
  // Merge-walk the sorted adjacency lists; each common neighbor n adds
  // 1/|Γ(n)|.
  const auto a = graph.neighbors(u);
  const auto b = graph.neighbors(v);
  double index = 0.0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      const auto deg = graph.degree(a[i]);
      if (deg > 0) index += 1.0 / static_cast<double>(deg);
      ++i;
      ++j;
    }
  }
  return index;
}

}  // namespace forumcast::graph
