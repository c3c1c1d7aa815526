// Pairwise topological link feature (Sec. II-B xx): the resource-allocation
// index between a candidate answerer and the asker in an SLN graph.
#pragma once

#include "graph/graph.hpp"

namespace forumcast::graph {

/// Resource allocation index Re_{u,v} = Σ_{n ∈ Γ(u) ∩ Γ(v)} 1/|Γ(n)|.
/// Zero when u and v share no neighbors (including the isolated case).
double resource_allocation_index(const Graph& graph, NodeId u, NodeId v);

}  // namespace forumcast::graph
