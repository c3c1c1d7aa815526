// The question-routing optimization of paper eq. (2):
//
//   maximize_p  Σ_u (v̂_u − λ r̂_u) · p_u
//   subject to  0 ≤ p_u ≤ cap_u  for all eligible u,   Σ_u p_u = 1.
//
// `cap_u` is the user's remaining answering budget c_u minus answers given in
// the recent window. The box-plus-simplex structure has a closed-form greedy
// optimum (fill the highest-weight users first), which `solve_routing`
// computes; no general LP solver is needed. The tests cross-check it against
// a general simplex solver of their own.
#pragma once

#include <cstddef>
#include <vector>

namespace forumcast::opt {

struct RoutingProblem {
  std::vector<double> weights;     ///< v̂_u − λ·r̂_u per eligible user
  std::vector<double> capacities;  ///< remaining budget per user, ≥ 0
};

struct RoutingSolution {
  bool feasible = false;
  std::vector<double> probabilities;  ///< p_u, sums to 1 when feasible
  double objective_value = 0.0;
};

/// Closed-form greedy optimum (O(n log n)). Infeasible iff Σ cap < 1.
RoutingSolution solve_routing(const RoutingProblem& problem);

}  // namespace forumcast::opt
