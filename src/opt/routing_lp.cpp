#include "opt/routing_lp.hpp"

#include <algorithm>
#include <numeric>

#include "util/check.hpp"

namespace forumcast::opt {

RoutingSolution solve_routing(const RoutingProblem& problem) {
  FORUMCAST_CHECK(!problem.weights.empty());
  FORUMCAST_CHECK(problem.weights.size() == problem.capacities.size());
  for (double cap : problem.capacities) FORUMCAST_CHECK(cap >= 0.0);
  RoutingSolution solution;
  solution.probabilities.assign(problem.weights.size(), 0.0);

  const double total_capacity = std::accumulate(
      problem.capacities.begin(), problem.capacities.end(), 0.0);
  if (total_capacity < 1.0 - 1e-12) return solution;  // infeasible

  // Fill users in decreasing weight order until one unit of mass is placed.
  std::vector<std::size_t> order(problem.weights.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (problem.weights[a] != problem.weights[b]) {
      return problem.weights[a] > problem.weights[b];
    }
    return a < b;
  });
  double remaining = 1.0;
  for (std::size_t u : order) {
    const double take = std::min(remaining, problem.capacities[u]);
    solution.probabilities[u] = take;
    solution.objective_value += problem.weights[u] * take;
    remaining -= take;
    if (remaining <= 1e-15) break;
  }
  solution.feasible = true;
  return solution;
}

}  // namespace forumcast::opt
