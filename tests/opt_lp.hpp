// Dense two-phase primal simplex solver, test-only.
//
// Solves   maximize cᵀx   subject to   Ax {≤,=,≥} b,  x ≥ 0.
// Small and exact enough for the per-question routing LP of paper eq. (2)
// (a handful of variables and constraints); Bland's rule guards against
// cycling. Not intended for large sparse programs. It exists to cross-check
// the closed-form greedy optimum of opt::solve_routing, which is the only
// routing solver the library ships.
#pragma once

#include <cstddef>
#include <vector>

#include "opt/routing_lp.hpp"

namespace forumcast::opt {

enum class ConstraintType { LessEqual, Equal, GreaterEqual };

struct Constraint {
  std::vector<double> coefficients;  ///< one per variable
  ConstraintType type = ConstraintType::LessEqual;
  double rhs = 0.0;
};

struct LpProblem {
  std::size_t num_variables = 0;
  std::vector<double> objective;  ///< maximize objectiveᵀ x
  std::vector<Constraint> constraints;
};

enum class LpStatus { Optimal, Infeasible, Unbounded };

struct LpSolution {
  LpStatus status = LpStatus::Infeasible;
  std::vector<double> x;
  double objective_value = 0.0;
};

/// Solves the LP. Throws util::CheckError on malformed input
/// (dimension mismatches); infeasibility/unboundedness are reported in status.
LpSolution solve(const LpProblem& problem);

/// The routing problem of opt::solve_routing posed as a general LP and
/// solved by the simplex above.
RoutingSolution solve_routing_simplex(const RoutingProblem& problem);

}  // namespace forumcast::opt
