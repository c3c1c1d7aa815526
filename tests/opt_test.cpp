#include <gtest/gtest.h>

#include <vector>

#include "opt/routing_lp.hpp"
#include "opt_lp.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace forumcast::opt {
namespace {

// ---------- general simplex ----------

TEST(Simplex, SolvesTextbookMaximization) {
  // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → x=2, y=6, obj=36.
  LpProblem lp;
  lp.num_variables = 2;
  lp.objective = {3.0, 5.0};
  lp.constraints.push_back({{1.0, 0.0}, ConstraintType::LessEqual, 4.0});
  lp.constraints.push_back({{0.0, 2.0}, ConstraintType::LessEqual, 12.0});
  lp.constraints.push_back({{3.0, 2.0}, ConstraintType::LessEqual, 18.0});
  const auto solution = solve(lp);
  ASSERT_EQ(solution.status, LpStatus::Optimal);
  EXPECT_NEAR(solution.x[0], 2.0, 1e-9);
  EXPECT_NEAR(solution.x[1], 6.0, 1e-9);
  EXPECT_NEAR(solution.objective_value, 36.0, 1e-9);
}

TEST(Simplex, HandlesEqualityConstraints) {
  // max x + 2y s.t. x + y = 1, x,y ≥ 0 → y=1, obj=2.
  LpProblem lp;
  lp.num_variables = 2;
  lp.objective = {1.0, 2.0};
  lp.constraints.push_back({{1.0, 1.0}, ConstraintType::Equal, 1.0});
  const auto solution = solve(lp);
  ASSERT_EQ(solution.status, LpStatus::Optimal);
  EXPECT_NEAR(solution.x[1], 1.0, 1e-9);
  EXPECT_NEAR(solution.objective_value, 2.0, 1e-9);
}

TEST(Simplex, HandlesGreaterEqualConstraints) {
  // min x+y s.t. x+2y ≥ 4, 3x+y ≥ 6 ⇔ max −x−y. Optimum x=1.6, y=1.2.
  LpProblem lp;
  lp.num_variables = 2;
  lp.objective = {-1.0, -1.0};
  lp.constraints.push_back({{1.0, 2.0}, ConstraintType::GreaterEqual, 4.0});
  lp.constraints.push_back({{3.0, 1.0}, ConstraintType::GreaterEqual, 6.0});
  const auto solution = solve(lp);
  ASSERT_EQ(solution.status, LpStatus::Optimal);
  EXPECT_NEAR(solution.x[0], 1.6, 1e-9);
  EXPECT_NEAR(solution.x[1], 1.2, 1e-9);
}

TEST(Simplex, DetectsInfeasibility) {
  // x ≤ 1 and x ≥ 2 cannot hold.
  LpProblem lp;
  lp.num_variables = 1;
  lp.objective = {1.0};
  lp.constraints.push_back({{1.0}, ConstraintType::LessEqual, 1.0});
  lp.constraints.push_back({{1.0}, ConstraintType::GreaterEqual, 2.0});
  EXPECT_EQ(solve(lp).status, LpStatus::Infeasible);
}

TEST(Simplex, DetectsUnboundedness) {
  LpProblem lp;
  lp.num_variables = 1;
  lp.objective = {1.0};
  lp.constraints.push_back({{-1.0}, ConstraintType::LessEqual, 0.0});
  EXPECT_EQ(solve(lp).status, LpStatus::Unbounded);
}

TEST(Simplex, NegativeRhsNormalization) {
  // max −x s.t. −x ≤ −2 (i.e. x ≥ 2) → x = 2.
  LpProblem lp;
  lp.num_variables = 1;
  lp.objective = {-1.0};
  lp.constraints.push_back({{-1.0}, ConstraintType::LessEqual, -2.0});
  const auto solution = solve(lp);
  ASSERT_EQ(solution.status, LpStatus::Optimal);
  EXPECT_NEAR(solution.x[0], 2.0, 1e-9);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Classic degeneracy: multiple constraints active at the optimum.
  LpProblem lp;
  lp.num_variables = 2;
  lp.objective = {1.0, 1.0};
  lp.constraints.push_back({{1.0, 0.0}, ConstraintType::LessEqual, 1.0});
  lp.constraints.push_back({{1.0, 0.0}, ConstraintType::LessEqual, 1.0});
  lp.constraints.push_back({{0.0, 1.0}, ConstraintType::LessEqual, 1.0});
  lp.constraints.push_back({{1.0, 1.0}, ConstraintType::LessEqual, 2.0});
  const auto solution = solve(lp);
  ASSERT_EQ(solution.status, LpStatus::Optimal);
  EXPECT_NEAR(solution.objective_value, 2.0, 1e-9);
}

TEST(Simplex, ValidatesDimensions) {
  LpProblem lp;
  lp.num_variables = 2;
  lp.objective = {1.0};  // wrong size
  EXPECT_THROW(solve(lp), util::CheckError);
}

// ---------- routing LP ----------

TEST(RoutingLp, GreedyPicksBestUserWhenCapacitySuffices) {
  RoutingProblem problem;
  problem.weights = {1.0, 5.0, 3.0};
  problem.capacities = {1.0, 1.0, 1.0};
  const auto solution = solve_routing(problem);
  ASSERT_TRUE(solution.feasible);
  EXPECT_DOUBLE_EQ(solution.probabilities[1], 1.0);
  EXPECT_DOUBLE_EQ(solution.objective_value, 5.0);
}

TEST(RoutingLp, SpillsToSecondBestWhenCapped) {
  RoutingProblem problem;
  problem.weights = {4.0, 2.0, 1.0};
  problem.capacities = {0.6, 0.3, 1.0};
  const auto solution = solve_routing(problem);
  ASSERT_TRUE(solution.feasible);
  EXPECT_DOUBLE_EQ(solution.probabilities[0], 0.6);
  EXPECT_DOUBLE_EQ(solution.probabilities[1], 0.3);
  EXPECT_NEAR(solution.probabilities[2], 0.1, 1e-12);
  EXPECT_NEAR(solution.objective_value, 4.0 * 0.6 + 2.0 * 0.3 + 0.1, 1e-12);
}

TEST(RoutingLp, InfeasibleWhenTotalCapacityBelowOne) {
  RoutingProblem problem;
  problem.weights = {1.0, 1.0};
  problem.capacities = {0.4, 0.4};
  EXPECT_FALSE(solve_routing(problem).feasible);
  EXPECT_FALSE(solve_routing_simplex(problem).feasible);
}

TEST(RoutingLp, HandlesNegativeWeights) {
  // All-negative weights still must place one unit of mass.
  RoutingProblem problem;
  problem.weights = {-5.0, -1.0, -3.0};
  problem.capacities = {1.0, 0.5, 1.0};
  const auto solution = solve_routing(problem);
  ASSERT_TRUE(solution.feasible);
  EXPECT_DOUBLE_EQ(solution.probabilities[1], 0.5);  // best (least bad) first
  EXPECT_DOUBLE_EQ(solution.probabilities[2], 0.5);  // then next best
  EXPECT_DOUBLE_EQ(solution.probabilities[0], 0.0);
}

TEST(RoutingLp, ProbabilitiesSumToOne) {
  util::Rng rng(9);
  for (int trial = 0; trial < 30; ++trial) {
    RoutingProblem problem;
    const std::size_t n = 2 + rng.uniform_index(8);
    for (std::size_t i = 0; i < n; ++i) {
      problem.weights.push_back(rng.normal(0.0, 3.0));
      problem.capacities.push_back(rng.uniform(0.0, 1.0));
    }
    problem.capacities[0] += 1.0;  // ensure feasibility
    const auto solution = solve_routing(problem);
    ASSERT_TRUE(solution.feasible);
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_GE(solution.probabilities[i], -1e-12);
      EXPECT_LE(solution.probabilities[i], problem.capacities[i] + 1e-12);
      total += solution.probabilities[i];
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

// Property check: greedy closed form equals the general simplex optimum.
TEST(RoutingLp, GreedyMatchesSimplexOnRandomInstances) {
  util::Rng rng(21);
  for (int trial = 0; trial < 50; ++trial) {
    RoutingProblem problem;
    const std::size_t n = 2 + rng.uniform_index(10);
    for (std::size_t i = 0; i < n; ++i) {
      problem.weights.push_back(rng.normal(0.0, 2.0));
      problem.capacities.push_back(rng.uniform(0.05, 0.8));
    }
    problem.capacities[rng.uniform_index(n)] += 1.0;
    const auto greedy = solve_routing(problem);
    const auto simplex = solve_routing_simplex(problem);
    ASSERT_EQ(greedy.feasible, simplex.feasible) << "trial " << trial;
    if (greedy.feasible) {
      EXPECT_NEAR(greedy.objective_value, simplex.objective_value, 1e-6)
          << "trial " << trial;
    }
  }
}

TEST(RoutingLp, ValidatesInput) {
  EXPECT_THROW(solve_routing({{}, {}}), util::CheckError);
  EXPECT_THROW(solve_routing({{1.0}, {1.0, 2.0}}), util::CheckError);
  EXPECT_THROW(solve_routing({{1.0}, {-0.1}}), util::CheckError);
}

}  // namespace
}  // namespace forumcast::opt
