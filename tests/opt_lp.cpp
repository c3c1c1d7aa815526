#include "opt_lp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.hpp"

namespace forumcast::opt {

namespace {

constexpr double kEps = 1e-9;

// Full-tableau simplex over columns [structural | slack/surplus | artificial].
class Tableau {
 public:
  Tableau(const LpProblem& problem) {
    const std::size_t n = problem.num_variables;
    FORUMCAST_CHECK(problem.objective.size() == n);
    for (const auto& c : problem.constraints) {
      FORUMCAST_CHECK(c.coefficients.size() == n);
    }
    const std::size_t m = problem.constraints.size();

    // Count auxiliary columns.
    std::size_t slack_count = 0;
    for (const auto& c : problem.constraints) {
      if (c.type != ConstraintType::Equal) ++slack_count;
    }
    num_structural_ = n;
    slack_begin_ = n;
    artificial_begin_ = n + slack_count;
    cols_ = artificial_begin_ + m;  // at most one artificial per row
    rows_ = m;

    a_.assign(rows_, std::vector<double>(cols_, 0.0));
    b_.assign(rows_, 0.0);
    basis_.assign(rows_, 0);
    artificial_in_row_.assign(rows_, false);

    std::size_t slack_idx = slack_begin_;
    for (std::size_t r = 0; r < m; ++r) {
      const Constraint& c = problem.constraints[r];
      double sign = 1.0;
      ConstraintType type = c.type;
      double rhs = c.rhs;
      // Normalize to rhs >= 0 by flipping the row.
      if (rhs < 0.0) {
        sign = -1.0;
        rhs = -rhs;
        if (type == ConstraintType::LessEqual) {
          type = ConstraintType::GreaterEqual;
        } else if (type == ConstraintType::GreaterEqual) {
          type = ConstraintType::LessEqual;
        }
      }
      for (std::size_t j = 0; j < n; ++j) a_[r][j] = sign * c.coefficients[j];
      b_[r] = rhs;

      switch (type) {
        case ConstraintType::LessEqual:
          a_[r][slack_idx] = 1.0;
          basis_[r] = slack_idx;
          ++slack_idx;
          break;
        case ConstraintType::GreaterEqual:
          a_[r][slack_idx] = -1.0;  // surplus
          ++slack_idx;
          a_[r][artificial_begin_ + r] = 1.0;
          basis_[r] = artificial_begin_ + r;
          artificial_in_row_[r] = true;
          break;
        case ConstraintType::Equal:
          a_[r][artificial_begin_ + r] = 1.0;
          basis_[r] = artificial_begin_ + r;
          artificial_in_row_[r] = true;
          break;
      }
    }
  }

  bool needs_phase1() const {
    return std::any_of(artificial_in_row_.begin(), artificial_in_row_.end(),
                       [](bool f) { return f; });
  }

  /// Minimizes the sum of artificial variables. Returns false if infeasible.
  bool phase1() {
    // Objective: minimize Σ artificials == maximize −Σ artificials.
    std::vector<double> cost(cols_, 0.0);
    for (std::size_t j = artificial_begin_; j < cols_; ++j) cost[j] = -1.0;
    const bool bounded = run(cost, /*restrict_artificials=*/false);
    FORUMCAST_CHECK_MSG(bounded, "phase-1 objective is always bounded");
    // Feasible iff all artificials are (numerically) zero.
    for (std::size_t r = 0; r < rows_; ++r) {
      if (basis_[r] >= artificial_begin_ && b_[r] > 1e-7) return false;
    }
    // Pivot any remaining degenerate artificial basics out if possible.
    for (std::size_t r = 0; r < rows_; ++r) {
      if (basis_[r] < artificial_begin_) continue;
      for (std::size_t j = 0; j < artificial_begin_; ++j) {
        if (std::abs(a_[r][j]) > kEps) {
          pivot(r, j);
          break;
        }
      }
    }
    return true;
  }

  /// Maximizes the structural objective. Returns false if unbounded.
  bool phase2(const std::vector<double>& objective) {
    std::vector<double> cost(cols_, 0.0);
    std::copy(objective.begin(), objective.end(), cost.begin());
    return run(cost, /*restrict_artificials=*/true);
  }

  std::vector<double> extract(std::size_t n) const {
    std::vector<double> x(n, 0.0);
    for (std::size_t r = 0; r < rows_; ++r) {
      if (basis_[r] < n) x[basis_[r]] = b_[r];
    }
    return x;
  }

 private:
  // Reduced cost of column j under basic costs implied by `cost`.
  // We recompute via the classic z_j − c_j using the current tableau, which
  // for the full-tableau method equals cᵦᵀ B⁻¹ A_j − c_j = Σ_r cost[basis_r]·a_[r][j] − cost[j].
  double reduced_cost(const std::vector<double>& cost, std::size_t j) const {
    double z = 0.0;
    for (std::size_t r = 0; r < rows_; ++r) z += cost[basis_[r]] * a_[r][j];
    return z - cost[j];
  }

  bool run(const std::vector<double>& cost, bool restrict_artificials) {
    const std::size_t usable_cols =
        restrict_artificials ? artificial_begin_ : cols_;
    for (std::size_t iter = 0; iter < 10000; ++iter) {
      // Bland's rule: the lowest-index column with negative reduced cost.
      std::size_t entering = cols_;
      for (std::size_t j = 0; j < usable_cols; ++j) {
        if (reduced_cost(cost, j) < -kEps) {
          entering = j;
          break;
        }
      }
      if (entering == cols_) return true;  // optimal

      // Ratio test; ties broken by the lowest basis index (Bland).
      std::size_t leaving = rows_;
      double best_ratio = std::numeric_limits<double>::infinity();
      for (std::size_t r = 0; r < rows_; ++r) {
        if (a_[r][entering] > kEps) {
          const double ratio = b_[r] / a_[r][entering];
          if (ratio < best_ratio - kEps ||
              (std::abs(ratio - best_ratio) <= kEps &&
               (leaving == rows_ || basis_[r] < basis_[leaving]))) {
            best_ratio = ratio;
            leaving = r;
          }
        }
      }
      if (leaving == rows_) return false;  // unbounded
      pivot(leaving, entering);
    }
    FORUMCAST_CHECK_MSG(false, "simplex iteration limit exceeded");
    return false;
  }

  void pivot(std::size_t row, std::size_t col) {
    const double pivot_value = a_[row][col];
    FORUMCAST_CHECK(std::abs(pivot_value) > kEps);
    const double inv = 1.0 / pivot_value;
    for (double& v : a_[row]) v *= inv;
    b_[row] *= inv;
    for (std::size_t r = 0; r < rows_; ++r) {
      if (r == row) continue;
      const double factor = a_[r][col];
      if (std::abs(factor) <= kEps) continue;
      for (std::size_t j = 0; j < cols_; ++j) a_[r][j] -= factor * a_[row][j];
      b_[r] -= factor * b_[row];
      a_[r][col] = 0.0;  // keep the column numerically clean
    }
    basis_[row] = col;
  }

  std::size_t rows_ = 0, cols_ = 0;
  std::size_t num_structural_ = 0, slack_begin_ = 0, artificial_begin_ = 0;
  std::vector<std::vector<double>> a_;
  std::vector<double> b_;
  std::vector<std::size_t> basis_;
  std::vector<bool> artificial_in_row_;
};

}  // namespace

LpSolution solve(const LpProblem& problem) {
  FORUMCAST_CHECK(problem.num_variables > 0);
  LpSolution solution;

  Tableau tableau(problem);
  if (tableau.needs_phase1() && !tableau.phase1()) {
    solution.status = LpStatus::Infeasible;
    return solution;
  }
  if (!tableau.phase2(problem.objective)) {
    solution.status = LpStatus::Unbounded;
    return solution;
  }
  solution.status = LpStatus::Optimal;
  solution.x = tableau.extract(problem.num_variables);
  solution.objective_value = 0.0;
  for (std::size_t j = 0; j < problem.num_variables; ++j) {
    solution.objective_value += problem.objective[j] * solution.x[j];
  }
  return solution;
}

RoutingSolution solve_routing_simplex(const RoutingProblem& problem) {
  FORUMCAST_CHECK(!problem.weights.empty());
  FORUMCAST_CHECK(problem.weights.size() == problem.capacities.size());
  for (double cap : problem.capacities) FORUMCAST_CHECK(cap >= 0.0);
  const std::size_t n = problem.weights.size();

  LpProblem lp;
  lp.num_variables = n;
  lp.objective = problem.weights;
  for (std::size_t u = 0; u < n; ++u) {
    Constraint upper;
    upper.coefficients.assign(n, 0.0);
    upper.coefficients[u] = 1.0;
    upper.type = ConstraintType::LessEqual;
    upper.rhs = problem.capacities[u];
    lp.constraints.push_back(std::move(upper));
  }
  Constraint mass;
  mass.coefficients.assign(n, 1.0);
  mass.type = ConstraintType::Equal;
  mass.rhs = 1.0;
  lp.constraints.push_back(std::move(mass));

  const LpSolution lp_solution = solve(lp);
  RoutingSolution solution;
  solution.probabilities.assign(n, 0.0);
  if (lp_solution.status != LpStatus::Optimal) return solution;
  solution.feasible = true;
  solution.probabilities = lp_solution.x;
  solution.objective_value = lp_solution.objective_value;
  return solution;
}

}  // namespace forumcast::opt
