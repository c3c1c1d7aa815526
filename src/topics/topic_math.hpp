// Arithmetic on topic distributions (probability vectors).
#pragma once

#include <span>
#include <vector>

namespace forumcast::topics {

/// Total-variation similarity s = 1 − ½‖a − b‖₁ ∈ [0, 1]; the topic-match
/// measure used by features (x), (xi), (xiii) of the paper.
double total_variation_similarity(std::span<const double> a,
                                  std::span<const double> b);

/// Uniform distribution of the given dimension.
std::vector<double> uniform_distribution(std::size_t dimension);

/// True if entries are non-negative and sum to 1 within `tolerance`.
bool is_distribution(std::span<const double> values, double tolerance = 1e-9);

}  // namespace forumcast::topics
