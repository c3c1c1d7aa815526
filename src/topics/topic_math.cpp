#include "topics/topic_math.hpp"

#include <cmath>
#include <numeric>

#include "util/check.hpp"

namespace forumcast::topics {

double total_variation_similarity(std::span<const double> a,
                                  std::span<const double> b) {
  FORUMCAST_CHECK(a.size() == b.size());
  FORUMCAST_CHECK(!a.empty());
  double l1 = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) l1 += std::abs(a[i] - b[i]);
  return 1.0 - 0.5 * l1;
}

std::vector<double> uniform_distribution(std::size_t dimension) {
  FORUMCAST_CHECK(dimension > 0);
  return std::vector<double>(dimension, 1.0 / static_cast<double>(dimension));
}

bool is_distribution(std::span<const double> values, double tolerance) {
  if (values.empty()) return false;
  double total = 0.0;
  for (double v : values) {
    if (v < -tolerance) return false;
    total += v;
  }
  return std::abs(total - 1.0) <= tolerance;
}

}  // namespace forumcast::topics
