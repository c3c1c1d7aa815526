// Ranking metrics for the question-routing view of the answer task.
//
// The recommender consumes the predictors as a *ranking* over candidate
// answerers per question, so besides the paper's pairwise AUC we evaluate
// precision@k / MRR / nDCG of the induced rankings. These power
// the extension bench `bench/ranking`.
#pragma once

#include <cstddef>
#include <span>

namespace forumcast::eval {

/// Fraction of the top-k scored items that are relevant (labels 0/1, aligned
/// with scores; ties broken by original order). Requires k >= 1 and at least
/// one item.
double precision_at_k(std::span<const double> scores,
                      std::span<const int> labels, std::size_t k);

/// Reciprocal rank of the first relevant item; 0 if none.
double reciprocal_rank(std::span<const double> scores,
                       std::span<const int> labels);

/// Normalized discounted cumulative gain at k with binary relevance.
/// 1.0 when all relevant items are ranked first; 0 when none are relevant.
double ndcg_at_k(std::span<const double> scores, std::span<const int> labels,
                 std::size_t k);

}  // namespace forumcast::eval
