// Evaluation metrics of Sec. IV-A: AUC for the binary answering task and
// RMSE for the net-vote and response-time tasks.
#pragma once

#include <span>

namespace forumcast::eval {

/// Area under the ROC curve via the rank statistic (tie-aware):
/// AUC = (Σ ranks of positives − n₊(n₊+1)/2) / (n₊ n₋).
/// Requires at least one positive and one negative label.
double auc(std::span<const double> scores, std::span<const int> labels);

/// Root mean squared error; spans must be the same non-zero length.
double rmse(std::span<const double> predictions, std::span<const double> targets);

/// Relative improvement of `ours` over `baseline` in percent, oriented so
/// positive = better: for error metrics (RMSE) pass higher_is_better=false,
/// for AUC pass true.
double improvement_percent(double baseline, double ours, bool higher_is_better);

}  // namespace forumcast::eval
