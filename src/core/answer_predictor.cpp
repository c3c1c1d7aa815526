#include "core/answer_predictor.hpp"

#include "ml/serialize.hpp"
#include "ml/workspace.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"

namespace forumcast::core {

AnswerPredictor::AnswerPredictor(AnswerPredictorConfig config)
    : config_(config), model_(config.logistic) {}

void AnswerPredictor::fit(std::span<const std::vector<double>> rows,
                          std::span<const int> labels) {
  FORUMCAST_CHECK(!rows.empty());
  FORUMCAST_SPAN_NAMED(fit_span, "answer.fit");
  fit_span.arg("rows", static_cast<double>(rows.size()));
  scaler_.fit(rows);
  std::vector<std::vector<double>> scaled(rows.begin(), rows.end());
  scaler_.transform_in_place(scaled);
  model_ = ml::LogisticRegression(config_.logistic);
  model_.fit(scaled, labels);
}

double AnswerPredictor::predict_probability(std::span<const double> features) const {
  double probability = 0.0;
  predict_probability_batch(ml::one_row(features), {&probability, 1});
  return probability;
}

void AnswerPredictor::predict_probability_batch(ml::Tensor<const double> rows,
                                                std::span<double> out) const {
  FORUMCAST_CHECK(fitted());
  FORUMCAST_CHECK(out.size() == rows.rows());
  ml::Workspace::Frame frame;
  std::span<double> scaled{frame.workspace().alloc<double>(rows.cols()),
                           rows.cols()};
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    scaler_.transform_into(rows.row(r), scaled);
    out[r] = model_.predict_probability(scaled);
  }
}

void AnswerPredictor::encode(artifact::Encoder& enc) const {
  FORUMCAST_CHECK_MSG(fitted(), "cannot encode an unfitted AnswerPredictor");
  ml::encode_scaler(scaler_, enc);
  ml::encode_logistic(model_, enc);
}

AnswerPredictor AnswerPredictor::decode(artifact::Decoder& dec) {
  AnswerPredictor predictor;
  predictor.scaler_ = ml::decode_scaler(dec);
  predictor.model_ = ml::decode_logistic(dec);
  FORUMCAST_CHECK_MSG(
      predictor.model_.weights().size() == predictor.scaler_.dimension(),
      "answer predictor shape mismatch: scaler dimension "
          << predictor.scaler_.dimension() << ", logistic weight count "
          << predictor.model_.weights().size());
  return predictor;
}

}  // namespace forumcast::core
