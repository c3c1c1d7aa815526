#include "core/vote_predictor.hpp"

#include <cmath>
#include <numeric>

#include "ml/adam.hpp"
#include "ml/serialize.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace forumcast::core {

VotePredictor::VotePredictor(VotePredictorConfig config)
    : config_(std::move(config)) {
  FORUMCAST_CHECK(!config_.hidden_units.empty());
}

std::vector<ml::LayerSpec> VotePredictor::layer_specs(std::size_t) const {
  std::vector<ml::LayerSpec> specs;
  for (std::size_t units : config_.hidden_units) {
    specs.push_back({units, config_.hidden_activation});
  }
  specs.push_back({1, ml::Activation::Identity});
  return specs;
}

void VotePredictor::fit(std::span<const std::vector<double>> rows,
                        std::span<const double> targets) {
  FORUMCAST_CHECK(!rows.empty());
  FORUMCAST_CHECK(rows.size() == targets.size());
  FORUMCAST_SPAN_NAMED(fit_span, "vote.fit");

  scaler_.fit(rows);
  std::vector<std::vector<double>> scaled(rows.begin(), rows.end());
  scaler_.transform_in_place(scaled);

  if (config_.standardize_targets) {
    target_mean_ = util::mean(targets);
    target_scale_ = util::stddev(targets);
    if (target_scale_ < 1e-9) target_scale_ = 1.0;
  } else {
    target_mean_ = 0.0;
    target_scale_ = 1.0;
  }

  const std::size_t dim = rows.front().size();
  network_ = std::make_unique<ml::Mlp>(dim, layer_specs(dim), config_.seed);
  ml::Adam adam(network_->param_count(),
                {.learning_rate = config_.learning_rate,
                 .weight_decay = config_.weight_decay});

  std::vector<std::size_t> order(rows.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  util::Rng rng(config_.seed ^ 0xabcdefULL);

  ml::Matrix xbatch;
  const std::size_t batch = std::max<std::size_t>(1, config_.batch_size);
  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    FORUMCAST_SPAN("vote.epoch");
    double epoch_loss = 0.0;
    rng.shuffle(order);
    for (std::size_t start = 0; start < order.size(); start += batch) {
      const std::size_t end = std::min(order.size(), start + batch);
      network_->zero_grad();
      // One gemm-backed step per minibatch, samples in shuffle order.
      xbatch.resize(end - start, dim);
      for (std::size_t k = start; k < end; ++k) {
        const auto& src = scaled[order[k]];
        std::copy(src.begin(), src.end(), xbatch.row(k - start).begin());
      }
      network_->train_batch(
          xbatch, [&](ml::Tensor<const double> outputs,
                      ml::Tensor<double> grad_output) {
            for (std::size_t b = 0; b < outputs.rows(); ++b) {
              const std::size_t idx = order[start + b];
              const double standardized_target =
                  (targets[idx] - target_mean_) / target_scale_;
              const double residual = outputs(b, 0) - standardized_target;
              epoch_loss += 0.5 * residual * residual;
              // d/dŷ of ½(ŷ − y)², averaged over the batch.
              grad_output(b, 0) = residual / static_cast<double>(end - start);
            }
          });
      adam.step(network_->params(), network_->grads());
    }
    FORUMCAST_GAUGE_SET("vote.train_loss",
                        epoch_loss / static_cast<double>(rows.size()));
  }
  if (fit_span.active()) {
    fit_span.arg("rows", static_cast<double>(rows.size()));
    fit_span.arg("epochs", static_cast<double>(config_.epochs));
  }
  fitted_ = true;
}

double VotePredictor::predict(std::span<const double> features) const {
  double votes = 0.0;
  predict_batch(ml::one_row(features), {&votes, 1});
  return votes;
}

void VotePredictor::predict_batch(ml::Tensor<const double> rows,
                                  std::span<double> out) const {
  FORUMCAST_CHECK(fitted());
  FORUMCAST_CHECK(out.size() == rows.rows());
  // Scratch lives in the thread's workspace arena: transform_rows and
  // forward_batch_into overwrite every element they expose, so nothing
  // stale leaks through.
  ml::Workspace::Frame frame;
  ml::Workspace& ws = frame.workspace();
  ml::Tensor<double> scaled = ws.tensor<double>(rows.rows(), rows.cols());
  scaler_.transform_rows(rows, scaled);
  ml::Tensor<double> output = ws.tensor<double>(rows.rows(), 1);
  network_->forward_batch_into(scaled, output);
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    out[r] = output(r, 0) * target_scale_ + target_mean_;
  }
}

void VotePredictor::encode(artifact::Encoder& enc) const {
  FORUMCAST_CHECK_MSG(fitted(), "cannot encode an unfitted VotePredictor");
  enc.f64(target_mean_, "vote target mean");
  enc.f64(target_scale_, "vote target scale");
  ml::encode_scaler(scaler_, enc);
  ml::encode_mlp(*network_, enc);
}

VotePredictor VotePredictor::decode(artifact::Decoder& dec) {
  VotePredictor predictor;
  predictor.target_mean_ = dec.f64("vote target mean");
  predictor.target_scale_ = dec.f64("vote target scale");
  FORUMCAST_CHECK_MSG(predictor.target_scale_ > 0.0,
                      "vote target scale must be positive");
  predictor.scaler_ = ml::decode_scaler(dec);
  predictor.network_ = std::make_unique<ml::Mlp>(ml::decode_mlp(dec));
  FORUMCAST_CHECK_MSG(
      predictor.network_->input_dim() == predictor.scaler_.dimension() &&
          predictor.network_->output_dim() == 1,
      "vote predictor shape mismatch: scaler dimension "
          << predictor.scaler_.dimension() << ", network "
          << predictor.network_->input_dim() << " -> "
          << predictor.network_->output_dim());
  predictor.fitted_ = true;
  return predictor;
}

}  // namespace forumcast::core
