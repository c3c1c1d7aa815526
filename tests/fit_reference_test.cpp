// The vote and timing trainers against per-sample references.
//
// Each predictor fits with one layout: a gemm-backed forward and backward per
// minibatch (Mlp::train_batch / forward_batch / backward_batch). The
// references below restate each fit with the per-sample Mlp::Tape
// forward()/backward() pair, one row at a time, and with the timing
// likelihood's gradient assembled per row from its own formulas. Every
// fitted parameter must match bit for bit, read back from the predictor's
// bundle encoding.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "artifact/artifact.hpp"
#include "core/timing_predictor.hpp"
#include "core/vote_predictor.hpp"
#include "ml/activations.hpp"
#include "ml/adam.hpp"
#include "ml/mlp.hpp"
#include "ml/scaler.hpp"
#include "ml/serialize.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace forumcast {
namespace {

void expect_bits_equal(std::span<const double> actual,
                       std::span<const double> expected, const char* what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(actual[i]),
              std::bit_cast<std::uint64_t>(expected[i]))
        << what << " parameter " << i;
  }
}

// ---------- vote ----------

struct VoteReference {
  ml::StandardScaler scaler;
  std::unique_ptr<ml::Mlp> net;
  double target_mean = 0.0;
  double target_scale = 1.0;
};

/// VotePredictor::fit restated per sample: minibatch Adam on ½(ŷ − y)² over
/// standardized targets, each sample's gradient backpropagated on its own.
VoteReference fit_vote_reference(const core::VotePredictorConfig& config,
                                 const std::vector<std::vector<double>>& rows,
                                 const std::vector<double>& targets) {
  VoteReference ref;
  ref.scaler.fit(rows);
  std::vector<std::vector<double>> scaled = rows;
  ref.scaler.transform_in_place(scaled);
  ref.target_mean = util::mean(targets);
  ref.target_scale = util::stddev(targets);
  if (ref.target_scale < 1e-9) ref.target_scale = 1.0;

  std::vector<ml::LayerSpec> specs;
  for (std::size_t units : config.hidden_units) {
    specs.push_back({units, config.hidden_activation});
  }
  specs.push_back({1, ml::Activation::Identity});
  ref.net = std::make_unique<ml::Mlp>(rows.front().size(), specs, config.seed);
  ml::Adam adam(ref.net->param_count(),
                {.learning_rate = config.learning_rate,
                 .weight_decay = config.weight_decay});

  std::vector<std::size_t> order(rows.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  util::Rng rng(config.seed ^ 0xabcdefULL);
  ml::Mlp::Tape tape;
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    rng.shuffle(order);
    for (std::size_t start = 0; start < order.size();
         start += config.batch_size) {
      const std::size_t end = std::min(order.size(), start + config.batch_size);
      ref.net->zero_grad();
      for (std::size_t k = start; k < end; ++k) {
        const std::size_t idx = order[k];
        const double y = (targets[idx] - ref.target_mean) / ref.target_scale;
        const double residual = ref.net->forward(scaled[idx], tape)[0] - y;
        ref.net->backward(tape, std::vector<double>{
                                    residual / static_cast<double>(end - start)});
      }
      adam.step(ref.net->params(), ref.net->grads());
    }
  }
  return ref;
}

TEST(FitReferenceVote, MatchesPerSampleReferenceBitwise) {
  util::Rng rng(71);
  std::vector<std::vector<double>> rows;
  std::vector<double> targets;
  for (std::size_t i = 0; i < 120; ++i) {
    std::vector<double> row(7);
    double score = 0.0;
    for (std::size_t c = 0; c < row.size(); ++c) {
      row[c] = rng.normal(0.0, 1.0);
      score += (c % 2 == 0 ? 1.0 : -0.5) * row[c];
    }
    targets.push_back(std::floor(std::exp(0.3 * score)));
    rows.push_back(std::move(row));
  }
  core::VotePredictorConfig config;
  config.hidden_units = {10, 6};
  config.epochs = 8;
  config.batch_size = 32;  // 120 rows: the last minibatch is partial
  config.seed = 21;

  core::VotePredictor predictor(config);
  predictor.fit(rows, targets);
  const VoteReference ref = fit_vote_reference(config, rows, targets);

  artifact::Encoder enc;
  predictor.encode(enc);
  artifact::Decoder dec(enc.bytes(), "vote predictor");
  const double target_mean = dec.f64("vote target mean");
  const double target_scale = dec.f64("vote target scale");
  EXPECT_EQ(std::bit_cast<std::uint64_t>(target_mean),
            std::bit_cast<std::uint64_t>(ref.target_mean));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(target_scale),
            std::bit_cast<std::uint64_t>(ref.target_scale));
  ml::decode_scaler(dec);
  const ml::Mlp net = ml::decode_mlp(dec);
  dec.finish();
  expect_bits_equal(net.params(), ref.net->params(), "vote network");
}

// ---------- timing ----------

constexpr double kMuFloor = 1e-6;
constexpr double kOmegaFloor = 1e-4;

// A(ω) = (1 − e^{−ωΔ})/ω and dA/dω: the library's helpers, which
// SurvivalIntegral.MatchesLongDoubleQuadrature pins to a reference.
using core::survival_integral;
using core::survival_integral_domega;

struct TimingReference {
  std::unique_ptr<ml::Mlp> f_net;
  std::unique_ptr<ml::Mlp> g_net;  ///< null for constant ω
  double omega_rho = 0.0;
};

/// TimingPredictor::fit restated per sample: every event row runs its own
/// taped forward through f_Θ (and g_Θ), gets dLoss/dμ and dLoss/dω of the
/// thread negative log-likelihood, and backpropagates on its own. Constant ω
/// trains ρ through ω = softplus(ρ) + floor.
TimingReference fit_timing_reference(
    const core::TimingPredictorConfig& config,
    const std::vector<core::TimingThread>& threads) {
  std::vector<std::vector<double>> all_rows;
  for (const auto& thread : threads) {
    for (const auto& answer : thread.answers) all_rows.push_back(answer.features);
    for (const auto& sample : thread.survival) all_rows.push_back(sample.features);
  }
  ml::StandardScaler scaler;
  scaler.fit(all_rows);
  const std::size_t dim = all_rows.front().size();

  const auto make_net = [&](const std::vector<std::size_t>& hidden,
                            std::uint64_t seed) {
    std::vector<ml::LayerSpec> specs;
    for (std::size_t units : hidden) specs.push_back({units, ml::Activation::Tanh});
    specs.push_back({1, ml::Activation::Softplus});
    return std::make_unique<ml::Mlp>(dim, std::move(specs), seed);
  };
  TimingReference ref;
  ref.f_net = make_net(config.f_hidden, config.seed);
  if (config.learn_omega) {
    ref.g_net = make_net(config.g_hidden, config.seed ^ 0x777ULL);
  } else {
    ref.omega_rho = std::log(
        std::expm1(std::max(config.constant_omega - kOmegaFloor, 1e-6)));
  }
  ml::Adam f_adam(ref.f_net->param_count(),
                  {.learning_rate = config.learning_rate});
  std::unique_ptr<ml::Adam> g_adam;
  if (ref.g_net) {
    g_adam = std::make_unique<ml::Adam>(
        ref.g_net->param_count(),
        ml::AdamConfig{.learning_rate = config.learning_rate});
  }
  ml::Adam rho_adam(1, {.learning_rate = config.learning_rate});

  std::vector<std::size_t> order(threads.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  util::Rng rng(config.seed ^ 0x51adULL);
  ml::Mlp::Tape f_tape, g_tape;
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    rng.shuffle(order);
    for (std::size_t start = 0; start < order.size();
         start += config.batch_size) {
      const std::size_t end = std::min(order.size(), start + config.batch_size);
      ref.f_net->zero_grad();
      if (ref.g_net) ref.g_net->zero_grad();
      double rho_grad = 0.0;
      const double inv = 1.0 / static_cast<double>(end - start);
      // One event row: its rates, then the loss gradient w.r.t. μ and ω
      // backpropagated through f_Θ and g_Θ (or folded into ρ).
      const auto step_row = [&](const std::vector<double>& raw, double delta,
                                bool answer, double value) {
        const std::vector<double> x = scaler.transform(raw);
        const double mu = ref.f_net->forward(x, f_tape)[0] + kMuFloor;
        const double omega =
            ref.g_net ? ref.g_net->forward(x, g_tape)[0] + kOmegaFloor
                      : ml::softplus(ref.omega_rho) + kOmegaFloor;
        double dloss_dmu = 0.0, dloss_domega = 0.0;
        if (answer) {  // loss −= log μ − ω·delay
          dloss_dmu = -inv / mu;
          dloss_domega = inv * value;
        } else {  // loss += w · μ · A(ω)
          dloss_dmu = inv * value * survival_integral(omega, delta);
          dloss_domega = inv * value * mu * survival_integral_domega(omega, delta);
        }
        ref.f_net->backward(f_tape, std::vector<double>{dloss_dmu});
        if (ref.g_net) {
          ref.g_net->backward(g_tape, std::vector<double>{dloss_domega});
        } else if (config.train_constant_omega) {
          rho_grad += dloss_domega * ml::sigmoid(ref.omega_rho);
        }
      };
      for (std::size_t k = start; k < end; ++k) {
        const core::TimingThread& thread = threads[order[k]];
        for (const auto& answer : thread.answers) {
          step_row(answer.features, thread.open_duration, true, answer.delay);
        }
        for (const auto& sample : thread.survival) {
          step_row(sample.features, thread.open_duration, false, sample.weight);
        }
      }
      f_adam.step(ref.f_net->params(), ref.f_net->grads());
      if (ref.g_net) {
        g_adam->step(ref.g_net->params(), ref.g_net->grads());
      } else if (config.train_constant_omega) {
        rho_adam.step(std::span<double>(&ref.omega_rho, 1),
                      std::span<const double>(&rho_grad, 1));
      }
    }
  }
  return ref;
}

std::vector<core::TimingThread> make_timing_threads(std::size_t n,
                                                    std::size_t dim,
                                                    std::uint64_t seed) {
  std::vector<core::TimingThread> threads;
  util::Rng rng(seed);
  for (std::size_t t = 0; t < n; ++t) {
    core::TimingThread thread;
    thread.open_duration = 24.0 + rng.uniform(0.0, 48.0);
    const std::size_t answers = 1 + rng.uniform_index(3);
    for (std::size_t a = 0; a < answers; ++a) {
      core::TimingThread::Answer answer;
      for (std::size_t c = 0; c < dim; ++c) {
        answer.features.push_back(rng.normal(0.0, 1.0));
      }
      answer.delay = rng.uniform(0.1, thread.open_duration);
      thread.answers.push_back(std::move(answer));
    }
    for (std::size_t s = 0; s < 3; ++s) {
      core::TimingThread::SurvivalSample sample;
      for (std::size_t c = 0; c < dim; ++c) {
        sample.features.push_back(rng.normal(0.0, 1.0));
      }
      sample.weight = 1.0 + rng.uniform(0.0, 5.0);
      thread.survival.push_back(std::move(sample));
    }
    threads.push_back(std::move(thread));
  }
  return threads;
}

class FitReferenceTiming : public ::testing::TestWithParam<bool> {};

TEST_P(FitReferenceTiming, MatchesPerSampleReferenceBitwise) {
  const bool learn_omega = GetParam();
  const auto data = make_timing_threads(14, 5, 83);

  core::TimingPredictorConfig config;
  config.f_hidden = {12, 6};
  config.g_hidden = {10, 5};
  config.learn_omega = learn_omega;
  config.epochs = 6;
  config.batch_size = 4;  // 14 threads: the last minibatch is partial
  config.seed = 29;

  core::TimingPredictor predictor(config);
  predictor.fit(data);
  const TimingReference ref = fit_timing_reference(config, data);

  artifact::Encoder enc;
  predictor.encode(enc);
  artifact::Decoder dec(enc.bytes(), "timing predictor");
  dec.boolean("timing expectation kind");
  dec.f64("timing calibration offset");
  dec.f64("timing calibration slope");
  dec.f64("timing mean open duration");
  ASSERT_EQ(dec.boolean("timing omega kind"), learn_omega);
  const double omega_rho = dec.f64("timing omega rho");
  ml::decode_scaler(dec);
  const ml::Mlp f_net = ml::decode_mlp(dec);
  expect_bits_equal(f_net.params(), ref.f_net->params(), "excitation network");
  if (learn_omega) {
    const ml::Mlp g_net = ml::decode_mlp(dec);
    expect_bits_equal(g_net.params(), ref.g_net->params(), "decay network");
  } else {
    // ρ moved off its initial value, so the constant-ω gradient was trained.
    EXPECT_NE(ref.omega_rho,
              std::log(std::expm1(config.constant_omega - kOmegaFloor)));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(omega_rho),
              std::bit_cast<std::uint64_t>(ref.omega_rho));
  }
  dec.finish();
}

INSTANTIATE_TEST_SUITE_P(LearnedAndConstantOmega, FitReferenceTiming,
                         ::testing::Bool());

}  // namespace
}  // namespace forumcast
