#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "core/timing_predictor.hpp"
#include "ml/matrix.hpp"
#include "eval/metrics.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace forumcast::core {
namespace {

// Builds synthetic point-process training threads where the true delay is
// exponential with a rate determined by the (single) feature: fast pairs
// (x = 1) answer with mean `fast_mean`, slow pairs (x = 0) with `slow_mean`.
std::vector<TimingThread> synthetic_threads(std::size_t count, double fast_mean,
                                            double slow_mean,
                                            std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<TimingThread> threads;
  const double horizon = 200.0;
  for (std::size_t i = 0; i < count; ++i) {
    TimingThread thread;
    thread.open_duration = horizon;
    const bool fast = (i % 2 == 0);
    const double mean = fast ? fast_mean : slow_mean;
    double delay = rng.exponential(1.0 / mean);
    delay = std::min(delay, horizon * 0.9);
    thread.answers.push_back({{fast ? 1.0 : 0.0, 1.0}, delay});
    thread.survival.push_back({{fast ? 1.0 : 0.0, 1.0}, 1.0});
    // A couple of non-answering users with the opposite feature.
    thread.survival.push_back({{fast ? 0.0 : 1.0, 0.0}, 5.0});
    threads.push_back(std::move(thread));
  }
  return threads;
}

TEST(TimingPredictor, LearnedOmegaSeparatesFastAndSlowPairs) {
  const auto threads = synthetic_threads(300, 1.0, 40.0, 3);
  TimingPredictorConfig config;
  config.epochs = 40;
  config.seed = 1;
  TimingPredictor predictor(config);
  predictor.fit(threads);

  const double fast = predictor.predict_delay(std::vector<double>{1.0, 1.0}, 200.0);
  const double slow = predictor.predict_delay(std::vector<double>{0.0, 1.0}, 200.0);
  EXPECT_LT(fast, slow);
  EXPECT_GE(fast, 0.0);
}

TEST(TimingPredictor, ConstantOmegaVariantTrains) {
  const auto threads = synthetic_threads(200, 2.0, 20.0, 5);
  TimingPredictorConfig config;
  config.learn_omega = false;
  config.constant_omega = 0.5;
  config.epochs = 30;
  TimingPredictor predictor(config);
  predictor.fit(threads);
  // ω is global; predictions still vary through μ.
  const double omega_fast = predictor.decay(std::vector<double>{1.0, 1.0});
  const double omega_slow = predictor.decay(std::vector<double>{0.0, 1.0});
  EXPECT_DOUBLE_EQ(omega_fast, omega_slow);
  EXPECT_GT(omega_fast, 0.0);
  const double delay = predictor.predict_delay(std::vector<double>{1.0, 1.0}, 200.0);
  EXPECT_GE(delay, 0.0);
  EXPECT_TRUE(std::isfinite(delay));
}

TEST(TimingPredictor, ExcitationHigherForAnsweringPairs) {
  // Pairs with feature x=1 answer constantly; pairs with x=0 never do.
  util::Rng rng(9);
  std::vector<TimingThread> threads;
  for (int i = 0; i < 200; ++i) {
    TimingThread thread;
    thread.open_duration = 100.0;
    thread.answers.push_back({{1.0}, rng.exponential(0.5)});
    thread.survival.push_back({{1.0}, 1.0});
    thread.survival.push_back({{0.0}, 10.0});
    threads.push_back(std::move(thread));
  }
  TimingPredictorConfig config;
  config.epochs = 40;
  TimingPredictor predictor(config);
  predictor.fit(threads);
  EXPECT_GT(predictor.excitation(std::vector<double>{1.0}),
            predictor.excitation(std::vector<double>{0.0}));
}

TEST(TimingPredictor, PaperExpectationFormulaIsFiniteAndNonNegative) {
  const auto threads = synthetic_threads(150, 1.0, 30.0, 11);
  TimingPredictorConfig config;
  config.expectation = TimingPredictorConfig::Expectation::PaperUnnormalized;
  config.epochs = 25;
  TimingPredictor predictor(config);
  predictor.fit(threads);
  for (double x : {0.0, 1.0}) {
    const double delay =
        predictor.predict_delay(std::vector<double>{x, 1.0}, 200.0);
    EXPECT_TRUE(std::isfinite(delay));
    EXPECT_GE(delay, 0.0);
  }
}

TEST(TimingPredictor, CalibrationImprovesScale) {
  // With calibration the average prediction should be close to the average
  // observed delay.
  const auto threads = synthetic_threads(300, 3.0, 30.0, 13);
  TimingPredictorConfig config;
  config.epochs = 40;
  config.calibrate = true;
  TimingPredictor predictor(config);
  predictor.fit(threads);
  double observed = 0.0, predicted = 0.0;
  std::size_t n = 0;
  for (const auto& thread : threads) {
    for (const auto& answer : thread.answers) {
      observed += answer.delay;
      predicted += predictor.predict_delay(answer.features, thread.open_duration);
      ++n;
    }
  }
  observed /= static_cast<double>(n);
  predicted /= static_cast<double>(n);
  EXPECT_NEAR(predicted, observed, 0.5 * observed);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(TimingPredictor, ZeroOpenDurationFallsBackToTrainingMean) {
  // Every training thread is open for 200 h, so the mean open duration is
  // exactly 200 and Δ ≤ 0 must reproduce Δ = 200 bit for bit, scalar and
  // batch, learned and constant ω.
  const auto threads = synthetic_threads(100, 2.0, 10.0, 17);
  for (const bool learn_omega : {true, false}) {
    TimingPredictorConfig config;
    config.epochs = 15;
    config.learn_omega = learn_omega;
    TimingPredictor predictor(config);
    predictor.fit(threads);
    const std::vector<double> x = {1.0, 1.0};
    const double at_mean = predictor.predict_delay(x, 200.0);
    EXPECT_TRUE(std::isfinite(at_mean));
    EXPECT_GE(at_mean, 0.0);
    EXPECT_TRUE(same_bits(predictor.predict_delay(x, 0.0), at_mean));
    EXPECT_TRUE(same_bits(predictor.predict_delay(x, -3.0), at_mean));
    ml::Matrix rows(2, 2);
    rows(0, 0) = rows(0, 1) = rows(1, 0) = rows(1, 1) = 1.0;
    std::vector<double> batch(2);
    predictor.predict_delay_batch(rows.view(), 0.0, batch);
    EXPECT_TRUE(same_bits(batch[0], at_mean));
    EXPECT_TRUE(same_bits(batch[1], at_mean));
  }
}

// The per-point Simpson loop SimpsonDelayGrid replaced, kept as the
// reference: every point recomputes e^{−ωτ} for λ and again inside the
// survival integral, then e^{−Λ}.
double reference_survival_integral(double omega, double delta) {
  const double x = omega * delta;
  if (x < 1e-8) return delta * (1.0 - 0.5 * x);
  return (1.0 - std::exp(-x)) / omega;
}

double reference_conditional_delay(double mu, double omega, double delta) {
  const int segments = 200;
  const double h = delta / segments;
  double numerator = 0.0, denominator = 0.0;
  for (int i = 0; i <= segments; ++i) {
    const double tau = h * i;
    const double lambda = mu * std::exp(-omega * tau);
    const double big_lambda = mu * reference_survival_integral(omega, tau);
    const double density = lambda * std::exp(-big_lambda);
    const double w = (i == 0 || i == segments) ? 1.0 : (i % 2 == 1 ? 4.0 : 2.0);
    numerator += w * tau * density;
    denominator += w * density;
  }
  if (denominator <= 1e-300) return delta;
  return numerator / denominator;
}

TEST(SimpsonDelayGrid, BitIdenticalToPerPointLoop) {
  // Log sweeps over μ, ω and Δ. ω down to 1e-12 keeps ωτ < 1e-8 at every
  // point (the series branch), ω near 1e-9 mixes both branches, μ down to
  // 1e-310 starves the density below 1e-300 (the horizon fallback), and
  // Δ = 0 collapses the grid. One grid serves the whole sweep, so every
  // (ω, Δ) change must rebuild it.
  SimpsonDelayGrid grid;
  int series_only = 0, fallbacks = 0, checked = 0;
  for (double log_omega = -12.0; log_omega <= 3.0; log_omega += 0.5) {
    const double omega = std::pow(10.0, log_omega);
    for (const double delta :
         {0.0, 1e-3, 0.37, 1.0, 24.0, 200.0, 1500.0, 1e4}) {
      grid.build(omega, delta);
      if (omega * delta < 1e-8) ++series_only;
      for (double log_mu = -310.0; log_mu <= 6.0; log_mu += 7.0) {
        const double mu = std::pow(10.0, log_mu);
        const double expected = reference_conditional_delay(mu, omega, delta);
        const double actual = grid.eval(mu);
        ASSERT_TRUE(same_bits(actual, expected))
            << "mu=" << mu << " omega=" << omega << " delta=" << delta
            << " got " << actual << " want " << expected;
        if (delta > 0.0 && expected == delta) ++fallbacks;
        ++checked;
      }
    }
  }
  EXPECT_GT(series_only, 0);
  EXPECT_GT(fallbacks, 0);
  EXPECT_GT(checked, 10000);
}

TEST(TimingPredictor, DeterministicForSeed) {
  const auto threads = synthetic_threads(80, 2.0, 15.0, 19);
  TimingPredictorConfig config;
  config.epochs = 10;
  config.seed = 42;
  TimingPredictor a(config), b(config);
  a.fit(threads);
  b.fit(threads);
  const std::vector<double> x = {1.0, 1.0};
  EXPECT_DOUBLE_EQ(a.predict_delay(x, 100.0), b.predict_delay(x, 100.0));
}

TEST(TimingPredictor, ValidatesInput) {
  TimingPredictor predictor;
  EXPECT_THROW(predictor.fit(std::vector<TimingThread>{}), util::CheckError);
  EXPECT_THROW(predictor.predict_delay(std::vector<double>{1.0}, 10.0),
               util::CheckError);
  // Threads with no answers anywhere are rejected.
  std::vector<TimingThread> empty_threads(3);
  for (auto& thread : empty_threads) {
    thread.open_duration = 10.0;
    thread.survival.push_back({{1.0}, 1.0});
  }
  EXPECT_THROW(predictor.fit(empty_threads), util::CheckError);
  EXPECT_THROW(TimingPredictor({.constant_omega = 0.0}), util::CheckError);
}

}  // namespace
}  // namespace forumcast::core

namespace forumcast::core {
namespace {

TEST(TimingPredictor, CumulativeIntensityProperties) {
  const auto threads = synthetic_threads(200, 1.0, 30.0, 23);
  TimingPredictorConfig config;
  config.epochs = 25;
  TimingPredictor predictor(config);
  predictor.fit(threads);

  const std::vector<double> fast = {1.0, 1.0};
  const std::vector<double> slow = {0.0, 1.0};
  // Λ(0) = 0; Λ is nondecreasing in the horizon; Λ = μ·A(ω) ≤ μ/ω.
  EXPECT_NEAR(predictor.cumulative_intensity(fast, 0.0), 0.0, 1e-12);
  double previous = 0.0;
  for (double h : {1.0, 5.0, 25.0, 100.0, 1000.0}) {
    const double lambda = predictor.cumulative_intensity(fast, h);
    EXPECT_GE(lambda, previous);
    previous = lambda;
  }
  const double bound = predictor.excitation(fast) / predictor.decay(fast);
  EXPECT_LE(previous, bound + 1e-9);
  (void)slow;
}

TEST(TimingPredictor, AnswerProbabilityIsCalibratedMonotone) {
  const auto threads = synthetic_threads(200, 1.0, 30.0, 29);
  TimingPredictorConfig config;
  config.epochs = 25;
  TimingPredictor predictor(config);
  predictor.fit(threads);
  const std::vector<double> x = {1.0, 1.0};
  double previous = 0.0;
  for (double h : {0.0, 1.0, 10.0, 100.0}) {
    const double p = predictor.probability_answer_within(x, h);
    EXPECT_GE(p, previous - 1e-12);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    previous = p;
  }
}

// Configuration grid: every (ω mode × estimator × calibration) combination
// must train and produce finite, non-negative predictions.
class TimingConfigGridTest
    : public ::testing::TestWithParam<std::tuple<bool, int, bool>> {};

TEST_P(TimingConfigGridTest, TrainsAndPredictsFinite) {
  const auto [learn_omega, expectation_index, calibrate] = GetParam();
  TimingPredictorConfig config;
  config.learn_omega = learn_omega;
  config.expectation =
      expectation_index == 0
          ? TimingPredictorConfig::Expectation::PaperUnnormalized
          : TimingPredictorConfig::Expectation::ConditionalFirstEvent;
  config.calibrate = calibrate;
  config.epochs = 8;
  config.f_hidden = {8};
  config.g_hidden = {8};
  TimingPredictor predictor(config);
  predictor.fit(synthetic_threads(80, 2.0, 20.0, 31));
  for (double x : {0.0, 0.5, 1.0}) {
    const double delay =
        predictor.predict_delay(std::vector<double>{x, 1.0}, 150.0);
    EXPECT_TRUE(std::isfinite(delay));
    EXPECT_GE(delay, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TimingConfigGridTest,
    ::testing::Combine(::testing::Bool(), ::testing::Values(0, 1),
                       ::testing::Bool()));

}  // namespace
}  // namespace forumcast::core

namespace forumcast::core {
namespace {

TEST(TimingPredictor, HeldOutLogLikelihoodIsFiniteAndComparable) {
  const auto train = synthetic_threads(200, 1.0, 30.0, 41);
  const auto test = synthetic_threads(100, 1.0, 30.0, 43);
  TimingPredictorConfig config;
  config.epochs = 25;
  TimingPredictor predictor(config);
  predictor.fit(train);
  const double train_ll = predictor.mean_log_likelihood(train);
  const double test_ll = predictor.mean_log_likelihood(test);
  EXPECT_TRUE(std::isfinite(train_ll));
  EXPECT_TRUE(std::isfinite(test_ll));
  // Same-distribution held-out likelihood should be in the same ballpark.
  EXPECT_NEAR(test_ll, train_ll, std::abs(train_ll) * 0.5 + 1.0);
}

TEST(TimingPredictor, TrainingImprovesLikelihoodOverUndertrainedModel) {
  const auto train = synthetic_threads(200, 1.0, 40.0, 47);
  const auto test = synthetic_threads(100, 1.0, 40.0, 49);
  TimingPredictorConfig brief_config;
  brief_config.epochs = 1;
  TimingPredictor brief(brief_config);
  brief.fit(train);
  TimingPredictorConfig long_config;
  long_config.epochs = 40;
  TimingPredictor trained(long_config);
  trained.fit(train);
  EXPECT_GT(trained.mean_log_likelihood(test), brief.mean_log_likelihood(test));
}

TEST(TimingPredictor, LikelihoodRequiresFit) {
  TimingPredictor predictor;
  EXPECT_THROW(predictor.mean_log_likelihood(synthetic_threads(5, 1.0, 2.0, 1)),
               util::CheckError);
}

}  // namespace
}  // namespace forumcast::core
