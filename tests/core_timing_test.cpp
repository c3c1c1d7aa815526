#include <gtest/gtest.h>

#include <algorithm>
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

// 24-point Gauss–Legendre rule on [−1, 1] in long double: Newton on the
// Legendre recurrence from the Tricomi starting guesses.
struct GaussLegendre {
  static constexpr int kPoints = 24;
  long double node[kPoints] = {};
  long double weight[kPoints] = {};
};

const GaussLegendre& gauss_legendre() {
  static const GaussLegendre rule = [] {
    GaussLegendre r;
    constexpr int n = GaussLegendre::kPoints;
    const long double pi = 3.141592653589793238462643383279502884L;
    for (int i = 0; i < n; ++i) {
      long double z = std::cos(pi * (i + 0.75L) / (n + 0.5L));
      long double derivative = 1.0L;
      for (int iteration = 0; iteration < 100; ++iteration) {
        long double p0 = 1.0L, p1 = z;
        for (int k = 2; k <= n; ++k) {
          const long double p2 = ((2 * k - 1) * z * p1 - (k - 1) * p0) / k;
          p0 = p1;
          p1 = p2;
        }
        derivative = n * (z * p1 - p0) / (z * z - 1.0L);
        const long double step = p1 / derivative;
        z -= step;
        if (std::fabs(step) < 1e-20L) break;
      }
      r.node[i] = z;
      r.weight[i] = 2.0L / ((1.0L - z * z) * derivative * derivative);
    }
    return r;
  }();
  return rule;
}

// E[τ | first answer in [0, Δ]] under λ(τ) = μe^{−ωτ} by direct quadrature
// of N = ∫₀^Δ (e^{−Λ(τ)} − e^{−Λ(Δ)}) dτ over D = 1 − e^{−Λ(Δ)}, in long
// double. The integrand is written as e^{−Λ(τ)}·(1 − e^{−(Λ(Δ) − Λ(τ))})
// with Λ(Δ) − Λ(τ) = c·e^{−ωτ}·(1 − e^{−ω(Δ−τ)}), so nothing cancels. Its
// length scale is 1/(μ + ω): one panel covers [0, τ₀] with τ₀ = Δ/2^J below
// a tenth of it, then doubling panels [τ₀2^j, τ₀2^{j+1}] reach Δ.
long double reference_conditional_delay(double mu_in, double omega_in,
                                        double delta_in) {
  const long double mu = mu_in, omega = omega_in, delta = delta_in;
  const long double c = mu / omega;
  const auto integrand = [&](long double tau) {
    const long double before = c * -std::expm1(-omega * tau);
    const long double gap =
        c * std::exp(-omega * tau) * -std::expm1(-omega * (delta - tau));
    return std::exp(-before) * -std::expm1(-gap);
  };
  const GaussLegendre& rule = gauss_legendre();
  const auto panel = [&](long double a, long double b) {
    const long double half = 0.5L * (b - a), mid = 0.5L * (a + b);
    long double sum = 0.0L;
    for (int i = 0; i < GaussLegendre::kPoints; ++i) {
      sum += rule.weight[i] * integrand(mid + half * rule.node[i]);
    }
    return half * sum;
  };
  long double first = delta;
  while (first * (mu + omega) > 0.1L) first *= 0.5L;
  long double numerator = panel(0.0L, first);
  for (long double a = first; a < delta; a *= 2.0L) {
    numerator += panel(a, std::min(2.0L * a, delta));
  }
  return numerator / -std::expm1(-c * -std::expm1(-omega * delta));
}

void expect_matches_reference(double mu, double omega, double delta) {
  const long double expected = reference_conditional_delay(mu, omega, delta);
  const double actual = conditional_delay(mu, omega, delta);
  const double error =
      static_cast<double>(std::fabs((actual - expected) / expected));
  EXPECT_LT(error, 1e-9) << "mu=" << mu << " omega=" << omega
                         << " delta=" << delta << " got " << actual
                         << " want " << static_cast<double>(expected);
}

TEST(ConditionalDelay, MatchesQuadratureOnLogGrid) {
  // μ 1e-6..1e3, ω 1e-4..1e2 and Δ 1e-3..1e3 in half-decade steps: c = μ/ω
  // spans 1e-8..1e7 and ωΔ 1e-7..1e5, which reaches every evaluation form.
  for (double log_mu = -6.0; log_mu <= 3.0; log_mu += 0.5) {
    for (double log_omega = -4.0; log_omega <= 2.0; log_omega += 0.5) {
      for (double log_delta = -3.0; log_delta <= 3.0; log_delta += 0.5) {
        expect_matches_reference(std::pow(10.0, log_mu),
                                 std::pow(10.0, log_omega),
                                 std::pow(10.0, log_delta));
      }
    }
  }
}

TEST(ConditionalDelay, MatchesQuadratureAtRandomPoints) {
  util::Rng rng(2019);
  for (int i = 0; i < 10000; ++i) {
    const double mu = std::pow(10.0, rng.uniform(-6.0, 3.0));
    const double omega = std::pow(10.0, rng.uniform(-4.0, 2.0));
    const double delta = std::pow(10.0, rng.uniform(-3.0, 3.0));
    expect_matches_reference(mu, omega, delta);
    if (HasFailure()) break;
  }
}

TEST(ConditionalDelay, ShapeAndLimits) {
  // The density λe^{−Λ} decreases in τ, so the conditional mean sits in
  // [0, Δ/2]; a larger excitation pulls it earlier. μ down to the
  // subnormal range and ωΔ up to 1e5 must stay finite.
  const double slack = 1.0 + 1e-12;
  for (const double omega : {1e-4, 1e-2, 1.0, 1e2}) {
    for (const double x : {1e-12, 1e-6, 0.3, 0.5, 2.0, 50.0, 800.0, 1e5}) {
      const double delta = x / omega;
      EXPECT_EQ(conditional_delay(1.0, omega, 0.0), 0.0);
      double previous = 0.5 * delta;
      for (double log_mu = -310.0; log_mu <= 8.0; log_mu += 0.25) {
        const double mu = std::pow(10.0, log_mu);
        const double r = conditional_delay(mu, omega, delta);
        ASSERT_TRUE(std::isfinite(r))
            << "mu=" << mu << " omega=" << omega << " delta=" << delta;
        EXPECT_GE(r, 0.0);
        EXPECT_LE(r, 0.5 * delta * slack)
            << "mu=" << mu << " omega=" << omega << " delta=" << delta;
        EXPECT_LE(r, previous * slack)
            << "mu=" << mu << " omega=" << omega << " delta=" << delta;
        previous = r;
      }
    }
  }
  // Λ underflows: the rate-ω exponential's conditional mean, Δ/2 as x → 0.
  const double x = 3.0, omega = 0.5;
  EXPECT_DOUBLE_EQ(conditional_delay(1e-310, omega, x / omega),
                   (1.0 - (1.0 + x) * std::exp(-x)) / (omega * -std::expm1(-x)));
  EXPECT_NEAR(conditional_delay(1e-3, 1.0, 1e-9),
              0.5e-9 * (1.0 - 1.001e-9 / 6.0), 1e-24);
}

TEST(SurvivalIntegral, MatchesLongDoubleQuadrature) {
  // A(ω) = ∫₀^Δ e^{−ωτ} dτ and dA/dω = −∫₀^Δ τe^{−ωτ} dτ by Gauss–Legendre
  // panels of unit width in ωτ, in long double. Small ωΔ is where a naive
  // 1 − e^{−x} or the difference form of the derivative cancels.
  const GaussLegendre& rule = gauss_legendre();
  const double omega = 0.7;
  for (const double x : {1.1e-6, 1e-5, 1e-3, 1.0, 50.0}) {
    const double delta = x / omega;
    const int panels = std::max(1, static_cast<int>(std::ceil(x)));
    const long double width = static_cast<long double>(delta) / panels;
    long double area = 0.0L, moment = 0.0L;
    for (int p = 0; p < panels; ++p) {
      const long double mid = (p + 0.5L) * width;
      for (int i = 0; i < GaussLegendre::kPoints; ++i) {
        const long double tau = mid + 0.5L * width * rule.node[i];
        const long double w = 0.5L * width * rule.weight[i];
        const long double decay = std::exp(-static_cast<long double>(omega) * tau);
        area += w * decay;
        moment += w * tau * decay;
      }
    }
    const double a = survival_integral(omega, delta);
    const double da = survival_integral_domega(omega, delta);
    EXPECT_LT(std::fabs((a - area) / area), 1e-12) << "x=" << x;
    EXPECT_LT(std::fabs((da + moment) / moment), 1e-12) << "x=" << x;
  }
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
