// Predictor for r_{u,q} — the response delay (Sec. II-A.3).
//
// Point process with rate λ_{u,q}(t) = μ_{u,q} e^{−ω_{u,q}(t − t_q)} where
// μ = f_Θ(x) and ω = g_Θ(x) (or a single learnable constant, the variant the
// paper found best on Stack Overflow). Trained by maximizing the thread
// log-likelihood
//
//   L_q = Σ_answers [log μ − ω·delay] − Σ_{u ∈ survival set} μ(1−e^{−ωΔ})/ω
//
// with gradients backpropagated through both networks and Adam updates.
// The survival term over *all* users is approximated by the answerers (exact)
// plus uniformly sampled non-answerers weighted up to population size — the
// standard importance-sampling treatment; exact summation is quadratic in
// |U|·|Q| feature evaluations.
//
// Two delay estimators are provided:
//  * PaperUnnormalized — eq. from Sec. II-A.3: r̂ = μ/ω²(1−e^{−ωΔ}(1+ωΔ));
//  * ConditionalFirstEvent — E[τ | first answer within Δ] under the same
//    rate, a normalized estimator that is usually better calibrated.
// An optional affine calibration (fit on training answers) maps the raw
// estimate onto the delay scale; both deviations are documented in DESIGN.md.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "artifact/artifact.hpp"
#include "ml/mlp.hpp"
#include "ml/scaler.hpp"

namespace forumcast::core {

struct TimingPredictorConfig {
  std::vector<std::size_t> f_hidden = {100, 50};  ///< excitation net (tanh)
  bool learn_omega = true;                        ///< g_Θ(x); false = constant ω
  std::vector<std::size_t> g_hidden = {100, 50};
  double constant_omega = 1.0;    ///< initial value (1/hours) when !learn_omega
  bool train_constant_omega = true;
  double learning_rate = 1e-3;
  std::size_t epochs = 60;
  /// Minibatch size in threads (questions). Each minibatch's event rows are
  /// flattened into one matrix and both rate networks run as blocked-GEMM
  /// batch forwards and backwards.
  std::size_t batch_size = 8;
  std::uint64_t seed = 23;

  enum class Expectation { PaperUnnormalized, ConditionalFirstEvent };
  Expectation expectation = Expectation::ConditionalFirstEvent;
  bool calibrate = true;  ///< affine fit of r̂ → r on the training answers
};

/// The ConditionalFirstEvent estimator r̂ = E[τ | first answer in [0, Δ]]
/// under the rate λ(τ) = μe^{−ωτ}, in closed form. With c = μ/ω, x = ωΔ,
/// s = e^{−x} and Λ = c(1 − s), integrating by parts gives
///
///   r̂ = N / (1 − e^{−Λ}),  N = ∫₀^Δ (e^{−Λ(τ)} − e^{−Λ}) dτ
///                            = (e^{−c}/ω)·[Ei(c) − Ei(cs)] − Δe^{−Λ},
///
/// evaluated in one of three cancellation-free forms chosen by (c, x, Λ);
/// see DESIGN.md §2. Accurate to about 1e-14 relative for μ, ω > 0; Δ ≤ 0
/// gives 0. A pure function of its arguments, so every row of a batch gets
/// the bits a single call would.
double conditional_delay(double mu, double omega, double delta);

/// ∫₀^Δ e^{−ωτ} dτ = (1 − e^{−ωΔ})/ω, the survival integral Λ(Δ)/μ that the
/// likelihood charges every pair.
double survival_integral(double omega, double delta);
/// d/dω of survival_integral: −γ₂(ωΔ)/ω² with γ₂(y) = 1 − (1 + y)e^{−y}.
double survival_integral_domega(double omega, double delta);

/// One training thread: its answers plus a weighted survival sample.
struct TimingThread {
  double open_duration = 0.0;  ///< Δ_q = T − t(p_{q,0}) in hours

  struct Answer {
    std::vector<double> features;  ///< x_{u,q} for the answerer
    double delay = 0.0;            ///< observed r_{u,q}
  };
  std::vector<Answer> answers;

  struct SurvivalSample {
    std::vector<double> features;
    double weight = 1.0;  ///< importance weight toward Σ over all users
  };
  std::vector<SurvivalSample> survival;
};

class TimingPredictor {
 public:
  explicit TimingPredictor(TimingPredictorConfig config = {});

  void fit(std::span<const TimingThread> threads);

  /// Average per-thread log-likelihood of held-out threads under the fitted
  /// rate (same expression the MLE maximizes) — a calibration-free measure
  /// of model fit for ablations. Requires fit().
  double mean_log_likelihood(std::span<const TimingThread> threads) const;

  /// Predicted delay r̂ in hours for a pair with feature vector `features`
  /// whose question has been (or will be) open for `open_duration` hours.
  /// A batch of one through predict_delay_batch().
  double predict_delay(std::span<const double> features,
                       double open_duration) const;

  /// The inference entry: raw (unscaled) feature rows sharing one question
  /// (and hence one open duration); writes one delay per row. Both rate
  /// networks run as blocked-GEMM forwards.
  void predict_delay_batch(ml::Tensor<const double> rows, double open_duration,
                           std::span<double> out) const;

  /// Rate parameters for a pair (diagnostics / tests), each a batch of one.
  double excitation(std::span<const double> features) const;  ///< μ
  double decay(std::span<const double> features) const;       ///< ω

  /// Cumulative intensity Λ_{u,q}(Δ) = μ(1−e^{−ωΔ})/ω — the expected number
  /// of answers by this pair within the first Δ hours. Summed over a
  /// candidate pool it predicts a thread's answer count (extension).
  double cumulative_intensity(std::span<const double> features,
                              double horizon_hours) const;

  /// P(the pair produces at least one answer within Δ) = 1 − e^{−Λ(Δ)} —
  /// the "will this be answered within a day?" product question.
  double probability_answer_within(std::span<const double> features,
                                   double horizon_hours) const;

  bool fitted() const { return fitted_; }
  /// Feature dimension the fitted model expects.
  std::size_t input_dim() const { return scaler_.dimension(); }

  /// Model-bundle codec covering the full point-process parametrization
  /// (scaler, μ via f_Θ, ω via g_Θ or the constant-ω ρ, the estimator
  /// choice, calibration, and the mean open duration); bit-identical
  /// predictions.
  void encode(artifact::Encoder& enc) const;
  static TimingPredictor decode(artifact::Decoder& dec);

 private:
  /// The inference rule, batched: scales raw `rows` and writes
  /// μ = f(x) + 1e-6 and ω = g(x) + 1e-4 (softplus(ρ) + 1e-4 for constant ω)
  /// per row. Every inference site goes through it; only the training loops
  /// run their own forwards.
  void rates(ml::Tensor<const double> rows, std::span<double> mu,
             std::span<double> omega) const;
  /// {μ, ω} for one raw feature row — rates() on a batch of one.
  std::pair<double, double> rates(std::span<const double> features) const;

  /// Uncalibrated r̂ under the configured estimator.
  double raw_estimate(double mu, double omega, double open_duration) const;

  TimingPredictorConfig config_;
  ml::StandardScaler scaler_;
  std::unique_ptr<ml::Mlp> f_net_;
  std::unique_ptr<ml::Mlp> g_net_;
  double omega_rho_ = 0.0;  ///< constant-ω parametrization: ω = softplus(ρ)+1e-4
  double calibration_offset_ = 0.0;
  double calibration_slope_ = 1.0;
  double mean_open_duration_ = 0.0;
  bool fitted_ = false;
};

}  // namespace forumcast::core
