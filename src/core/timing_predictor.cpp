#include "core/timing_predictor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "ml/adam.hpp"
#include "ml/activations.hpp"
#include "ml/serialize.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace forumcast::core {

namespace {
constexpr double kMuFloor = 1e-6;
constexpr double kOmegaFloor = 1e-4;

// Series cut-off: a sum stops once its remainder is below 2^-55 of itself.
constexpr double kTolerance = 0x1p-55;

// γ₂(y) = 1 − (1 + y)e^{−y} for 0 ≤ y < 0.5 by its alternating series
// Σ_{m≥2} (−1)^m y^m (m − 1)/m!, which the direct form loses to
// cancellation.
double gamma2_series(double y) {
  double power = 0.5 * y * y;  // (−y)^m / m! at m = 2
  double sum = power;
  for (int m = 3; m < 40; ++m) {
    power *= -y / m;
    const double term = power * (m - 1);
    sum += term;
    if (std::fabs(term) <= kTolerance * sum) break;
  }
  return sum;
}

double gamma2(double y) {
  return y < 0.5 ? gamma2_series(y) : 1.0 - (1.0 + y) * std::exp(-y);
}

// Λ / (1 − e^{−Λ}), 1 at Λ = 0.
double intensity_ratio(double big_lambda) {
  return big_lambda > 0.0 ? big_lambda / -std::expm1(-big_lambda) : 1.0;
}

// c ≤ 40: N = (e^{−c}/ω)·Σ_{k≥1} (c^k/k!)·γ₂(kx)/k. Returns the sum with one
// factor c taken out, Σ_{k≥1} (c^{k−1}/k!)·γ₂(kx)/k, so that an underflowing
// c leaves γ₂(x). Every term is positive; s^k = e^{−kx} comes from repeated
// multiplication until kx passes 50, beyond which γ₂(kx) rounds to 1.
// γ₂((k+1)x) ≤ ((k+1)/k)²·γ₂(kx), so consecutive terms shrink by at least
// c/k and once k ≥ 2c the remainder is below the last term.
double small_c_sum(double c, double x, double s) {
  double coefficient = 1.0;  // c^{k−1}/k!
  double s_k = s;            // e^{−kx} while kx < 50
  double sum = 0.0;
  for (int k = 1; k < 400; ++k) {
    const double y = k * x;
    double gamma = 1.0;
    if (y < 0.5) {
      gamma = gamma2_series(y);
    } else if (y < 50.0) {
      gamma = 1.0 - (1.0 + y) * s_k;
    }
    const double term = coefficient * gamma / k;
    sum += term;
    if (k >= 2.0 * c && term <= kTolerance * sum) break;
    coefficient *= c / (k + 1);
    if (y < 50.0) s_k *= s;
  }
  return sum;
}

// e^{−y}·Ei(y) for y ≥ 0, given ln y separately so that a y that
// underflowed to 0 still has its logarithm. Above 40 the asymptotic series
// (1/y)·Σ k!/y^k, cut at its smallest term (about 1e-16 at y = 40);
// otherwise the power series Ei(y) = γ + ln y + Σ_{k≥1} y^k/(k·k!).
double scaled_ei(double y, double log_y) {
  if (y > 40.0) {
    double term = 1.0, sum = 1.0;
    for (int k = 1; k < y && term > kTolerance * sum; ++k) {
      term *= k / y;
      sum += term;
    }
    return sum / y;
  }
  constexpr double kEulerGamma = 0.57721566490153286061;
  double power = 1.0, series = 0.0;
  for (int k = 1; k < 400; ++k) {
    power *= y / k;
    const double term = power / k;
    series += term;
    if (term <= kTolerance * series) break;
  }
  return std::exp(-y) * (kEulerGamma + log_y + series);
}

// c > 40, x < 0.5, Λ ≤ 40, where Ei(c) − Ei(cs) would cancel. Substituting
// u = Λ(τ) gives N·μ = e^{−Λ}Λ²·Σ_{k≥0} q^k M(k+2)/((k+1)(k+2)) with
// q = 1 − s < 0.4 and M(n) = Σ_m Λ^m n!/(n+m)!. Returns the sum over k. The
// terms shrink by at least q, so K terms with q^K < 2^-56 suffice; M at the
// top comes from its series and the rest from M(n) = 1 + Λ·M(n+1)/(n+1),
// summed Horner-style from the top down.
double large_c_sum(double big_lambda, double q) {
  int top = 0;
  for (double power = 1.0; power > 0x1p-56; power *= q) ++top;
  double m = 1.0, term = 1.0;  // M(top + 2)
  for (int j = 1; j < 400 && term > kTolerance * m; ++j) {
    term *= big_lambda / (top + 2 + j);
    m += term;
  }
  double sum = m / ((top + 1.0) * (top + 2.0));
  for (int k = top - 1; k >= 0; --k) {
    m = 1.0 + big_lambda * m / (k + 3);  // M(k + 2)
    sum = m / ((k + 1.0) * (k + 2.0)) + q * sum;
  }
  return sum;
}

}  // namespace

double survival_integral(double omega, double delta) {
  return -std::expm1(-omega * delta) / omega;
}

double survival_integral_domega(double omega, double delta) {
  return -gamma2(omega * delta) / (omega * omega);
}

double conditional_delay(double mu, double omega, double delta) {
  if (!(delta > 0.0)) return 0.0;
  const double x = omega * delta;
  const double c = mu / omega;
  // s = e^{−x}, flushed to 0 before it turns subnormal (slow, and below
  // every term it feeds), and q = 1 − s without cancellation.
  const double s = x < 700.0 ? std::exp(-x) : 0.0;
  const double q = x < 0.5 ? -std::expm1(-x) : 1.0 - s;
  const double big_lambda = c * q;
  if (c <= 40.0) {
    // Uniform to double precision: r̂ = Δ/2·(1 − (c + 1)x/6 + …).
    if (x < 0x1p-60) return 0.5 * delta;
    return std::exp(-c) * intensity_ratio(big_lambda) * small_c_sum(c, x, s) /
           (omega * q);
  }
  if (x >= 0.5 || big_lambda > 40.0) {
    // N·ω = E(c) − e^{−Λ}·(E(cs) + x) with E(y) = e^{−y}Ei(y); here the
    // second term is at most about 3e-6 of the first, so nothing cancels.
    const double log_c = std::log(c);
    const double n_omega =
        scaled_ei(c, log_c) -
        std::exp(-big_lambda) * (scaled_ei(c * s, log_c - x) + x);
    return n_omega / (omega * -std::expm1(-big_lambda));
  }
  return std::exp(-big_lambda) * intensity_ratio(big_lambda) *
         large_c_sum(big_lambda, q) * q / omega;
}

TimingPredictor::TimingPredictor(TimingPredictorConfig config)
    : config_(std::move(config)) {
  FORUMCAST_CHECK(config_.constant_omega > 0.0);
}

void TimingPredictor::fit(std::span<const TimingThread> threads) {
  FORUMCAST_CHECK(!threads.empty());
  FORUMCAST_SPAN_NAMED(fit_span, "timing.fit");
  fit_span.arg("threads", static_cast<double>(threads.size()));

  // Collect all feature rows to fit the scaler and determine the dimension.
  std::vector<std::vector<double>> all_rows;
  std::size_t total_answers = 0;
  for (const auto& thread : threads) {
    FORUMCAST_CHECK(thread.open_duration > 0.0);
    for (const auto& answer : thread.answers) {
      all_rows.push_back(answer.features);
      ++total_answers;
    }
    for (const auto& sample : thread.survival) {
      all_rows.push_back(sample.features);
    }
  }
  FORUMCAST_CHECK_MSG(total_answers > 0, "no answer events to fit on");
  scaler_.fit(all_rows);
  const std::size_t dim = all_rows.front().size();

  auto make_net = [&](const std::vector<std::size_t>& hidden,
                      std::uint64_t seed) {
    std::vector<ml::LayerSpec> specs;
    for (std::size_t units : hidden) specs.push_back({units, ml::Activation::Tanh});
    specs.push_back({1, ml::Activation::Softplus});
    return std::make_unique<ml::Mlp>(dim, std::move(specs), seed);
  };
  f_net_ = make_net(config_.f_hidden, config_.seed);
  if (config_.learn_omega) {
    g_net_ = make_net(config_.g_hidden, config_.seed ^ 0x777ULL);
  } else {
    g_net_.reset();
    // Invert ω = softplus(ρ) + floor for the requested initial value.
    const double target = std::max(config_.constant_omega - kOmegaFloor, 1e-6);
    omega_rho_ = std::log(std::expm1(target));
  }

  ml::Adam f_adam(f_net_->param_count(), {.learning_rate = config_.learning_rate});
  std::unique_ptr<ml::Adam> g_adam;
  if (g_net_) {
    g_adam = std::make_unique<ml::Adam>(
        g_net_->param_count(),
        ml::AdamConfig{.learning_rate = config_.learning_rate});
  }
  ml::Adam rho_adam(1, {.learning_rate = config_.learning_rate});

  // Pre-scale features once.
  struct ScaledThread {
    double delta;
    std::vector<std::pair<std::vector<double>, double>> answers;  // (x, delay)
    std::vector<std::pair<std::vector<double>, double>> survival; // (x, weight)
  };
  std::vector<ScaledThread> scaled;
  scaled.reserve(threads.size());
  double total_open = 0.0;
  for (const auto& thread : threads) {
    ScaledThread st;
    st.delta = thread.open_duration;
    total_open += thread.open_duration;
    for (const auto& answer : thread.answers) {
      st.answers.emplace_back(scaler_.transform(answer.features), answer.delay);
    }
    for (const auto& sample : thread.survival) {
      st.survival.emplace_back(scaler_.transform(sample.features), sample.weight);
    }
    scaled.push_back(std::move(st));
  }
  mean_open_duration_ = total_open / static_cast<double>(threads.size());

  std::vector<std::size_t> order(scaled.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  util::Rng rng(config_.seed ^ 0x51adULL);

  const std::size_t batch = std::max<std::size_t>(1, config_.batch_size);
  ml::Mlp::BatchTape f_btape, g_btape;
  ml::Matrix xbatch, f_gout, g_gout;
  struct RowMeta {
    double value = 0.0;  ///< delay (answer rows) or weight (survival rows)
    double delta = 0.0;  ///< thread open duration Δ
    bool answer = false;
  };
  std::vector<RowMeta> meta;

  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    FORUMCAST_SPAN("timing.epoch");
    double epoch_nll = 0.0;
    rng.shuffle(order);
    for (std::size_t start = 0; start < order.size(); start += batch) {
      const std::size_t end = std::min(order.size(), start + batch);
      f_net_->zero_grad();
      if (g_net_) g_net_->zero_grad();
      double rho_grad = 0.0;
      const double inv = 1.0 / static_cast<double>(end - start);

      // Flatten the minibatch's event rows (answers then survival per
      // thread, threads in shuffle order) and run each net once over the
      // whole block. The nll/ρ folds below walk the same row order and
      // backward_batch accumulates its contraction in row order, so every
      // fitted parameter equals per-sample backprop bit for bit.
      meta.clear();
      std::size_t nrows = 0;
      for (std::size_t k = start; k < end; ++k) {
        const ScaledThread& thread = scaled[order[k]];
        nrows += thread.answers.size() + thread.survival.size();
      }
      xbatch.resize(nrows, dim);
      std::size_t b = 0;
      for (std::size_t k = start; k < end; ++k) {
        const ScaledThread& thread = scaled[order[k]];
        for (const auto& [x, delay] : thread.answers) {
          std::copy(x.begin(), x.end(), xbatch.row(b++).begin());
          meta.push_back({delay, thread.delta, true});
        }
        for (const auto& [x, weight] : thread.survival) {
          std::copy(x.begin(), x.end(), xbatch.row(b++).begin());
          meta.push_back({weight, thread.delta, false});
        }
      }
      const ml::Tensor<const double> f_out =
          f_net_->forward_batch(xbatch, f_btape);
      ml::Tensor<const double> g_out;
      if (g_net_) g_out = g_net_->forward_batch(xbatch, g_btape);
      f_gout.resize(nrows, 1);
      if (g_net_) g_gout.resize(nrows, 1);
      const double constant_omega = ml::softplus(omega_rho_) + kOmegaFloor;
      for (std::size_t r = 0; r < nrows; ++r) {
        // μ = f(x) + floor ⇒ dμ/df_out = 1 (likewise ω and g).
        const double mu = f_out(r, 0) + kMuFloor;
        const double omega =
            g_net_ ? g_out(r, 0) + kOmegaFloor : constant_omega;
        double dloss_dmu = 0.0, dloss_domega = 0.0;
        if (meta[r].answer) {
          // Answer events: loss −= log μ − ω·delay.
          epoch_nll -= std::log(mu) - omega * meta[r].value;
          dloss_dmu = -inv / mu;
          dloss_domega = inv * meta[r].value;
        } else {
          // Survival terms: loss += w · μ · A(ω), A = (1 − e^{−ωΔ})/ω.
          const double a = survival_integral(omega, meta[r].delta);
          const double da = survival_integral_domega(omega, meta[r].delta);
          epoch_nll += meta[r].value * mu * a;
          dloss_dmu = inv * meta[r].value * a;
          dloss_domega = inv * meta[r].value * mu * da;
        }
        f_gout(r, 0) = dloss_dmu;
        if (g_net_) {
          g_gout(r, 0) = dloss_domega;
        } else if (config_.train_constant_omega) {
          rho_grad += dloss_domega * ml::sigmoid(omega_rho_);
        }
      }
      f_net_->backward_batch(f_btape, f_gout.view());
      if (g_net_) g_net_->backward_batch(g_btape, g_gout.view());
      f_adam.step(f_net_->params(), f_net_->grads());
      if (g_net_) {
        g_adam->step(g_net_->params(), g_net_->grads());
      } else if (config_.train_constant_omega) {
        double rho = omega_rho_;
        std::span<double> rho_span(&rho, 1);
        rho_adam.step(rho_span, std::span<const double>(&rho_grad, 1));
        omega_rho_ = rho;
      }
    }
    FORUMCAST_GAUGE_SET("timing.train_nll",
                        epoch_nll / static_cast<double>(scaled.size()));
  }

  // Affine calibration of the raw estimator against observed delays.
  calibration_offset_ = 0.0;
  calibration_slope_ = 1.0;
  if (config_.calibrate) {
    std::vector<double> raw, observed;
    for (const auto& thread : threads) {
      for (const auto& answer : thread.answers) {
        const auto [mu, omega] = rates(answer.features);
        raw.push_back(raw_estimate(mu, omega, thread.open_duration));
        observed.push_back(answer.delay);
      }
    }
    const double n = static_cast<double>(raw.size());
    const double mx = std::accumulate(raw.begin(), raw.end(), 0.0) / n;
    const double my = std::accumulate(observed.begin(), observed.end(), 0.0) / n;
    double sxy = 0.0, sxx = 0.0;
    for (std::size_t i = 0; i < raw.size(); ++i) {
      sxy += (raw[i] - mx) * (observed[i] - my);
      sxx += (raw[i] - mx) * (raw[i] - mx);
    }
    if (sxx > 1e-12) {
      calibration_slope_ = sxy / sxx;
      calibration_offset_ = my - calibration_slope_ * mx;
      // A negative slope would invert the ordering the likelihood learned;
      // fall back to pure offset correction in that degenerate case.
      if (calibration_slope_ <= 0.0) {
        calibration_slope_ = 1.0;
        calibration_offset_ = my - mx;
      }
    } else {
      calibration_offset_ = my - mx;
    }
  }
  fitted_ = true;
}

double TimingPredictor::mean_log_likelihood(
    std::span<const TimingThread> threads) const {
  FORUMCAST_CHECK(fitted());
  FORUMCAST_CHECK(!threads.empty());
  double total = 0.0;
  for (const auto& thread : threads) {
    double ll = 0.0;
    for (const auto& answer : thread.answers) {
      const auto [mu, omega] = rates(answer.features);
      ll += std::log(mu) - omega * answer.delay;
    }
    for (const auto& sample : thread.survival) {
      const auto [mu, omega] = rates(sample.features);
      ll -= sample.weight * mu * survival_integral(omega, thread.open_duration);
    }
    total += ll;
  }
  return total / static_cast<double>(threads.size());
}

double TimingPredictor::raw_estimate(double mu, double omega,
                                     double open_duration) const {
  if (config_.expectation == TimingPredictorConfig::Expectation::PaperUnnormalized) {
    // r̂ = μ/ω² (1 − e^{−ωΔ}(1 + ωΔ)), the paper's E[t] − t(p_{q,0}).
    const double x = omega * open_duration;
    const double tail = x > 500.0 ? 0.0 : std::exp(-x) * (1.0 + x);
    return mu / (omega * omega) * (1.0 - tail);
  }
  return conditional_delay(mu, omega, open_duration);
}

void TimingPredictor::rates(ml::Tensor<const double> rows,
                            std::span<double> mu,
                            std::span<double> omega) const {
  FORUMCAST_CHECK(mu.size() == rows.rows() && omega.size() == rows.rows());
  // Scaled rows live in the thread's workspace arena: transform_rows
  // overwrites every element it exposes, so nothing stale leaks through.
  ml::Workspace::Frame frame;
  ml::Tensor<double> scaled =
      frame.workspace().tensor<double>(rows.rows(), rows.cols());
  scaler_.transform_rows(rows, scaled);
  f_net_->forward_batch_into(scaled, ml::Tensor<double>(mu.data(), mu.size(), 1));
  for (double& value : mu) value += kMuFloor;
  if (g_net_) {
    g_net_->forward_batch_into(
        scaled, ml::Tensor<double>(omega.data(), omega.size(), 1));
    for (double& value : omega) value += kOmegaFloor;
  } else {
    std::fill(omega.begin(), omega.end(),
              ml::softplus(omega_rho_) + kOmegaFloor);
  }
}

std::pair<double, double> TimingPredictor::rates(
    std::span<const double> features) const {
  double mu = 0.0, omega = 0.0;
  rates(ml::one_row(features), {&mu, 1}, {&omega, 1});
  return {mu, omega};
}

double TimingPredictor::predict_delay(std::span<const double> features,
                                      double open_duration) const {
  double delay = 0.0;
  predict_delay_batch(ml::one_row(features), open_duration, {&delay, 1});
  return delay;
}

void TimingPredictor::predict_delay_batch(ml::Tensor<const double> rows,
                                          double open_duration,
                                          std::span<double> out) const {
  FORUMCAST_CHECK(fitted());
  FORUMCAST_CHECK(out.size() == rows.rows());
  if (open_duration <= 0.0) open_duration = mean_open_duration_;
  ml::Workspace::Frame frame;
  ml::Workspace& ws = frame.workspace();
  const std::span<double> mu{ws.alloc<double>(rows.rows()), rows.rows()};
  const std::span<double> omega{ws.alloc<double>(rows.rows()), rows.rows()};
  rates(rows, mu, omega);
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    const double raw = raw_estimate(mu[r], omega[r], open_duration);
    out[r] = std::max(0.0, calibration_offset_ + calibration_slope_ * raw);
  }
}

void TimingPredictor::encode(artifact::Encoder& enc) const {
  FORUMCAST_CHECK_MSG(fitted(), "cannot encode an unfitted TimingPredictor");
  enc.boolean(config_.expectation ==
              TimingPredictorConfig::Expectation::PaperUnnormalized);
  enc.f64(calibration_offset_, "timing calibration offset");
  enc.f64(calibration_slope_, "timing calibration slope");
  enc.f64(mean_open_duration_, "timing mean open duration");
  enc.boolean(static_cast<bool>(g_net_));
  enc.f64(omega_rho_, "timing omega rho");
  ml::encode_scaler(scaler_, enc);
  ml::encode_mlp(*f_net_, enc);
  if (g_net_) ml::encode_mlp(*g_net_, enc);
}

TimingPredictor TimingPredictor::decode(artifact::Decoder& dec) {
  TimingPredictor predictor;
  predictor.config_.expectation =
      dec.boolean("timing expectation kind")
          ? TimingPredictorConfig::Expectation::PaperUnnormalized
          : TimingPredictorConfig::Expectation::ConditionalFirstEvent;
  predictor.calibration_offset_ = dec.f64("timing calibration offset");
  predictor.calibration_slope_ = dec.f64("timing calibration slope");
  // fit() only produces a positive slope (a negative one would invert the
  // learned ordering) and a positive mean open duration (the fallback Δ).
  FORUMCAST_CHECK_MSG(predictor.calibration_slope_ > 0.0,
                      "timing calibration slope must be positive");
  predictor.mean_open_duration_ = dec.f64("timing mean open duration");
  FORUMCAST_CHECK_MSG(predictor.mean_open_duration_ > 0.0,
                      "timing mean open duration must be positive");
  predictor.config_.learn_omega = dec.boolean("timing omega kind");
  predictor.omega_rho_ = dec.f64("timing omega rho");
  predictor.scaler_ = ml::decode_scaler(dec);
  const auto decode_rate_net = [&](const char* name) {
    auto net = std::make_unique<ml::Mlp>(ml::decode_mlp(dec));
    FORUMCAST_CHECK_MSG(
        net->input_dim() == predictor.scaler_.dimension() &&
            net->output_dim() == 1,
        "timing predictor shape mismatch: scaler dimension "
            << predictor.scaler_.dimension() << ", " << name << " network "
            << net->input_dim() << " -> " << net->output_dim());
    return net;
  };
  predictor.f_net_ = decode_rate_net("excitation");
  if (predictor.config_.learn_omega) {
    predictor.g_net_ = decode_rate_net("decay");
  }
  predictor.fitted_ = true;
  return predictor;
}

double TimingPredictor::cumulative_intensity(std::span<const double> features,
                                             double horizon_hours) const {
  FORUMCAST_CHECK(fitted());
  FORUMCAST_CHECK(horizon_hours >= 0.0);
  const auto [mu, omega] = rates(features);
  return mu * survival_integral(omega, horizon_hours);
}

double TimingPredictor::probability_answer_within(
    std::span<const double> features, double horizon_hours) const {
  return 1.0 - std::exp(-cumulative_intensity(features, horizon_hours));
}

double TimingPredictor::excitation(std::span<const double> features) const {
  FORUMCAST_CHECK(fitted());
  return rates(features).first;
}

double TimingPredictor::decay(std::span<const double> features) const {
  FORUMCAST_CHECK(fitted());
  return rates(features).second;
}

}  // namespace forumcast::core
