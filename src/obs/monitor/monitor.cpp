#include "obs/monitor/monitor.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "features/feature_layout.hpp"
#include "util/check.hpp"

namespace forumcast::obs::monitor {

namespace {

constexpr bool kEnabled = FORUMCAST_OBS_ENABLED != 0;

std::uint64_t watch_key(forum::QuestionId q, forum::UserId u) {
  return (static_cast<std::uint64_t>(q) << 32) | u;
}

void append_metric(std::ostringstream& out, const char* label,
                   const std::optional<double>& value,
                   const char* absent = "n/a (still warming up)") {
  out << "  " << label;
  if (value) {
    out << *value;
  } else {
    out << absent;
  }
  out << "\n";
}

}  // namespace

QualityMonitor::QualityMonitor(MonitorConfig config)
    : config_(config),
      ledger_(config.ledger_capacity),
      reservoir_(config.reservoir_capacity, config.seed),
      vote_errors_(config.window),
      timing_loglik_(config.window),
      drift_(config.drift_min_samples),
      latency_hist_({0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 100.0}) {
  slo_.add_rule({.name = "auc_min",
                 .metric = "auc",
                 .lower_bound = true,
                 .threshold = config_.slo_auc_min,
                 .breach_after = config_.slo_breach_after,
                 .refit_trigger = true});
  slo_.add_rule({.name = "psi_max",
                 .metric = "psi_max",
                 .lower_bound = false,
                 .threshold = config_.slo_psi_max,
                 .breach_after = config_.slo_breach_after,
                 .refit_trigger = true});
  slo_.add_rule({.name = "p99_score_latency_ms",
                 .metric = "p99_score_latency_ms",
                 .lower_bound = false,
                 .threshold = config_.slo_p99_latency_ms,
                 .breach_after = config_.slo_breach_after,
                 .refit_trigger = false});
}

void QualityMonitor::set_baseline(features::FeatureBaseline baseline) {
  const std::lock_guard<std::mutex> lock(mutex_);
  drift_.set_baseline(std::move(baseline));
}

void QualityMonitor::set_feature_fn(core::FeatureFn fn) {
  const std::lock_guard<std::mutex> lock(mutex_);
  feature_fn_ = std::move(fn);
}

void QualityMonitor::advance_clock_locked(double event_time_hours) {
  clock_hours_ = std::max(clock_hours_, event_time_hours);
  if (!last_eval_hours_) last_eval_hours_ = clock_hours_;
}

void QualityMonitor::record_batch(forum::QuestionId question,
                                  std::span<const forum::UserId> users,
                                  std::span<const core::Prediction> predictions,
                                  std::uint64_t model_epoch) {
  if constexpr (!kEnabled) return;
  FORUMCAST_CHECK(users.size() == predictions.size());
  const std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < users.size(); ++i) {
    ledger_.record({.question = question,
                    .user = users[i],
                    .answer_probability = predictions[i].answer_probability,
                    .votes = predictions[i].votes,
                    .delay_hours = predictions[i].delay_hours,
                    .model_epoch = model_epoch,
                    .record_time_hours = clock_hours_});
    if (feature_fn_ && drift_.has_baseline() &&
        ledger_.recorded() % config_.drift_sample_every == 0) {
      drift_.observe(feature_fn_(users[i], question));
    }
  }
}

void QualityMonitor::observe_score_latency(double milliseconds,
                                           std::size_t pairs) {
  if constexpr (!kEnabled) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  latency_hist_.observe(milliseconds);
  (void)pairs;
}

void QualityMonitor::observe_question(forum::QuestionId question,
                                      double event_time_hours) {
  if constexpr (!kEnabled) return;
  (void)question;
  const std::lock_guard<std::mutex> lock(mutex_);
  advance_clock_locked(event_time_hours);
}

void QualityMonitor::observe_answer(forum::QuestionId question,
                                    forum::UserId answerer,
                                    double realized_delay_hours,
                                    double event_time_hours) {
  if constexpr (!kEnabled) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  advance_clock_locked(event_time_hours);

  const PredictionLedger::Resolution resolution =
      ledger_.resolve_question(question, answerer);
  if (resolution.entries.empty()) return;
  outcomes_joined_ += resolution.entries.size();

  for (std::size_t i = 0; i < resolution.entries.size(); ++i) {
    const LedgerEntry& entry = resolution.entries[i];
    const int label =
        static_cast<std::ptrdiff_t>(i) == resolution.positive_index ? 1 : 0;
    reservoir_.add(entry.answer_probability, label);
    calibration_.add(entry.answer_probability, label);
    if (label == 1) {
      timing_loglik_.add(
          timing_log_likelihood(entry.delay_hours, realized_delay_hours));
      // Watch the answer for vote outcomes; FIFO-bounded.
      const std::uint64_t key = watch_key(question, answerer);
      if (vote_watch_.emplace(key, entry.votes).second) {
        vote_watch_order_.push_back(key);
        if (vote_watch_order_.size() > config_.vote_watch_capacity) {
          vote_watch_.erase(vote_watch_order_.front());
          vote_watch_order_.pop_front();
        }
      }
    }
  }
}

void QualityMonitor::observe_vote(forum::QuestionId question,
                                  forum::UserId answer_creator,
                                  double net_votes, double event_time_hours) {
  if constexpr (!kEnabled) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  advance_clock_locked(event_time_hours);
  const auto it = vote_watch_.find(watch_key(question, answer_creator));
  if (it == vote_watch_.end()) return;
  // Each vote event re-samples the answer against its current net votes, so
  // the window tracks the freshest realized value without waiting for a
  // "final" count that never formally arrives.
  const double error = it->second - net_votes;
  vote_errors_.add(error * error);
}

void QualityMonitor::on_model_swap(features::FeatureBaseline baseline) {
  if constexpr (!kEnabled) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  drift_.set_baseline(std::move(baseline));
}

bool QualityMonitor::maybe_evaluate(double now_hours) {
  if constexpr (!kEnabled) return false;
  const std::lock_guard<std::mutex> lock(mutex_);
  advance_clock_locked(now_hours);
  if (clock_hours_ - *last_eval_hours_ < config_.eval_interval_hours) {
    return false;
  }
  last_report_ = build_report_locked(clock_hours_);
  return true;
}

MonitorReport QualityMonitor::evaluate_now(double now_hours) {
  if constexpr (!kEnabled) return {};
  const std::lock_guard<std::mutex> lock(mutex_);
  advance_clock_locked(now_hours);
  last_report_ = build_report_locked(clock_hours_);
  return last_report_;
}

MonitorReport QualityMonitor::last_report() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return last_report_;
}

std::uint64_t QualityMonitor::auc_reservoir_digest() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return reservoir_.digest();
}

MonitorReport QualityMonitor::build_report_locked(double now_hours) {
  last_eval_hours_ = now_hours;

  MonitorReport report;
  report.event_time_hours = now_hours;
  report.predictions_recorded = ledger_.recorded();
  report.outcomes_joined = outcomes_joined_;
  report.ledger_pending = ledger_.pending();
  report.ledger_evicted = ledger_.evicted();
  report.drift_samples = drift_.samples();
  report.auc = reservoir_.auc();
  report.vote_rmse = vote_errors_.root_mean();
  report.timing_loglik = timing_loglik_.mean();
  report.calibration_ece = calibration_.ece();
  report.psi_max = drift_.psi_max();

  // Per-feature PSI: max over each paper feature's columns, so the two
  // K-wide topic distributions collapse to one number each.
  const std::vector<double> column_psi = drift_.per_column_psi();
  if (!column_psi.empty() &&
      column_psi.size() >= 18) {  // dimension = 18 + 2K
    const std::size_t num_topics = (column_psi.size() - 18) / 2;
    const features::FeatureLayout layout(num_topics);
    if (layout.dimension() == column_psi.size()) {
      for (const features::FeatureId id : features::all_features()) {
        double feature_max = 0.0;
        const std::size_t offset = layout.offset(id);
        for (std::size_t c = 0; c < layout.width(id); ++c) {
          feature_max = std::max(feature_max, column_psi[offset + c]);
        }
        report.feature_psi.emplace_back(features::feature_name(id),
                                        feature_max);
      }
    }
  }

  const Histogram::Snapshot latency = latency_hist_.snapshot();
  if (latency.total_count > 0) {
    report.p50_latency_ms = latency.quantile(0.50);
    report.p99_latency_ms = latency.quantile(0.99);
  }

  std::map<std::string, double> values;
  if (report.auc) values["auc"] = *report.auc;
  if (report.vote_rmse) values["vote_rmse"] = *report.vote_rmse;
  if (report.timing_loglik) values["timing_loglik"] = *report.timing_loglik;
  if (report.calibration_ece) {
    values["calibration_ece"] = *report.calibration_ece;
  }
  if (report.psi_max) values["psi_max"] = *report.psi_max;
  if (report.p99_latency_ms) {
    values["p99_score_latency_ms"] = *report.p99_latency_ms;
  }
  slo_.evaluate(values);
  report.slos = slo_.statuses();
  report.refit_recommended = slo_.refit_recommended();
  report.evaluations = slo_.evaluations();

  export_metrics_locked(report);
  return report;
}

void QualityMonitor::export_metrics_locked(const MonitorReport& report) {
  MetricsRegistry& registry = MetricsRegistry::global();
  const auto set = [&registry](const char* name,
                               const std::optional<double>& value) {
    if (value) registry.gauge(name).set(*value);
  };
  set("monitor.auc", report.auc);
  set("monitor.vote_rmse", report.vote_rmse);
  set("monitor.timing_loglik", report.timing_loglik);
  set("monitor.calibration_ece", report.calibration_ece);
  set("monitor.psi_max", report.psi_max);
  set("monitor.p50_score_latency_ms", report.p50_latency_ms);
  set("monitor.p99_score_latency_ms", report.p99_latency_ms);
  for (const auto& [name, psi] : report.feature_psi) {
    registry.gauge("monitor.psi." + name).set(psi);
  }
  for (const SloStatus& status : report.slos) {
    registry.gauge("monitor.slo." + status.rule.name)
        .set(static_cast<double>(status.state));
  }
  registry.gauge("monitor.refit_recommended")
      .set(report.refit_recommended ? 1.0 : 0.0);
  registry.gauge("monitor.ledger_pending")
      .set(static_cast<double>(report.ledger_pending));
  registry.gauge("monitor.predictions_recorded")
      .set(static_cast<double>(report.predictions_recorded));
  registry.gauge("monitor.outcomes_joined")
      .set(static_cast<double>(report.outcomes_joined));
}

std::string MonitorReport::to_string() const {
  std::ostringstream out;
  out << "model-quality monitor @ t=" << event_time_hours << "h ("
      << evaluations << " evaluations)\n";
  out << "  predictions recorded:   " << predictions_recorded << " ("
      << ledger_pending << " pending, " << ledger_evicted << " evicted)\n";
  out << "  outcomes joined:        " << outcomes_joined << "\n";
  append_metric(out, "rolling AUC:            ", auc);
  append_metric(out, "vote RMSE:              ", vote_rmse);
  append_metric(out, "timing log-likelihood:  ", timing_loglik);
  append_metric(out, "calibration ECE:        ", calibration_ece);
  if (psi_max) {
    out << "  feature drift (PSI over " << drift_samples << " samples): max "
        << *psi_max << "\n";
    // Only the movers: a 20-line all-zeros table helps nobody.
    for (const auto& [name, psi] : feature_psi) {
      if (psi >= 0.1) out << "    " << name << ": " << psi << "\n";
    }
  } else {
    out << "  feature drift:          n/a (" << drift_samples
        << " samples, or no baseline)\n";
  }
  if (p99_latency_ms) {
    out << "  score latency:          p50 " << *p50_latency_ms << " ms, p99 "
        << *p99_latency_ms << " ms\n";
  }
  out << "  SLOs:\n";
  for (const SloStatus& status : slos) {
    out << "    " << status.rule.name << " ("
        << (status.rule.lower_bound ? ">= " : "<= ")
        << status.rule.threshold << "): " << slo_state_name(status.state);
    if (status.last_value) out << " [value " << *status.last_value << "]";
    out << "\n";
  }
  out << "  refit recommended:      " << (refit_recommended ? "YES" : "no")
      << "\n";
  return std::move(out).str();
}

}  // namespace forumcast::obs::monitor
