// QualityMonitor: the live model-quality layer tying the pieces together.
//
//   serving path ──record_batch()──▶ PredictionLedger
//   event stream ──observe_answer()/observe_vote()──▶ label-join ──▶
//       ScoreReservoir (AUC) · CalibrationHistogram (ECE) ·
//       RollingWindow (vote RMSE, timing log-likelihood)
//   serving features (sampled) ──▶ DriftDetector (PSI vs fit-time baseline)
//   event-time timer ──maybe_evaluate()──▶ SloEngine ──▶ gauges + report
//
// The monitor sits below serve/ and stream/ in the layering: BatchScorer and
// LiveState call *into* it with plain ids, predictions, and outcome facts —
// it never touches their types, so core/serve/stream stay free of monitoring
// concerns beyond a pointer and a few calls.
//
// Label-join policy (first answer): when question q receives its first
// observed answer by user a, every pending ledger entry for q resolves at
// once — a's entry as the positive (with the realized delay scoring the
// timing model), everyone else's as negatives. Resolved positives are then
// watched for Vote events, each of which contributes a (predicted, realized
// net votes) RMSE sample.
//
// Thread safety: every public method locks one internal mutex. The serving
// hot path pays that lock plus O(users) ring writes per batch — measured
// against the < 5% ingest-overhead budget by bench/monitor.cpp.
//
// FORUMCAST_OBS=OFF: record_batch/observe/evaluate return immediately (the
// acceptance-criteria no-op form); the pure components above stay fully
// functional for their own tests.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/pipeline.hpp"
#include "features/baseline.hpp"
#include "obs/metrics.hpp"
#include "obs/monitor/drift.hpp"
#include "obs/monitor/ledger.hpp"
#include "obs/monitor/quality.hpp"
#include "obs/monitor/slo.hpp"

namespace forumcast::obs::monitor {

struct MonitorConfig {
  std::size_t ledger_capacity = 4096;
  std::size_t reservoir_capacity = 2048;
  /// Rolling-window sample count for vote RMSE and timing log-likelihood.
  std::size_t window = 512;
  /// Every Nth recorded prediction has its feature vector folded into the
  /// drift detector (feature extraction costs ~the prediction itself, so
  /// sampling keeps the monitor inside its overhead budget).
  std::size_t drift_sample_every = 4;
  std::size_t drift_min_samples = 50;
  /// Resolved positives watched for vote outcomes (FIFO-bounded).
  std::size_t vote_watch_capacity = 1024;
  /// Event-time hours between SLO evaluations.
  double eval_interval_hours = 1.0;
  std::uint64_t seed = 2026;

  // Default SLO thresholds (CLI flags override).
  double slo_auc_min = 0.80;
  double slo_psi_max = 0.25;
  double slo_p99_latency_ms = 5.0;
  int slo_breach_after = 3;
};

struct MonitorReport {
  double event_time_hours = 0.0;
  std::size_t evaluations = 0;
  std::uint64_t predictions_recorded = 0;
  std::uint64_t outcomes_joined = 0;
  std::size_t ledger_pending = 0;
  std::uint64_t ledger_evicted = 0;
  std::uint64_t drift_samples = 0;
  std::optional<double> auc;
  std::optional<double> vote_rmse;
  std::optional<double> timing_loglik;
  std::optional<double> calibration_ece;
  std::optional<double> psi_max;
  /// Per-feature PSI, one entry per paper feature (max over its columns),
  /// named with the paper symbol ("a_u", "d_u", …).
  std::vector<std::pair<std::string, double>> feature_psi;
  std::optional<double> p50_latency_ms;
  std::optional<double> p99_latency_ms;
  std::vector<SloStatus> slos;
  bool refit_recommended = false;

  /// Human-readable summary for the CLI `ingest` report.
  std::string to_string() const;
};

class QualityMonitor {
 public:
  explicit QualityMonitor(MonitorConfig config = {});

  /// Installs the fit-time drift reference (from
  /// ForecastPipeline::feature_baseline()) and resets the live drift window.
  void set_baseline(features::FeatureBaseline baseline);

  /// Feature source for drift sampling, typically
  ///   [&p](u, q) { return p.extractor().features(u, q); }
  /// Called on the serving thread under the monitor lock, every
  /// drift_sample_every-th recorded prediction.
  void set_feature_fn(core::FeatureFn fn);

  /// Ledger one batch (BatchScorer::score output), entries in user order —
  /// insertion order into the AUC reservoir is the call order, independent
  /// of how many threads scored the batch internally.
  void record_batch(forum::QuestionId question,
                    std::span<const forum::UserId> users,
                    std::span<const core::Prediction> predictions,
                    std::uint64_t model_epoch);

  /// One batched score() call's wall time.
  void observe_score_latency(double milliseconds, std::size_t pairs);

  /// Stream facts, forwarded by stream::LiveState.
  void observe_question(forum::QuestionId question, double event_time_hours);
  void observe_answer(forum::QuestionId question, forum::UserId answerer,
                      double realized_delay_hours, double event_time_hours);
  void observe_vote(forum::QuestionId question, forum::UserId answer_creator,
                    double net_votes, double event_time_hours);

  /// Hot swap: adopt the incoming model's baseline and forget the outgoing
  /// model's drift window (its traffic must not indict the new model).
  void on_model_swap(features::FeatureBaseline baseline);

  /// Event-time SLO timer: runs an evaluation when `now_hours` has advanced
  /// at least eval_interval_hours past the last one. Returns true when an
  /// evaluation ran. Called by LiveState at the end of every ingest batch.
  bool maybe_evaluate(double now_hours);

  /// Unconditional evaluation tick (tests, end-of-run report).
  MonitorReport evaluate_now(double now_hours);

  /// The last evaluation's report (empty before the first evaluation).
  MonitorReport last_report() const;

  /// Reservoir content digest for the bit-determinism regression test.
  std::uint64_t auc_reservoir_digest() const;

  const MonitorConfig& config() const { return config_; }

 private:
  MonitorReport build_report_locked(double now_hours);
  void export_metrics_locked(const MonitorReport& report);
  void advance_clock_locked(double event_time_hours);

  MonitorConfig config_;
  mutable std::mutex mutex_;

  PredictionLedger ledger_;
  ScoreReservoir reservoir_;
  RollingWindow vote_errors_;    ///< squared errors
  RollingWindow timing_loglik_;  ///< per-outcome log-likelihoods
  CalibrationHistogram calibration_;
  DriftDetector drift_;
  SloEngine slo_;
  Histogram latency_hist_;  ///< score() wall ms, kept monitor-local

  core::FeatureFn feature_fn_;
  std::uint64_t outcomes_joined_ = 0;

  /// Resolved positives awaiting vote outcomes: (q, u) → predicted votes.
  std::unordered_map<std::uint64_t, double> vote_watch_;
  std::deque<std::uint64_t> vote_watch_order_;

  double clock_hours_ = 0.0;
  std::optional<double> last_eval_hours_;
  MonitorReport last_report_;
};

}  // namespace forumcast::obs::monitor
