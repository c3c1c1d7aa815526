// Model-bundle codec round trips for the three predictors: a decoded
// predictor must predict bit-identically to the one encoded.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "artifact/artifact.hpp"
#include "core/answer_predictor.hpp"
#include "core/timing_predictor.hpp"
#include "core/vote_predictor.hpp"
#include "ml/matrix.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace forumcast::core {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Encodes `original`, decodes it back and checks the payload was consumed.
template <typename Predictor>
Predictor round_trip(const Predictor& original) {
  artifact::Encoder enc;
  original.encode(enc);
  artifact::Decoder dec(enc.bytes(), "predictor");
  Predictor loaded = Predictor::decode(dec);
  dec.finish();
  return loaded;
}

ml::Matrix to_matrix(const std::vector<std::vector<double>>& rows) {
  ml::Matrix m(rows.size(), rows.front().size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::copy(rows[r].begin(), rows[r].end(), m.row(r).begin());
  }
  return m;
}

TEST(CoreSerialize, AnswerPredictorRoundTrip) {
  util::Rng rng(1);
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
  for (int i = 0; i < 300; ++i) {
    const double x = rng.normal();
    rows.push_back({x, rng.normal(0.0, 10.0)});
    labels.push_back(x > 0.0 ? 1 : 0);
  }
  AnswerPredictor original;
  original.fit(rows, labels);
  const AnswerPredictor loaded = round_trip(original);
  EXPECT_EQ(loaded.input_dim(), 2u);
  for (const auto& row : rows) {
    EXPECT_EQ(bits(original.predict_probability(row)),
              bits(loaded.predict_probability(row)));
  }
}

TEST(CoreSerialize, VotePredictorRoundTrip) {
  util::Rng rng(3);
  std::vector<std::vector<double>> rows;
  std::vector<double> targets;
  for (int i = 0; i < 200; ++i) {
    const double x = rng.uniform(-2.0, 2.0);
    rows.push_back({x});
    targets.push_back(3.0 * x - 1.0 + rng.normal(0.0, 0.1));
  }
  VotePredictor original({.epochs = 40, .seed = 5});
  original.fit(rows, targets);
  const VotePredictor loaded = round_trip(original);
  const ml::Matrix batch_rows = to_matrix(rows);
  std::vector<double> batch(rows.size());
  loaded.predict_batch(batch_rows.view(), batch);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    EXPECT_EQ(bits(original.predict(rows[r])), bits(loaded.predict(rows[r])));
    EXPECT_EQ(bits(original.predict(rows[r])), bits(batch[r]));
  }
}

std::vector<TimingThread> tiny_timing_threads() {
  util::Rng rng(7);
  std::vector<TimingThread> threads;
  for (int i = 0; i < 60; ++i) {
    TimingThread thread;
    thread.open_duration = 100.0;
    const bool fast = (i % 2 == 0);
    thread.answers.push_back(
        {{fast ? 1.0 : 0.0, 0.5}, rng.exponential(fast ? 1.0 : 0.05)});
    thread.survival.push_back({{fast ? 1.0 : 0.0, 0.5}, 1.0});
    thread.survival.push_back({{fast ? 0.0 : 1.0, 0.1}, 4.0});
    threads.push_back(std::move(thread));
  }
  return threads;
}

/// Scalar and batch delays, rates, and the open-duration fallback of the
/// decoded predictor all match the original bit for bit.
void expect_timing_bit_identical(const TimingPredictor& original,
                                 const TimingPredictor& loaded) {
  const std::vector<std::vector<double>> rows = {
      {0.0, 0.5}, {0.3, 0.5}, {1.0, 0.5}, {1.0, 0.1}};
  for (double open : {50.0, 100.0, 0.0}) {
    std::vector<double> batch(rows.size());
    loaded.predict_delay_batch(to_matrix(rows).view(), open, batch);
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const double expected = original.predict_delay(rows[r], open);
      EXPECT_EQ(bits(expected), bits(loaded.predict_delay(rows[r], open)));
      EXPECT_EQ(bits(expected), bits(batch[r]));
    }
  }
  for (const auto& row : rows) {
    EXPECT_EQ(bits(original.excitation(row)), bits(loaded.excitation(row)));
    EXPECT_EQ(bits(original.decay(row)), bits(loaded.decay(row)));
    EXPECT_EQ(bits(original.cumulative_intensity(row, 24.0)),
              bits(loaded.cumulative_intensity(row, 24.0)));
  }
}

TEST(CoreSerialize, TimingPredictorRoundTripLearnedOmega) {
  TimingPredictorConfig config;
  config.epochs = 10;
  config.f_hidden = {8, 4};
  config.g_hidden = {8, 4};
  TimingPredictor original(config);
  original.fit(tiny_timing_threads());
  expect_timing_bit_identical(original, round_trip(original));
}

TEST(CoreSerialize, TimingPredictorRoundTripConstantOmega) {
  // Constant ω under both estimators: the paper's closed form and the
  // conditional first-event estimator the serving path uses.
  for (const auto expectation :
       {TimingPredictorConfig::Expectation::PaperUnnormalized,
        TimingPredictorConfig::Expectation::ConditionalFirstEvent}) {
    TimingPredictorConfig config;
    config.epochs = 8;
    config.f_hidden = {6};
    config.learn_omega = false;
    config.expectation = expectation;
    TimingPredictor original(config);
    original.fit(tiny_timing_threads());
    expect_timing_bit_identical(original, round_trip(original));
  }
}

/// The timing payload with one leading f64 field replaced. Layout: the
/// expectation-kind byte, then calibration offset, calibration slope and
/// mean open duration (8 bytes each).
std::string patched_timing_payload(std::size_t field, double value) {
  TimingPredictorConfig config;
  config.epochs = 2;
  config.f_hidden = {4};
  config.learn_omega = false;
  TimingPredictor original(config);
  original.fit(tiny_timing_threads());
  artifact::Encoder enc;
  original.encode(enc);
  artifact::Encoder patch;
  patch.f64(value, "patched field");
  std::string payload = enc.bytes();
  payload.replace(1 + 8 * field, 8, patch.bytes());
  return payload;
}

void expect_timing_decode_rejects(std::size_t field, double value,
                                  const std::string& message) {
  artifact::Decoder dec(patched_timing_payload(field, value), "hostile timing");
  try {
    TimingPredictor::decode(dec);
    FAIL() << "decoded a timing payload with field " << field << " = "
           << value;
  } catch (const util::CheckError& error) {
    EXPECT_NE(std::string(error.what()).find(message), std::string::npos)
        << error.what();
  }
}

TEST(CoreSerialize, TimingDecodeRejectsNonPositiveCalibrationSlope) {
  // A slope ≤ 0 would invert the ordering the likelihood learned.
  for (double slope : {0.0, -0.0, -1.5}) {
    expect_timing_decode_rejects(1, slope,
                                 "timing calibration slope must be positive");
  }
}

TEST(CoreSerialize, TimingDecodeRejectsNonPositiveMeanOpenDuration) {
  // The mean open duration is the fallback Δ; ≤ 0 would feed the delay
  // estimator a non-positive horizon.
  for (double duration : {0.0, -24.0}) {
    expect_timing_decode_rejects(
        2, duration, "timing mean open duration must be positive");
  }
}

TEST(CoreSerialize, UnfittedSaveRejected) {
  artifact::Encoder enc;
  EXPECT_THROW(AnswerPredictor().encode(enc), util::CheckError);
  EXPECT_THROW(VotePredictor().encode(enc), util::CheckError);
  EXPECT_THROW(TimingPredictor().encode(enc), util::CheckError);
}

TEST(CoreSerialize, CrossKindLoadRejected) {
  util::Rng rng(9);
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
  for (int i = 0; i < 50; ++i) {
    rows.push_back({rng.normal()});
    labels.push_back(i % 2);
  }
  AnswerPredictor answer;
  answer.fit(rows, labels);
  artifact::Encoder enc;
  answer.encode(enc);
  artifact::Decoder dec(enc.bytes(), "answer payload read as vote");
  EXPECT_THROW(
      {
        VotePredictor::decode(dec);
        dec.finish();
      },
      util::CheckError);
}

}  // namespace
}  // namespace forumcast::core
