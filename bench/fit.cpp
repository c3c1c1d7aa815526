// Training throughput: the whole pipeline fit, the point-process timing fit
// that dominates it, and the guarded kernel of that fit.
//
// Every network trainer has one layout: each minibatch is one gemm-backed
// forward and backward over its flattened rows. The guard
// (tools/run_bench.sh, BENCH_FIT_MIN_SPEEDUP) is the speedup of that layout
// over the per-sample Mlp::Tape reference, measured on one excitation-net
// minibatch: BM_TimingNetStepBatched over BM_TimingNetStepPerSample, rows per
// second. Both produce bit-identical gradients (checked in the bench itself),
// so rows per second is the only axis.
//
// BM_PipelineFit/{1,8} is a report, not a guard: --fit-threads only shards
// LDA now, so the 8-vs-1 ratio measures AD-LDA sharding and scales with the
// host's cores.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "core/pipeline.hpp"
#include "core/timing_predictor.hpp"
#include "forum/generator.hpp"
#include "ml/matrix.hpp"
#include "ml/mlp.hpp"
#include "util/rng.hpp"

namespace {

using namespace forumcast;

struct FitFixture {
  forum::Dataset dataset;
  std::vector<forum::QuestionId> history;

  static FitFixture& instance() {
    static FitFixture fixture;
    return fixture;
  }

 private:
  FitFixture() : dataset(make_dataset()) {
    history = dataset.questions_in_days(1, 25);
  }

  static forum::Dataset make_dataset() {
    forum::GeneratorConfig config;
    config.num_users = 800;
    config.num_questions = 500;
    config.mean_extra_answers = 2.0;
    config.seed = 47;
    return forum::generate_forum(config).dataset.preprocessed();
  }
};

core::PipelineConfig pipeline_config(std::size_t fit_threads) {
  core::PipelineConfig config;
  config.extractor.lda.iterations = 10;
  config.answer.logistic.epochs = 40;
  config.vote.epochs = 15;
  config.timing.epochs = 8;
  config.survival_samples_per_thread = 10;
  config.fit_threads = fit_threads;
  return config;
}

void BM_PipelineFit(benchmark::State& state) {
  auto& fixture = FitFixture::instance();
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    core::ForecastPipeline pipeline(pipeline_config(threads));
    pipeline.fit(fixture.dataset, fixture.history);
    benchmark::DoNotOptimize(pipeline.generation());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fixture.history.size()));
}
BENCHMARK(BM_PipelineFit)->Arg(1)->Arg(8)->Unit(benchmark::kSecond);

// Isolates the dominant stage (the point-process likelihood is ~95% of
// pipeline.fit wall-clock) on synthetic threads so regressions in the
// batched tape path show up without the LDA/feature noise in front.
std::vector<core::TimingThread> synthetic_timing_threads(std::size_t n,
                                                         std::size_t dim) {
  std::vector<core::TimingThread> threads;
  util::Rng rng(101);
  for (std::size_t t = 0; t < n; ++t) {
    core::TimingThread thread;
    thread.open_duration = 24.0 + rng.uniform(0.0, 120.0);
    const std::size_t answers = 1 + rng.uniform_index(3);
    for (std::size_t a = 0; a < answers; ++a) {
      core::TimingThread::Answer answer;
      for (std::size_t c = 0; c < dim; ++c) {
        answer.features.push_back(rng.normal(0.0, 1.0));
      }
      answer.delay = rng.uniform(0.1, thread.open_duration);
      thread.answers.push_back(std::move(answer));
    }
    for (std::size_t s = 0; s < 10; ++s) {
      core::TimingThread::SurvivalSample sample;
      for (std::size_t c = 0; c < dim; ++c) {
        sample.features.push_back(rng.normal(0.0, 1.0));
      }
      sample.weight = 1.0 + rng.uniform(0.0, 20.0);
      thread.survival.push_back(std::move(sample));
    }
    threads.push_back(std::move(thread));
  }
  return threads;
}

void BM_TimingFit(benchmark::State& state) {
  static const auto threads_data = synthetic_timing_threads(250, 34);
  core::TimingPredictorConfig config;
  config.epochs = 10;
  for (auto _ : state) {
    core::TimingPredictor predictor(config);
    predictor.fit(threads_data);
    benchmark::DoNotOptimize(predictor.fitted());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(threads_data.size()));
}
BENCHMARK(BM_TimingFit)->Unit(benchmark::kSecond);

// One minibatch of the timing fit's excitation net f_Θ at production shape:
// 34 features -> 100 -> 50 (tanh) -> 1 (softplus), over the event rows of
// TimingPredictorConfig::batch_size (8) synthetic threads (answers then
// survival samples, about 96 rows), with fixed dL/dμ per row.
struct NetStepFixture {
  ml::Mlp net{34,
              {{100, ml::Activation::Tanh},
               {50, ml::Activation::Tanh},
               {1, ml::Activation::Softplus}},
              23};
  ml::Matrix rows;
  ml::Matrix grad_output;

  static NetStepFixture& instance() {
    static NetStepFixture fixture;
    return fixture;
  }

  std::vector<double> per_sample_grads() {
    ml::Mlp::Tape tape;
    net.zero_grad();
    for (std::size_t r = 0; r < rows.rows(); ++r) {
      net.forward(rows.row(r), tape);
      net.backward(tape, grad_output.row(r));
    }
    return {net.grads().begin(), net.grads().end()};
  }

  std::vector<double> batched_grads(ml::Mlp::BatchTape& tape) {
    net.zero_grad();
    net.forward_batch(rows, tape);
    net.backward_batch(tape, grad_output.view());
    return {net.grads().begin(), net.grads().end()};
  }

 private:
  NetStepFixture() {
    const auto threads = synthetic_timing_threads(8, 34);
    std::vector<const std::vector<double>*> features;
    for (const auto& thread : threads) {
      for (const auto& answer : thread.answers) features.push_back(&answer.features);
      for (const auto& sample : thread.survival) features.push_back(&sample.features);
    }
    rows.resize(features.size(), 34);
    grad_output.resize(features.size(), 1);
    util::Rng rng(103);
    for (std::size_t r = 0; r < features.size(); ++r) {
      std::copy(features[r]->begin(), features[r]->end(), rows.row(r).begin());
      grad_output(r, 0) = rng.normal(0.0, 0.1);
    }
  }
};

void BM_TimingNetStepPerSample(benchmark::State& state) {
  auto& fixture = NetStepFixture::instance();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.per_sample_grads());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fixture.rows.rows()));
  state.counters["rows"] = static_cast<double>(fixture.rows.rows());
}
BENCHMARK(BM_TimingNetStepPerSample)->Unit(benchmark::kMillisecond);

void BM_TimingNetStepBatched(benchmark::State& state) {
  auto& fixture = NetStepFixture::instance();
  ml::Mlp::BatchTape tape;
  if (fixture.batched_grads(tape) != fixture.per_sample_grads()) {
    state.SkipWithError("batched gradients differ from the per-sample ones");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.batched_grads(tape));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fixture.rows.rows()));
  state.counters["rows"] = static_cast<double>(fixture.rows.rows());
}
BENCHMARK(BM_TimingNetStepBatched)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
