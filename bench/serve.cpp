// Batch-vs-scalar scoring throughput for the serving layer.
//
// Guards the headline BatchScorer win: scoring one question against N
// candidates through the cached-feature + blocked-GEMM path must beat N
// independent ForecastPipeline::predict calls by a wide margin (the CI bench
// guard in tools/run_bench.sh enforces the ratio). Both paths produce
// bit-identical predictions, so items_per_second is the only axis.
//
// The fixture fits one pipeline on a mid-sized generated forum with the
// default ConditionalFirstEvent delay estimator, so both paths pay the
// served timing head. BM_TimingDelayBatch reports that head alone (rows/sec)
// at constant and learned ω; it is a report, not a guard.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "core/pipeline.hpp"
#include "forum/generator.hpp"
#include "ml/matrix.hpp"
#include "serve/batch_scorer.hpp"

namespace {

using namespace forumcast;

struct ServeFixture {
  forum::Dataset dataset;
  core::ForecastPipeline pipeline;
  forum::QuestionId question = 0;
  std::vector<forum::UserId> users;

  static ServeFixture& instance() {
    static ServeFixture fixture;
    return fixture;
  }

  /// The pipeline's timing head refit with the decay network g_Θ (learned
  /// ω, the library default) on the same threads; built on first use.
  const core::TimingPredictor& learned_omega_timing() {
    if (!learned_omega_) {
      const auto history = dataset.questions_in_days(1, 25);
      const core::PipelineConfig pipeline_config = make_config();
      const auto threads = core::build_timing_threads(
          dataset, pipeline.extractor(), dataset.answered_pairs(history),
          dataset.last_post_time(), pipeline_config.survival_samples_per_thread,
          pipeline_config.seed ^ 0x7117ULL);
      core::TimingPredictorConfig config = pipeline_config.timing;
      config.learn_omega = true;
      config.g_hidden = config.f_hidden;
      learned_omega_.emplace(config);
      learned_omega_->fit(threads);
    }
    return *learned_omega_;
  }

 private:
  ServeFixture() : dataset(make_dataset()), pipeline(make_config()) {
    const auto history = dataset.questions_in_days(1, 25);
    pipeline.fit(dataset, history);
    const auto late = dataset.questions_in_days(26, 30);
    question = late.empty()
                   ? static_cast<forum::QuestionId>(dataset.num_questions() - 1)
                   : late.front();
    users.resize(dataset.num_users());
    for (std::size_t i = 0; i < users.size(); ++i) {
      users[i] = static_cast<forum::UserId>(i);
    }
  }

  static forum::Dataset make_dataset() {
    forum::GeneratorConfig config;
    config.num_users = 1200;
    // Dense history: candidate answerers carry a real answer record (the
    // paper's Stack Overflow regulars), which is what the per-pair feature
    // loops in the scalar path scale with and the cache amortizes.
    config.num_questions = 900;
    config.mean_extra_answers = 2.0;
    config.seed = 41;
    return forum::generate_forum(config).dataset.preprocessed();
  }

  static core::PipelineConfig make_config() {
    core::PipelineConfig config;
    config.extractor.lda.iterations = 15;
    config.answer.logistic.epochs = 30;
    config.vote.epochs = 10;
    config.timing.epochs = 5;
    config.survival_samples_per_thread = 5;
    // Constant ω (no g-network) — the parametrization the paper found best
    // on Stack Overflow and the cheaper serving configuration.
    config.timing.learn_omega = false;
    config.timing.f_hidden = {20, 10};
    return config;
  }

  std::optional<core::TimingPredictor> learned_omega_;
};

std::span<const forum::UserId> candidate_slice(const ServeFixture& fixture,
                                               std::size_t n) {
  return std::span<const forum::UserId>(fixture.users.data(),
                                        std::min(n, fixture.users.size()));
}

void BM_ScalarScore(benchmark::State& state) {
  auto& fixture = ServeFixture::instance();
  const auto users = candidate_slice(fixture, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    for (const forum::UserId u : users) {
      benchmark::DoNotOptimize(fixture.pipeline.predict(u, fixture.question));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(users.size()));
}
BENCHMARK(BM_ScalarScore)->Arg(64)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);

// BatchScorer::score runs its 256-row blocks one after another on the
// calling thread, so every size here measures one thread; serving spreads
// requests across cores with one batcher worker each. The guarded /256 case
// was always a single block. /1024 (four blocks) used to fork them onto the
// util::parallel_for pool and read 3.2–4.0 M pairs/s; on one thread it reads
// 1.46–1.49 M (Release portable, 4 vCPU).
void BM_BatchScore(benchmark::State& state) {
  auto& fixture = ServeFixture::instance();
  const auto users = candidate_slice(fixture, static_cast<std::size_t>(state.range(0)));
  serve::BatchScorer scorer(fixture.pipeline);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scorer.score(fixture.question, users));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(users.size()));
}
BENCHMARK(BM_BatchScore)->Arg(64)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);

// Component view: feature assembly alone (cache hits only), then the three
// batched model forwards alone. Together they account for BM_BatchScore; use
// them to see which side a regression lives on.
void BM_BatchAssemble(benchmark::State& state) {
  auto& fixture = ServeFixture::instance();
  const auto users = candidate_slice(fixture, static_cast<std::size_t>(state.range(0)));
  serve::FeatureCache cache;
  cache.sync(fixture.pipeline.extractor(), fixture.pipeline.dataset(),
             fixture.pipeline.generation());
  cache.warm_users(users);
  const auto block = cache.question_block(fixture.question);
  ml::Matrix x(users.size(), cache.dimension());
  for (auto _ : state) {
    for (std::size_t r = 0; r < users.size(); ++r) {
      cache.assemble(users[r], *block, x.row(r));
    }
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(users.size()));
}
BENCHMARK(BM_BatchAssemble)->Arg(256)->Unit(benchmark::kMillisecond);

// The fixture question's feature rows for `users`, assembled once through
// a warm feature cache (the input the model forwards see when serving).
ml::Matrix assembled_rows(const ServeFixture& fixture,
                          std::span<const forum::UserId> users) {
  serve::FeatureCache cache;
  cache.sync(fixture.pipeline.extractor(), fixture.pipeline.dataset(),
             fixture.pipeline.generation());
  cache.warm_users(users);
  const auto block = cache.question_block(fixture.question);
  ml::Matrix x(users.size(), cache.dimension());
  for (std::size_t r = 0; r < users.size(); ++r) {
    cache.assemble(users[r], *block, x.row(r));
  }
  return x;
}

void BM_BatchForwards(benchmark::State& state) {
  auto& fixture = ServeFixture::instance();
  const auto users = candidate_slice(fixture, static_cast<std::size_t>(state.range(0)));
  const ml::Matrix x = assembled_rows(fixture, users);
  const double open_duration =
      fixture.pipeline.question_open_duration(fixture.question);
  std::vector<double> answer(users.size()), votes(users.size()),
      delay(users.size());
  for (auto _ : state) {
    fixture.pipeline.answer_predictor().predict_probability_batch(x.view(),
                                                                  answer);
    fixture.pipeline.vote_predictor().predict_batch(x.view(), votes);
    fixture.pipeline.timing_predictor().predict_delay_batch(
        x.view(), open_duration, delay);
    benchmark::DoNotOptimize(delay.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(users.size()));
}
BENCHMARK(BM_BatchForwards)->Arg(256)->Unit(benchmark::kMillisecond);

// The timing head alone on 256 assembled rows: the rate networks plus the
// conditional-delay estimator per row. learned_omega 0 is the fixture's
// constant-ω predictor, 1 its learned-ω refit, where every row has its own ω.
void BM_TimingDelayBatch(benchmark::State& state) {
  auto& fixture = ServeFixture::instance();
  const auto users = candidate_slice(fixture, static_cast<std::size_t>(state.range(0)));
  const core::TimingPredictor& timing =
      state.range(1) == 0 ? fixture.pipeline.timing_predictor()
                          : fixture.learned_omega_timing();
  const ml::Matrix x = assembled_rows(fixture, users);
  const double open_duration =
      fixture.pipeline.question_open_duration(fixture.question);
  std::vector<double> delay(users.size());
  for (auto _ : state) {
    timing.predict_delay_batch(x.view(), open_duration, delay);
    benchmark::DoNotOptimize(delay.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(users.size()));
}
BENCHMARK(BM_TimingDelayBatch)
    ->ArgNames({"rows", "learned_omega"})
    ->Args({256, 0})
    ->Args({256, 1})
    ->Unit(benchmark::kMicrosecond);

// Cold-cache variant: a fresh scorer per iteration pays the user-block warm
// and the question block build inside the timed region. Shows the cache fill
// amortizes within a single question's scoring pass.
void BM_BatchScoreColdCache(benchmark::State& state) {
  auto& fixture = ServeFixture::instance();
  const auto users = candidate_slice(fixture, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    serve::BatchScorer scorer(fixture.pipeline);
    benchmark::DoNotOptimize(scorer.score(fixture.question, users));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(users.size()));
}
BENCHMARK(BM_BatchScoreColdCache)->Arg(256)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
