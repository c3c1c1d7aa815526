// ML substrate benchmarks: the arena-backed fp64 vote-network forward, as a
// batch and one row at a time, plus the workspace bump allocator itself.
// tools/run_bench.sh writes these as BENCH_ml.json.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <vector>

#include "ml/matrix.hpp"
#include "ml/mlp.hpp"
#include "ml/workspace.hpp"
#include "util/rng.hpp"

namespace {

using namespace forumcast;

// The serving-path vote network: feature-vector input, three hidden ReLU
// layers of 20 units, linear output (paper eq. (1) topology).
constexpr std::size_t kInputDim = 34;

ml::Mlp vote_net() {
  return ml::Mlp(kInputDim,
                 {{20, ml::Activation::ReLU},
                  {20, ml::Activation::ReLU},
                  {20, ml::Activation::ReLU},
                  {1, ml::Activation::Identity}},
                 /*seed=*/5);
}

ml::Matrix feature_rows(std::size_t rows) {
  util::Rng rng(17);
  ml::Matrix x(rows, kInputDim);
  for (std::size_t r = 0; r < rows; ++r) {
    for (double& v : x.row(r)) v = rng.normal();
  }
  return x;
}

// ---------- workspace ----------

// Steady-state cost of one serving-block scratch cycle: open a frame, carve
// the tensors a BatchScorer block carves, close the frame. After the first
// iteration the arena is at its high-water mark, so this measures pure bump
// arithmetic — no heap traffic.
void BM_WorkspaceFrameCycle(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    ml::Workspace::Frame frame;
    ml::Workspace& ws = frame.workspace();
    ml::Tensor<double> x = ws.tensor<double>(rows, kInputDim);
    double* a = ws.alloc<double>(rows);
    double* b = ws.alloc<double>(rows);
    double* c = ws.alloc<double>(rows);
    benchmark::DoNotOptimize(x.data());
    benchmark::DoNotOptimize(a);
    benchmark::DoNotOptimize(b);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WorkspaceFrameCycle)->Arg(256);

// ---------- fp64 vote forward ----------

void BM_VoteForwardFp64(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const ml::Mlp net = vote_net();
  const ml::Matrix x = feature_rows(rows);
  std::vector<double> out(rows);
  ml::Tensor<double> out_view(out.data(), rows, 1);
  for (auto _ : state) {
    ml::Workspace::Frame frame;
    net.forward_batch_into(x.view(), out_view);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows));
}
BENCHMARK(BM_VoteForwardFp64)->Arg(64)->Arg(256)->Arg(1024);

// One row at a time: the per-pair shape (ForecastPipeline::predict runs the
// batch forwards as a batch of one).
void BM_VoteForwardScalarFp64(benchmark::State& state) {
  const ml::Mlp net = vote_net();
  const ml::Matrix x = feature_rows(64);
  std::size_t r = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.forward(x.row(r)));
    r = (r + 1) % x.rows();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_VoteForwardScalarFp64);

}  // namespace

BENCHMARK_MAIN();
