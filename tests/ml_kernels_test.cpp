// Every kernel set the host can run gives the baseline's bits: the fp64
// GEMMs over odd shapes, padded strides and zero-skips, the four-lane tanh
// and the ReLU at every length and offset. The sets come from the same
// table the public kernels dispatch through.
#include "ml/kernels.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace forumcast::ml {
namespace {

// rows × cols values at row stride `ld`; padding and every fifth value of
// the payload (when `zeros`) hold ±0.0, the rest span several magnitudes.
std::vector<double> random_block(util::Rng& rng, std::size_t rows,
                                 std::size_t cols, std::size_t ld, bool zeros) {
  std::vector<double> out(rows * ld, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      double v = rng.uniform(-2.0, 2.0) * (1.0 + 1000.0 * (c % 3 == 0));
      if (zeros && (r * cols + c) % 5 == 0) v = (c % 2) ? -0.0 : 0.0;
      out[r * ld + c] = v;
    }
  }
  return out;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Runs the three GEMMs of `set` and of the baseline on one shape — rows
// (batch), fan_in and units as a layer sees them — with every stride padded
// past its width, and asserts bit-equal outputs, padding included.
void expect_gemms_match(const KernelSet& set, std::size_t rows,
                        std::size_t fan_in, std::size_t units) {
  const KernelSet& base = kernel_sets().front();
  util::Rng rng(rows * 10007 + fan_in * 101 + units);
  const std::size_t lda = fan_in + 3, ldb = fan_in + 5, ldc = units + 2;
  const auto x = random_block(rng, rows, fan_in, lda, true);
  const auto w = random_block(rng, units, fan_in, ldb, false);
  const auto bias = random_block(rng, 1, units, units, false);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> seed(rows * ldc, nan);
  const std::string shape = std::string(set.name) + " rows=" +
                            std::to_string(rows) + " fan_in=" +
                            std::to_string(fan_in) + " units=" +
                            std::to_string(units);

  // Forward: C(rows × units) = X · Wᵀ (+ bias).
  for (const double* b : {bias.data(), static_cast<const double*>(nullptr)}) {
    auto want = seed, got = seed;
    base.gemm_nt(rows, units, fan_in, x.data(), lda, w.data(), ldb, b,
                 want.data(), ldc);
    set.gemm_nt(rows, units, fan_in, x.data(), lda, w.data(), ldb, b,
                got.data(), ldc);
    ASSERT_TRUE(same_bits(want, got)) << "gemm_nt " << shape << " bias=" << !!b;
  }

  // Backward: G(rows × units) with zeros, times W(units × fan_in) → rows ×
  // fan_in, and the accumulated weight gradient Gᵀ · X onto a nonzero C.
  const std::size_t ldg = units + 1, ldo = fan_in + 4;
  const auto g = random_block(rng, rows, units, ldg, true);
  {
    const std::vector<double> out_seed(rows * ldo, nan);
    auto want = out_seed, got = out_seed;
    base.gemm_nn(rows, fan_in, units, g.data(), ldg, w.data(), ldb,
                 want.data(), ldo);
    set.gemm_nn(rows, fan_in, units, g.data(), ldg, w.data(), ldb, got.data(),
                ldo);
    ASSERT_TRUE(same_bits(want, got)) << "gemm_nn " << shape;
  }
  {
    const auto acc = random_block(rng, units, fan_in, ldo, false);
    auto want = acc, got = acc;
    base.gemm_tn_accumulate(rows, units, fan_in, g.data(), ldg, x.data(), lda,
                            want.data(), ldo);
    set.gemm_tn_accumulate(rows, units, fan_in, g.data(), ldg, x.data(), lda,
                           got.data(), ldo);
    ASSERT_TRUE(same_bits(want, got)) << "gemm_tn_accumulate " << shape;
  }
}

TEST(KernelSets, BaselineFirstAndChosenSetLast) {
  const auto sets = kernel_sets();
  ASSERT_FALSE(sets.empty());
  EXPECT_STREQ(sets.front().name, "baseline");
  EXPECT_EQ(&kernels(), &sets.back());
#if (defined(__x86_64__) || defined(__i386__)) && !defined(__FMA__)
  // A portable build on an AVX2 host must run the wide set, or this file's
  // parity checks compare the baseline with itself.
  if (__builtin_cpu_supports("avx2")) {
    ASSERT_EQ(sets.size(), 2u);
    EXPECT_STREQ(sets.back().name, "avx2");
  }
#endif
}

TEST(KernelSets, GemmsBitEqualToBaselineOverOddShapes) {
  for (const KernelSet& set : kernel_sets().subspan(1)) {
    // Every row and unit count through 33 (the 4×4 micro-kernel, 4-wide
    // panels and both tails) at fan-ins that straddle the vector width...
    for (std::size_t rows = 1; rows <= 33; ++rows) {
      for (std::size_t units = 1; units <= 33; ++units) {
        for (std::size_t fan_in : {1, 4, 5, 20, 65}) {
          expect_gemms_match(set, rows, fan_in, units);
          if (HasFatalFailure()) return;
        }
      }
    }
    // ...and every fan-in through 65 at the served and edge layer shapes.
    for (std::size_t fan_in = 1; fan_in <= 65; ++fan_in) {
      for (std::size_t rows : {1, 4, 7, 33}) {
        for (std::size_t units : {1, 3, 10, 20, 33}) {
          expect_gemms_match(set, rows, fan_in, units);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(KernelSets, TanhBitEqualToBaselineAtEveryLengthAndOffset) {
  util::Rng rng(43);
  std::vector<double> source(20);
  for (double& v : source) v = rng.uniform(-6.0, 6.0);
  source[1] = 0.0;
  source[2] = -0.0;
  source[5] = 23.0;
  source[7] = -19.5;
  source[11] = std::numeric_limits<double>::quiet_NaN();
  source[13] = 1e-310;
  source[14] = -std::numeric_limits<double>::infinity();
  source[16] = 3e-9;
  // A contracted multiply-add rarely moves tanh's final rounding, so the
  // sweep needs many points: 2^16 signed magnitudes log-spaced over
  // [1e-8, 25].
  std::vector<double> sweep(1 << 16);
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(sweep.size());
    sweep[i] = (i % 2 ? -1.0 : 1.0) * 1e-8 * std::pow(25e8, t);
  }
  const KernelSet& base = kernel_sets().front();
  for (const KernelSet& set : kernel_sets().subspan(1)) {
    for (std::size_t offset = 0; offset < 4; ++offset) {
      for (std::size_t n = 1; n <= 13; ++n) {
        auto want = source, got = source;
        base.tanh_in_place(want.data() + offset, n);
        set.tanh_in_place(got.data() + offset, n);
        ASSERT_TRUE(same_bits(want, got))
            << set.name << " n=" << n << " offset=" << offset;
      }
    }
    auto want = sweep, got = sweep;
    base.tanh_in_place(want.data(), want.size());
    set.tanh_in_place(got.data(), got.size());
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      ASSERT_EQ(std::memcmp(&want[i], &got[i], sizeof(double)), 0)
          << set.name << " x=" << sweep[i];
    }
  }
}

TEST(KernelSets, ReluBitEqualToBaselineAtEveryLengthAndOffset) {
  using limits = std::numeric_limits<double>;
  // Special values first, then random signs and magnitudes long enough for
  // every set's full-width loop to run many steps before its tail.
  std::vector<double> source = {
      0.0,      -0.0,     limits::denorm_min(), -limits::denorm_min(),
      1e-310,   -1e-310,  limits::infinity(),   -limits::infinity(),
      limits::quiet_NaN(), -limits::quiet_NaN(), limits::max(), -limits::max(),
      limits::min(), -limits::min(), 1.5, -2.5};
  util::Rng rng(47);
  for (int i = 0; i < 1000; ++i) source.push_back(rng.uniform(-3.0, 3.0));
  const KernelSet& base = kernel_sets().front();
  // The baseline against the ternary it stands for...
  {
    auto got = source;
    base.relu_in_place(got.data(), got.size());
    for (std::size_t i = 0; i < source.size(); ++i) {
      const double want = source[i] > 0.0 ? source[i] : 0.0;
      ASSERT_EQ(std::memcmp(&want, &got[i], sizeof(double)), 0)
          << "baseline x=" << source[i];
    }
  }
  // ...and every set against the baseline, lengths 1..13 (and the whole
  // source) at start offsets 0..3.
  for (const KernelSet& set : kernel_sets().subspan(1)) {
    for (std::size_t offset = 0; offset < 4; ++offset) {
      for (std::size_t n = 1; n <= 13; ++n) {
        auto want = source, got = source;
        base.relu_in_place(want.data() + offset, n);
        set.relu_in_place(got.data() + offset, n);
        ASSERT_TRUE(same_bits(want, got))
            << set.name << " n=" << n << " offset=" << offset;
      }
      auto want = source, got = source;
      base.relu_in_place(want.data() + offset, source.size() - offset);
      set.relu_in_place(got.data() + offset, source.size() - offset);
      ASSERT_TRUE(same_bits(want, got)) << set.name << " offset=" << offset;
    }
  }
}

}  // namespace
}  // namespace forumcast::ml
