#include "ml/mlp.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "ml/activations.hpp"
#include "ml/adam.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace forumcast::ml {
namespace {

// ---------- activations ----------

// One value through the library's activation entry point.
double activate(Activation act, double pre) {
  activate_in_place(act, &pre, 1);
  return pre;
}

TEST(Activations, Values) {
  EXPECT_DOUBLE_EQ(activate(Activation::Identity, -2.0), -2.0);
  EXPECT_DOUBLE_EQ(activate(Activation::ReLU, -2.0), 0.0);
  EXPECT_DOUBLE_EQ(activate(Activation::ReLU, 2.0), 2.0);
  EXPECT_NEAR(activate(Activation::Tanh, 1.0), std::tanh(1.0), 1e-12);
  EXPECT_NEAR(activate(Activation::Sigmoid, 0.0), 0.5, 1e-12);
  EXPECT_NEAR(activate(Activation::Softplus, 0.0), std::log(2.0), 1e-12);
}

TEST(Activations, SigmoidExtremesAreStable) {
  EXPECT_NEAR(sigmoid(1000.0), 1.0, 1e-12);
  EXPECT_NEAR(sigmoid(-1000.0), 0.0, 1e-12);
}

TEST(Activations, SoftplusExtremesAreStable) {
  EXPECT_NEAR(softplus(100.0), 100.0, 1e-9);
  EXPECT_NEAR(softplus(-100.0), 0.0, 1e-12);
  EXPECT_GT(softplus(-100.0), 0.0);
}

// Finite-difference check of every activation derivative.
class ActivationDerivativeTest
    : public ::testing::TestWithParam<Activation> {};

TEST_P(ActivationDerivativeTest, MatchesFiniteDifference) {
  const Activation act = GetParam();
  const double eps = 1e-6;
  for (double pre : {-1.7, -0.3, 0.2, 0.9, 2.5}) {
    const double numeric =
        (activate(act, pre + eps) - activate(act, pre - eps)) / (2.0 * eps);
    EXPECT_NEAR(activate_derivative(act, pre), numeric, 1e-5)
        << activation_name(act) << " at " << pre;
  }
}

INSTANTIATE_TEST_SUITE_P(AllActivations, ActivationDerivativeTest,
                         ::testing::Values(Activation::Identity,
                                           Activation::ReLU, Activation::Tanh,
                                           Activation::Sigmoid,
                                           Activation::Softplus));

// The cached-activation derivative must be the recompute's double, bit for
// bit — backward_batch leans on this to skip the second transcendental.
TEST(Activations, CachedDerivativeBitEqualToRecompute) {
  for (Activation act :
       {Activation::Identity, Activation::ReLU, Activation::Tanh,
        Activation::Sigmoid, Activation::Softplus}) {
    for (double pre : {-31.0, -2.3, -0.7, 0.0, 0.4, 1.9, 31.0}) {
      EXPECT_EQ(activate_derivative_cached(act, pre, activate(act, pre)),
                activate_derivative(act, pre))
          << activation_name(act) << " at " << pre;
    }
  }
}

// ml::tanh against the x87 long-double tanhl: log-spaced magnitudes from the
// smallest subnormal to past the ±1 plateau, a uniform sweep of the range
// the networks live in, and the special values.
TEST(Activations, TanhWithin1e15OfLongDouble) {
  std::vector<double> points = {0.0, -0.0, 20.0, -20.0, 19.06, 25.0, 710.0,
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::min(),
                                0.34657359027997264,  // ln2 / 2: k steps 0 → 1
                                0x1p-27, 0x1p-26};
  constexpr int kLogPoints = 600000;
  for (int i = 0; i <= kLogPoints; ++i) {
    const double x = std::exp2(-1074.0 + 1080.0 * i / kLogPoints);
    points.push_back(x);
    points.push_back(-x);
  }
  constexpr int kUniformPoints = 400000;
  for (int i = 0; i <= kUniformPoints; ++i) {
    points.push_back(-25.0 + 50.0 * i / kUniformPoints);
  }
  ASSERT_GE(points.size(), 1000000u);

  double worst = 0.0, worst_x = 0.0;
  for (const double x : points) {
    const double got = tanh(x);
    const long double want = tanhl(static_cast<long double>(x));
    if (want == 0.0L) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(x))
          << "x = " << x;
      continue;
    }
    const double rel = static_cast<double>(
        std::fabs((static_cast<long double>(got) - want) / want));
    if (rel > worst) {
      worst = rel;
      worst_x = x;
    }
    ASSERT_EQ(std::signbit(got), std::signbit(x)) << "x = " << x;
  }
  EXPECT_LE(worst, 1e-15) << "worst at x = " << worst_x;
  EXPECT_EQ(tanh(std::numeric_limits<double>::infinity()), 1.0);
  EXPECT_EQ(tanh(-std::numeric_limits<double>::infinity()), -1.0);
  EXPECT_TRUE(std::isnan(tanh(std::numeric_limits<double>::quiet_NaN())));
  EXPECT_TRUE(std::isnan(tanh(-std::numeric_limits<double>::quiet_NaN())));
}

// activate_in_place is the scalar function element for element, bit for
// bit: the lane bodies and their tails included, from every start offset
// and at every length through three full vectors plus a tail, on special
// values, and over a long sweep.
TEST(Activations, InPlaceBitEqualToScalarAtEveryLength) {
  const auto scalar = [](Activation act, double x) {
    switch (act) {
      case Activation::Identity: return x;
      case Activation::ReLU: return x > 0.0 ? x : 0.0;
      case Activation::Tanh: return tanh(x);
      case Activation::Sigmoid: return sigmoid(x);
      case Activation::Softplus: return softplus(x);
    }
    return x;
  };
  using limits = std::numeric_limits<double>;
  util::Rng rng(41);
  std::vector<double> source(20);
  for (double& v : source) v = rng.uniform(-6.0, 6.0);
  // Special values inside the first 16, which lengths 1..13 at offsets 0..3
  // reach: ReLU must give +0.0 for ±0, NaN and negative subnormals.
  source[1] = 0.0;
  source[2] = -0.0;
  source[3] = -limits::denorm_min();
  source[4] = limits::infinity();
  source[5] = 23.0;
  source[6] = -limits::infinity();
  source[8] = limits::max();
  source[9] = -limits::max();
  source[11] = limits::quiet_NaN();
  source[12] = -1e-310;
  source[13] = 1e-310;
  source[14] = -limits::quiet_NaN();
  // A contracted or reordered multiply-add moves tanh's final rounding only
  // rarely, so telling the four-lane form from the scalar one takes many
  // points: 2^16 signed magnitudes log-spaced over [1e-8, 25].
  std::vector<double> sweep(1 << 16);
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(sweep.size());
    sweep[i] = (i % 2 ? -1.0 : 1.0) * 1e-8 * std::pow(25e8, t);
  }
  for (Activation act :
       {Activation::Identity, Activation::ReLU, Activation::Tanh,
        Activation::Sigmoid, Activation::Softplus}) {
    std::vector<double> swept = sweep;
    activate_in_place(act, swept.data(), swept.size());
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(swept[i]),
                std::bit_cast<std::uint64_t>(scalar(act, sweep[i])))
          << activation_name(act) << " x=" << sweep[i];
    }
    for (std::size_t offset = 0; offset < 4; ++offset) {
      for (std::size_t n = 1; n <= 13; ++n) {
        std::vector<double> values(source.begin() + offset,
                                   source.begin() + offset + n);
        activate_in_place(act, values.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          const double x = source[offset + i];
          const double want = scalar(act, x);
          ASSERT_EQ(std::bit_cast<std::uint64_t>(values[i]),
                    std::bit_cast<std::uint64_t>(want))
              << activation_name(act) << " n=" << n << " offset=" << offset
              << " i=" << i << " x=" << x;
        }
      }
    }
  }
}

// ---------- MLP structure ----------

TEST(Mlp, ShapesAndParamCount) {
  Mlp net(3, {{4, Activation::Tanh}, {2, Activation::Identity}}, 1);
  EXPECT_EQ(net.input_dim(), 3u);
  EXPECT_EQ(net.output_dim(), 2u);
  EXPECT_EQ(net.layer_count(), 2u);
  // (3*4 + 4) + (4*2 + 2) = 26
  EXPECT_EQ(net.param_count(), 26u);
  const auto y = net.forward(std::vector<double>{0.1, 0.2, 0.3});
  EXPECT_EQ(y.size(), 2u);
}

TEST(Mlp, RejectsWrongInputDim) {
  Mlp net(3, {{2, Activation::ReLU}}, 1);
  EXPECT_THROW(net.forward(std::vector<double>{1.0}), util::CheckError);
}

TEST(Mlp, DeterministicInitialization) {
  Mlp a(4, {{5, Activation::ReLU}, {1, Activation::Identity}}, 42);
  Mlp b(4, {{5, Activation::ReLU}, {1, Activation::Identity}}, 42);
  const std::vector<double> x = {0.5, -0.5, 1.0, 2.0};
  EXPECT_EQ(a.forward(x), b.forward(x));
}

// ---------- gradient check ----------

// Full finite-difference gradient check through a deep mixed-activation net.
TEST(Mlp, BackwardMatchesFiniteDifferenceGradients) {
  Mlp net(3,
          {{5, Activation::Tanh},
           {4, Activation::Softplus},
           {1, Activation::Identity}},
          7);
  const std::vector<double> x = {0.3, -0.7, 1.2};
  const double target = 0.9;

  // Analytic gradient of L = ½(y − t)².
  Mlp::Tape tape;
  const auto y = net.forward(x, tape);
  net.zero_grad();
  net.backward(tape, std::vector<double>{y[0] - target});
  std::vector<double> analytic(net.grads().begin(), net.grads().end());

  const double eps = 1e-6;
  auto loss = [&](Mlp& m) {
    const auto out = m.forward(x);
    return 0.5 * (out[0] - target) * (out[0] - target);
  };
  for (std::size_t i = 0; i < net.param_count(); ++i) {
    const double original = net.params()[i];
    net.params()[i] = original + eps;
    const double up = loss(net);
    net.params()[i] = original - eps;
    const double down = loss(net);
    net.params()[i] = original;
    const double numeric = (up - down) / (2.0 * eps);
    EXPECT_NEAR(analytic[i], numeric, 1e-5) << "param " << i;
  }
}

TEST(Mlp, BackwardReturnsInputGradient) {
  Mlp net(2, {{3, Activation::Tanh}, {1, Activation::Identity}}, 3);
  const std::vector<double> x = {0.4, -0.2};
  Mlp::Tape tape;
  const auto y = net.forward(x, tape);
  net.zero_grad();
  const auto dx = net.backward(tape, std::vector<double>{1.0});
  ASSERT_EQ(dx.size(), 2u);

  // Check dL/dx numerically with L = y.
  const double eps = 1e-6;
  for (std::size_t i = 0; i < x.size(); ++i) {
    auto xp = x;
    xp[i] += eps;
    auto xm = x;
    xm[i] -= eps;
    const double numeric =
        (net.forward(xp)[0] - net.forward(xm)[0]) / (2.0 * eps);
    EXPECT_NEAR(dx[i], numeric, 1e-5);
  }
  (void)y;
}

TEST(Mlp, GradsAccumulateAcrossSamples) {
  Mlp net(1, {{1, Activation::Identity}}, 5);
  Mlp::Tape tape;
  net.zero_grad();
  net.forward(std::vector<double>{1.0}, tape);
  net.backward(tape, std::vector<double>{1.0});
  const double after_one = net.grads()[0];
  net.forward(std::vector<double>{1.0}, tape);
  net.backward(tape, std::vector<double>{1.0});
  EXPECT_NEAR(net.grads()[0], 2.0 * after_one, 1e-12);
  net.zero_grad();
  EXPECT_DOUBLE_EQ(net.grads()[0], 0.0);
}

// ---------- batched training parity ----------

// A fixed minibatch pushed through train_batch must produce the same outputs
// and byte-identical gradients as the per-sample forward/backward loop — the
// guarantee every threads>1 trainer in core/ relies on.
TEST(MlpBatch, TrainBatchMatchesPerSampleBitwise) {
  const std::size_t batch = 9, dim = 5;
  Mlp serial(dim,
             {{7, Activation::Tanh},
              {4, Activation::Softplus},
              {1, Activation::Identity}},
             31);
  Mlp batched(dim,
              {{7, Activation::Tanh},
               {4, Activation::Softplus},
               {1, Activation::Identity}},
              31);
  util::Rng rng(77);
  Matrix x(batch, dim);
  std::vector<double> targets(batch);
  for (std::size_t r = 0; r < batch; ++r) {
    for (std::size_t c = 0; c < dim; ++c) x(r, c) = rng.normal(0.0, 1.0);
    targets[r] = rng.normal(0.0, 1.0);
  }

  Mlp::Tape tape;
  std::vector<double> serial_outputs(batch);
  serial.zero_grad();
  for (std::size_t r = 0; r < batch; ++r) {
    const std::vector<double> row(x.row(r).begin(), x.row(r).end());
    const auto y = serial.forward(row, tape);
    serial_outputs[r] = y[0];
    serial.backward(tape, std::vector<double>{y[0] - targets[r]});
  }

  batched.zero_grad();
  batched.train_batch(x, [&](Tensor<const double> outputs,
                             Tensor<double> grad_output) {
    ASSERT_EQ(outputs.rows(), batch);
    ASSERT_EQ(grad_output.rows(), batch);
    for (std::size_t r = 0; r < batch; ++r) {
      EXPECT_EQ(outputs(r, 0), serial_outputs[r]) << "row " << r;
      grad_output(r, 0) = outputs(r, 0) - targets[r];
    }
  });

  ASSERT_EQ(serial.grads().size(), batched.grads().size());
  for (std::size_t i = 0; i < serial.grads().size(); ++i) {
    EXPECT_EQ(serial.grads()[i], batched.grads()[i]) << "grad " << i;
  }
}

// Multi-output heads get the same bitwise parity, and train_batch adds into
// grads() rather than zeroing them: the weight gradients land as
// batch-ascending rank-1 updates directly on grads(), so a second call
// without zero_grad still tracks the serial per-sample loop bit-for-bit —
// parity does not depend on starting from zero.
TEST(MlpBatch, TrainBatchHandlesMultiOutputAndAccumulates) {
  Mlp serial(3, {{4, Activation::ReLU}, {2, Activation::Identity}}, 13);
  Mlp batched(3, {{4, Activation::ReLU}, {2, Activation::Identity}}, 13);
  Matrix x(4, 3);
  util::Rng rng(5);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) x(r, c) = rng.normal(0.0, 1.0);
  }

  Mlp::Tape tape;
  serial.zero_grad();
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const std::vector<double> row(x.row(r).begin(), x.row(r).end());
    serial.forward(row, tape);
    serial.backward(tape, std::vector<double>{1.0, -0.5});
  }

  auto fill_grad = [](Tensor<const double>, Tensor<double> grad_output) {
    for (std::size_t r = 0; r < grad_output.rows(); ++r) {
      grad_output(r, 0) = 1.0;
      grad_output(r, 1) = -0.5;
    }
  };
  batched.zero_grad();
  batched.train_batch(x, fill_grad);
  for (std::size_t i = 0; i < batched.grads().size(); ++i) {
    EXPECT_EQ(serial.grads()[i], batched.grads()[i]) << "grad " << i;
  }

  // Second pass, no zero_grad on either side.
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const std::vector<double> row(x.row(r).begin(), x.row(r).end());
    serial.forward(row, tape);
    serial.backward(tape, std::vector<double>{1.0, -0.5});
  }
  batched.train_batch(x, fill_grad);
  for (std::size_t i = 0; i < batched.grads().size(); ++i) {
    EXPECT_EQ(serial.grads()[i], batched.grads()[i]) << "grad " << i;
  }
}

// ---------- end-to-end training sanity ----------

TEST(Mlp, LearnsXorWithAdam) {
  Mlp net(2, {{8, Activation::Tanh}, {1, Activation::Identity}}, 11);
  Adam adam(net.param_count(), {.learning_rate = 0.05});
  const std::vector<std::vector<double>> inputs = {
      {0, 0}, {0, 1}, {1, 0}, {1, 1}};
  const std::vector<double> targets = {0, 1, 1, 0};

  Mlp::Tape tape;
  for (int epoch = 0; epoch < 2000; ++epoch) {
    net.zero_grad();
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const auto y = net.forward(inputs[i], tape);
      net.backward(tape, std::vector<double>{(y[0] - targets[i]) / 4.0});
    }
    adam.step(net.params(), net.grads());
  }
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_NEAR(net.forward(inputs[i])[0], targets[i], 0.1) << "sample " << i;
  }
}

}  // namespace
}  // namespace forumcast::ml
