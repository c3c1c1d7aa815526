// Binary artifact codecs for the ml:: pieces a model bundle carries: every
// decode must be bit-identical to the encoded model, and every corrupt or
// truncated payload must throw.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "ml/serialize.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace forumcast::ml {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Doubles a raw-bits codec is most likely to mangle: signed zero,
/// denormals, max precision.
std::vector<double> nasty_doubles() {
  return {
      -0.0,
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      0.1,
      1.0 / 3.0,
      std::nextafter(1.0, 2.0),
  };
}

Mlp three_layer_net() {
  return Mlp(4,
             {{8, Activation::Tanh},
              {5, Activation::Softplus},
              {2, Activation::Identity}},
             123);
}

Mlp round_trip(const Mlp& original) {
  artifact::Encoder enc;
  encode_mlp(original, enc);
  artifact::Decoder dec(enc.bytes(), "mlp");
  Mlp loaded = decode_mlp(dec);
  dec.finish();
  return loaded;
}

TEST(Serialize, MlpRoundTripPreservesPredictions) {
  const Mlp original = three_layer_net();
  const Mlp loaded = round_trip(original);
  util::Rng rng(7);
  Matrix x(20, 4);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (double& v : x.row(r)) v = rng.normal();
  }
  Matrix batch(x.rows(), loaded.output_dim());
  loaded.forward_batch_into(x.view(), batch.view());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto a = original.forward(x.row(r));
    const auto b = loaded.forward(x.row(r));
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(bits(a[i]), bits(b[i]));
      EXPECT_EQ(bits(a[i]), bits(batch(r, i)));
    }
  }
}

TEST(Serialize, MlpActivationNamesRoundTrip) {
  for (Activation act : {Activation::Identity, Activation::ReLU,
                         Activation::Tanh, Activation::Sigmoid,
                         Activation::Softplus}) {
    EXPECT_EQ(activation_from_name(activation_name(act)), act);
  }
  EXPECT_THROW(activation_from_name("swish"), util::CheckError);
}

TEST(Serialize, MlpRejectsCorruptHeader) {
  // A 3 → 4 (relu) network has 16 parameters.
  const auto header = [](std::uint64_t input_dim, std::uint64_t layer_count,
                         std::uint64_t units, const char* activation,
                         std::size_t params) {
    artifact::Encoder enc;
    enc.u64(input_dim);
    enc.u64(layer_count);
    enc.u64(units);
    enc.str(activation);
    enc.f64s(std::vector<double>(params, 0.5), "mlp params");
    return enc.bytes();
  };
  const auto decodes = [](const std::string& payload) {
    artifact::Decoder dec(payload, "mlp");
    decode_mlp(dec);
    dec.finish();
  };
  EXPECT_NO_THROW(decodes(header(3, 1, 4, "relu", 16)));
  EXPECT_THROW(decodes(header(0, 1, 4, "relu", 16)), util::CheckError);
  EXPECT_THROW(decodes(header(std::uint64_t{1} << 40, 1, 4, "relu", 16)),
               util::CheckError);
  EXPECT_THROW(decodes(header(3, 0, 4, "relu", 16)), util::CheckError);
  EXPECT_THROW(decodes(header(3, 1, 0, "relu", 16)), util::CheckError);
  EXPECT_THROW(decodes(header(3, 1, 4, "swish", 16)), util::CheckError);
  EXPECT_THROW(decodes(header(3, 1, 4, "relu", 15)), util::CheckError);
}

TEST(Serialize, ScalerRoundTrip) {
  util::Rng rng(3);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 200; ++i) {
    rows.push_back({rng.normal(10.0, 3.0), rng.normal(-2.0, 0.1)});
  }
  StandardScaler original;
  original.fit(rows);
  artifact::Encoder enc;
  encode_scaler(original, enc);
  artifact::Decoder dec(enc.bytes(), "scaler");
  const StandardScaler loaded = decode_scaler(dec);
  dec.finish();
  for (const auto& row : rows) {
    const auto a = original.transform(row);
    const auto b = loaded.transform(row);
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(bits(a[i]), bits(b[i]));
  }
}

TEST(Serialize, ScalerRejectsUnfitted) {
  artifact::Encoder enc;
  EXPECT_THROW(encode_scaler(StandardScaler{}, enc), util::CheckError);
}

TEST(Serialize, LogisticRoundTrip) {
  util::Rng rng(5);
  std::vector<std::vector<double>> rows;
  std::vector<int> labels;
  for (int i = 0; i < 300; ++i) {
    const double x = rng.normal();
    rows.push_back({x, rng.normal()});
    labels.push_back(x > 0 ? 1 : 0);
  }
  LogisticRegression original({.epochs = 40});
  original.fit(rows, labels);
  artifact::Encoder enc;
  encode_logistic(original, enc);
  artifact::Decoder dec(enc.bytes(), "logistic");
  const LogisticRegression loaded = decode_logistic(dec);
  dec.finish();
  for (const auto& row : rows) {
    EXPECT_EQ(bits(original.predict_probability(row)),
              bits(loaded.predict_probability(row)));
  }
}

TEST(Serialize, FromMomentsValidation) {
  EXPECT_THROW(StandardScaler::from_moments({}, {}), util::CheckError);
  EXPECT_THROW(StandardScaler::from_moments({1.0}, {1.0, 2.0}), util::CheckError);
  EXPECT_THROW(StandardScaler::from_moments({1.0}, {0.0}), util::CheckError);
  const auto scaler = StandardScaler::from_moments({2.0}, {4.0});
  EXPECT_DOUBLE_EQ(scaler.transform(std::vector<double>{10.0})[0], 2.0);
}

TEST(Serialize, FromParametersValidation) {
  EXPECT_THROW(LogisticRegression::from_parameters({}, 0.0), util::CheckError);
  const auto model = LogisticRegression::from_parameters({1.0}, 0.0);
  EXPECT_DOUBLE_EQ(model.predict_probability(std::vector<double>{0.0}), 0.5);
}

TEST(Serialize, BinaryScalerRoundTripBitExact) {
  const auto original = StandardScaler::from_moments(
      {std::numeric_limits<double>::denorm_min(), -0.0, 0.1},
      {std::numeric_limits<double>::min(), 4.0, 1.0 / 3.0});
  artifact::Encoder enc;
  encode_scaler(original, enc);
  artifact::Decoder dec(enc.bytes(), "scaler");
  const auto loaded = decode_scaler(dec);
  dec.finish();
  const std::vector<double> x = {1e-300, 2.0, -5.5};
  const auto a = original.transform(x);
  const auto b = loaded.transform(x);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(bits(a[i]), bits(b[i]));
}

TEST(Serialize, BinaryLogisticRoundTripBitExact) {
  const auto original =
      LogisticRegression::from_parameters(nasty_doubles(), -0.0);
  artifact::Encoder enc;
  encode_logistic(original, enc);
  artifact::Decoder dec(enc.bytes(), "logistic");
  const auto loaded = decode_logistic(dec);
  dec.finish();
  ASSERT_EQ(loaded.weights().size(), original.weights().size());
  for (std::size_t i = 0; i < original.weights().size(); ++i) {
    EXPECT_EQ(bits(loaded.weights()[i]), bits(original.weights()[i]))
        << "weight " << i;
  }
  EXPECT_TRUE(std::signbit(loaded.bias()));
}

TEST(Serialize, BinaryWorstCaseDoublesRoundTripBitExactly) {
  // The raw-bits codec must reproduce signed zero, full denormal precision
  // and max-precision values exactly, in the weights and in the bias.
  const std::vector<double> weights = nasty_doubles();
  const auto original = LogisticRegression::from_parameters(
      weights, std::numeric_limits<double>::denorm_min());
  artifact::Encoder enc;
  encode_logistic(original, enc);
  artifact::Decoder dec(enc.bytes(), "logistic");
  const auto loaded = decode_logistic(dec);
  dec.finish();
  ASSERT_EQ(loaded.weights().size(), weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    EXPECT_EQ(bits(loaded.weights()[i]), bits(weights[i])) << "weight " << i;
  }
  EXPECT_EQ(bits(loaded.bias()), bits(original.bias()));
  EXPECT_TRUE(std::signbit(loaded.weights()[0]));
}

TEST(Serialize, BinaryMlpRoundTripBitExact) {
  const Mlp original = three_layer_net();
  const Mlp loaded = round_trip(original);
  EXPECT_EQ(loaded.input_dim(), original.input_dim());
  EXPECT_EQ(loaded.output_dim(), original.output_dim());
  ASSERT_EQ(loaded.layer_count(), original.layer_count());
  for (std::size_t l = 0; l < original.layer_count(); ++l) {
    EXPECT_EQ(loaded.layers()[l].units, original.layers()[l].units);
    EXPECT_EQ(loaded.layers()[l].activation, original.layers()[l].activation);
  }
  ASSERT_EQ(loaded.param_count(), original.param_count());
  for (std::size_t i = 0; i < original.param_count(); ++i) {
    EXPECT_EQ(bits(loaded.params()[i]), bits(original.params()[i]))
        << "param " << i;
  }
}

TEST(Serialize, BinaryDecodeRejectsNonFiniteNamingField) {
  // The encoder refuses to write NaN/Inf, so plant the raw bits directly.
  artifact::Encoder bad_bias;
  bad_bias.u64(bits(std::numeric_limits<double>::quiet_NaN()));
  bad_bias.f64s(std::vector<double>{1.0}, "logistic weights");
  artifact::Decoder dec(bad_bias.bytes(), "logistic");
  try {
    decode_logistic(dec);
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("logistic bias"), std::string::npos) << what;
  }

  artifact::Encoder bad_weight;
  bad_weight.f64(0.5, "logistic bias");
  bad_weight.u64(2);  // f64s count prefix
  bad_weight.u64(bits(1.0));
  bad_weight.u64(bits(std::numeric_limits<double>::infinity()));
  artifact::Decoder weight_dec(bad_weight.bytes(), "logistic");
  EXPECT_THROW(decode_logistic(weight_dec), util::CheckError);
}

TEST(Serialize, BinaryEncodersRejectUnfittedModels) {
  artifact::Encoder enc;
  EXPECT_THROW(encode_logistic(LogisticRegression{}, enc), util::CheckError);
}

/// Every strict prefix of `whole` must throw when decoded; the whole payload
/// must decode cleanly.
void expect_prefixes_rejected(
    const std::string& whole, const char* what,
    const std::function<void(artifact::Decoder&)>& decode) {
  for (std::size_t length = 0; length < whole.size(); ++length) {
    artifact::Decoder dec(whole.substr(0, length), what);
    EXPECT_THROW(
        {
          decode(dec);
          dec.finish();
        },
        util::CheckError)
        << what << ": prefix of " << length << " bytes decoded";
  }
  artifact::Decoder dec(whole, what);
  EXPECT_NO_THROW({
    decode(dec);
    dec.finish();
  }) << what;
}

TEST(Serialize, BinaryDecodeRejectsTruncationAtEveryByte) {
  artifact::Encoder mlp;
  encode_mlp(Mlp(2, {{3, Activation::ReLU}, {1, Activation::Identity}}, 5),
             mlp);
  expect_prefixes_rejected(mlp.bytes(), "mlp",
                           [](artifact::Decoder& dec) { decode_mlp(dec); });
}

TEST(Serialize, MlpBinaryTruncatedAtEveryByte) {
  // Three layers with three activation kinds: truncations land inside every
  // layer header as well as inside the parameter block.
  artifact::Encoder mlp;
  encode_mlp(three_layer_net(), mlp);
  expect_prefixes_rejected(mlp.bytes(), "mlp",
                           [](artifact::Decoder& dec) { decode_mlp(dec); });
}

TEST(Serialize, ScalerAndLogisticBinaryTruncatedAtEveryByte) {
  artifact::Encoder scaler;
  encode_scaler(StandardScaler::from_moments({1.0, -2.0}, {0.5, 4.0}), scaler);
  expect_prefixes_rejected(scaler.bytes(), "scaler",
                           [](artifact::Decoder& dec) { decode_scaler(dec); });

  artifact::Encoder logistic;
  encode_logistic(LogisticRegression::from_parameters({0.25, -0.75}, 0.125),
                  logistic);
  expect_prefixes_rejected(
      logistic.bytes(), "logistic",
      [](artifact::Decoder& dec) { decode_logistic(dec); });
}

}  // namespace
}  // namespace forumcast::ml
