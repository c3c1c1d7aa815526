#include "ml/activations.hpp"

#include <cmath>

#include "ml/kernels.hpp"

namespace forumcast::ml {

double sigmoid(double x) {
  if (x >= 0.0) {
    const double z = std::exp(-x);
    return 1.0 / (1.0 + z);
  }
  const double z = std::exp(x);
  return z / (1.0 + z);
}

double softplus(double x) {
  // log(1 + e^x) computed without overflow for large |x|.
  if (x > 30.0) return x;
  if (x < -30.0) return std::exp(x);
  return std::log1p(std::exp(x));
}

void activate_in_place(Activation act, double* values, std::size_t n) {
  switch (act) {
    case Activation::Identity: return;
    case Activation::ReLU: kernels().relu_in_place(values, n); return;
    case Activation::Tanh: kernels().tanh_in_place(values, n); return;
    case Activation::Sigmoid:
      for (std::size_t i = 0; i < n; ++i) values[i] = sigmoid(values[i]);
      return;
    case Activation::Softplus:
      for (std::size_t i = 0; i < n; ++i) values[i] = softplus(values[i]);
      return;
  }
}

double activate_derivative(Activation act, double pre) {
  switch (act) {
    case Activation::Identity: return 1.0;
    case Activation::ReLU: return pre > 0.0 ? 1.0 : 0.0;
    case Activation::Tanh: {
      const double t = tanh(pre);
      return 1.0 - t * t;
    }
    case Activation::Sigmoid: {
      const double s = sigmoid(pre);
      return s * (1.0 - s);
    }
    case Activation::Softplus: return sigmoid(pre);
  }
  return 1.0;
}

double activate_derivative_cached(Activation act, double pre, double post) {
  switch (act) {
    case Activation::Identity: return 1.0;
    case Activation::ReLU: return pre > 0.0 ? 1.0 : 0.0;
    case Activation::Tanh: return 1.0 - post * post;
    case Activation::Sigmoid: return post * (1.0 - post);
    case Activation::Softplus: return sigmoid(pre);
  }
  return 1.0;
}

std::string activation_name(Activation act) {
  switch (act) {
    case Activation::Identity: return "identity";
    case Activation::ReLU: return "relu";
    case Activation::Tanh: return "tanh";
    case Activation::Sigmoid: return "sigmoid";
    case Activation::Softplus: return "softplus";
  }
  return "?";
}

}  // namespace forumcast::ml
