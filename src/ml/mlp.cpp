#include "ml/mlp.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace forumcast::ml {

Mlp::Mlp(std::size_t input_dim, std::vector<LayerSpec> layers, std::uint64_t seed)
    : input_dim_(input_dim), layers_(std::move(layers)) {
  FORUMCAST_CHECK(input_dim_ > 0);
  FORUMCAST_CHECK(!layers_.empty());
  for (const auto& layer : layers_) FORUMCAST_CHECK(layer.units > 0);

  std::size_t offset = 0;
  weight_offset_.resize(layers_.size());
  bias_offset_.resize(layers_.size());
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    weight_offset_[l] = offset;
    offset += layers_[l].units * fan_in(l);
    bias_offset_[l] = offset;
    offset += layers_[l].units;
  }
  params_.assign(offset, 0.0);
  grads_.assign(offset, 0.0);

  util::Rng rng(seed);
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const double limit = std::sqrt(6.0 / static_cast<double>(fan_in(l) + layers_[l].units));
    for (std::size_t i = 0; i < layers_[l].units * fan_in(l); ++i) {
      params_[weight_offset_[l] + i] = rng.uniform(-limit, limit);
    }
    // Biases start at zero.
  }
}

std::size_t Mlp::fan_in(std::size_t layer) const {
  return layer == 0 ? input_dim_ : layers_[layer - 1].units;
}

std::size_t Mlp::max_units() const {
  std::size_t m = 0;
  for (const auto& layer : layers_) m = std::max(m, layer.units);
  return m;
}

// ---------------------------------------------------------------------------
// Tape: flat per-layer activation views.

std::span<const double> Mlp::Tape::pre(std::size_t layer) const {
  FORUMCAST_CHECK(layer < units_.size());
  return {storage_.data() + offset_[layer], units_[layer]};
}

std::span<const double> Mlp::Tape::post(std::size_t layer) const {
  FORUMCAST_CHECK(layer < units_.size());
  return {storage_.data() + offset_[layer] + units_[layer], units_[layer]};
}

std::span<double> Mlp::Tape::pre_mut(std::size_t layer) {
  return {storage_.data() + offset_[layer], units_[layer]};
}

std::span<double> Mlp::Tape::post_mut(std::size_t layer) {
  return {storage_.data() + offset_[layer] + units_[layer], units_[layer]};
}

std::vector<double> Mlp::forward(std::span<const double> x) const {
  FORUMCAST_CHECK_MSG(x.size() == input_dim_,
                      "input dim " << x.size() << " != " << input_dim_);
  // Ping-pong between two arena buffers: pre-activations land in one, the
  // activation applies in place, and the result feeds the next layer. Same
  // fmadd chains as the tape-filling forward — bit-identical output.
  Workspace::Frame frame;
  const std::size_t width = max_units();
  double* bufs[2] = {frame.workspace().alloc<double>(width),
                     frame.workspace().alloc<double>(width)};
  const double* current = x.data();
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const std::size_t units = layers_[l].units;
    const std::size_t in_dim = fan_in(l);
    double* pre = bufs[l % 2];
    const double* weights = params_.data() + weight_offset_[l];
    const double* bias = params_.data() + bias_offset_[l];
    for (std::size_t u = 0; u < units; ++u) {
      const double* w_row = weights + u * in_dim;
      double accum = bias[u];
      // fmadd pins the contraction so this loop and gemm_nt round alike.
      for (std::size_t i = 0; i < in_dim; ++i) {
        accum = fmadd(w_row[i], current[i], accum);
      }
      pre[u] = accum;
    }
    activate_in_place(layers_[l].activation, pre, units);
    current = pre;
  }
  return std::vector<double>(current, current + output_dim());
}

std::vector<double> Mlp::forward(std::span<const double> x, Tape& tape) const {
  FORUMCAST_CHECK_MSG(x.size() == input_dim_,
                      "input dim " << x.size() << " != " << input_dim_);
  tape.input_.assign(x.begin(), x.end());
  if (tape.units_.size() != layers_.size()) {
    tape.units_.resize(layers_.size());
    tape.offset_.resize(layers_.size());
  }
  std::size_t total = 0;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    tape.offset_[l] = total;
    tape.units_[l] = layers_[l].units;
    total += 2 * layers_[l].units;
  }
  tape.storage_.resize(total);

  const double* current = tape.input_.data();
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const std::size_t units = layers_[l].units;
    const std::size_t in_dim = fan_in(l);
    std::span<double> pre = tape.pre_mut(l);
    const double* weights = params_.data() + weight_offset_[l];
    const double* bias = params_.data() + bias_offset_[l];
    for (std::size_t u = 0; u < units; ++u) {
      const double* w_row = weights + u * in_dim;
      double accum = bias[u];
      // fmadd pins the contraction so this loop and gemm_nt round alike.
      for (std::size_t i = 0; i < in_dim; ++i) {
        accum = fmadd(w_row[i], current[i], accum);
      }
      pre[u] = accum;
    }
    std::span<double> post = tape.post_mut(l);
    std::copy(pre.begin(), pre.end(), post.begin());
    activate_in_place(layers_[l].activation, post.data(), units);
    current = post.data();
  }
  return std::vector<double>(current, current + output_dim());
}

void Mlp::forward_batch_into(Tensor<const double> x, Tensor<double> out) const {
  FORUMCAST_CHECK_MSG(x.cols() == input_dim_,
                      "input dim " << x.cols() << " != " << input_dim_);
  FORUMCAST_CHECK(out.rows() == x.rows() && out.cols() == output_dim());
  // Hidden layers ping-pong between two arena tensors. gemm_nt writes every
  // output element (seeded with the layer bias) before anything reads it, so
  // the unspecified contents of fresh arena storage are harmless.
  Workspace::Frame frame;
  const std::size_t width = max_units();
  Tensor<double> scratch[2] = {
      frame.workspace().tensor<double>(x.rows(), width),
      frame.workspace().tensor<double>(x.rows(), width)};
  Tensor<const double> source = x;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const std::size_t units = layers_[l].units;
    const std::size_t in_dim = fan_in(l);
    Tensor<double> next =
        l + 1 == layers_.size()
            ? out
            : Tensor<double>(scratch[l % 2].data(), x.rows(), units);
    gemm_nt(source.rows(), units, in_dim, source.data(), source.stride(),
            params_.data() + weight_offset_[l], in_dim,
            params_.data() + bias_offset_[l], next.data(), next.stride());
    const Activation activation = layers_[l].activation;
    if (next.stride() == units) {
      activate_in_place(activation, next.data(), next.rows() * units);
    } else {
      for (std::size_t r = 0; r < next.rows(); ++r) {
        activate_in_place(activation, next.row(r).data(), units);
      }
    }
    source = next;
  }
}

std::vector<double> Mlp::backward(const Tape& tape, std::span<const double> grad_output) {
  FORUMCAST_CHECK(tape.units_.size() == layers_.size());
  FORUMCAST_CHECK(grad_output.size() == output_dim());

  // Three arena buffers: dL/dpost (ping-pong A/B as it propagates down) and
  // dL/dpre for the current layer. Accumulator roots and operation order are
  // exactly those of the per-layer-vector version this replaces.
  Workspace::Frame frame;
  const std::size_t width = std::max(max_units(), input_dim_);
  double* grad_post = frame.workspace().alloc<double>(width);
  double* grad_below = frame.workspace().alloc<double>(width);
  double* grad_pre = frame.workspace().alloc<double>(max_units());
  std::copy(grad_output.begin(), grad_output.end(), grad_post);

  for (std::size_t l = layers_.size(); l-- > 0;) {
    const std::size_t units = layers_[l].units;
    const std::size_t in_dim = fan_in(l);
    std::span<const double> pre = tape.pre(l);
    std::span<const double> below = l == 0 ? tape.input() : tape.post(l - 1);

    // dL/dpre = dL/dpost ⊙ σ'(pre)
    for (std::size_t u = 0; u < units; ++u) {
      grad_pre[u] = grad_post[u] * activate_derivative(layers_[l].activation, pre[u]);
    }

    double* weight_grad = grads_.data() + weight_offset_[l];
    double* bias_grad = grads_.data() + bias_offset_[l];
    const double* weights = params_.data() + weight_offset_[l];

    std::fill(grad_below, grad_below + in_dim, 0.0);
    for (std::size_t u = 0; u < units; ++u) {
      const double g = grad_pre[u];
      if (g == 0.0) continue;
      double* wg_row = weight_grad + u * in_dim;
      const double* w_row = weights + u * in_dim;
      // fmadd pins the contraction so these chains and the gemm-backed
      // backward_batch round alike.
      for (std::size_t i = 0; i < in_dim; ++i) {
        wg_row[i] = fmadd(g, below[i], wg_row[i]);
        grad_below[i] = fmadd(g, w_row[i], grad_below[i]);
      }
      bias_grad[u] += g;
    }
    std::swap(grad_post, grad_below);
  }
  return std::vector<double>(grad_post, grad_post + input_dim_);  // = dL/dinput
}

// ---------------------------------------------------------------------------
// BatchTape: flat per-layer activation tensors.

Tensor<const double> Mlp::BatchTape::input() const {
  return Tensor<const double>(input_.data(), rows_, input_dim_);
}

Tensor<const double> Mlp::BatchTape::pre(std::size_t layer) const {
  FORUMCAST_CHECK(layer < units_.size());
  return Tensor<const double>(storage_.data() + offset_[layer], rows_,
                              units_[layer]);
}

Tensor<const double> Mlp::BatchTape::post(std::size_t layer) const {
  FORUMCAST_CHECK(layer < units_.size());
  return Tensor<const double>(
      storage_.data() + offset_[layer] + rows_ * units_[layer], rows_,
      units_[layer]);
}

Tensor<double> Mlp::BatchTape::pre_mut(std::size_t layer) {
  return Tensor<double>(storage_.data() + offset_[layer], rows_, units_[layer]);
}

Tensor<double> Mlp::BatchTape::post_mut(std::size_t layer) {
  return Tensor<double>(storage_.data() + offset_[layer] + rows_ * units_[layer],
                        rows_, units_[layer]);
}

Tensor<const double> Mlp::forward_batch(const Matrix& x, BatchTape& tape) const {
  FORUMCAST_CHECK_MSG(x.cols() == input_dim_,
                      "input dim " << x.cols() << " != " << input_dim_);
  tape.rows_ = x.rows();
  tape.input_dim_ = input_dim_;
  tape.input_.assign(x.data().begin(), x.data().end());
  if (tape.units_.size() != layers_.size()) {
    tape.units_.resize(layers_.size());
    tape.offset_.resize(layers_.size());
  }
  std::size_t total = 0;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    tape.offset_[l] = total;
    tape.units_[l] = layers_[l].units;
    total += 2 * x.rows() * layers_[l].units;
  }
  tape.storage_.resize(total);

  Tensor<const double> source = tape.input();
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const std::size_t units = layers_[l].units;
    const std::size_t in_dim = fan_in(l);
    Tensor<double> pre = tape.pre_mut(l);
    gemm_nt(source.rows(), units, in_dim, source.data(), source.stride(),
            params_.data() + weight_offset_[l], in_dim,
            params_.data() + bias_offset_[l], pre.data(), pre.stride());
    Tensor<double> post = tape.post_mut(l);
    const std::size_t count = pre.rows() * pre.cols();
    std::copy(pre.data(), pre.data() + count, post.data());
    activate_in_place(layers_[l].activation, post.data(), count);
    source = post;
  }
  return tape.post(layers_.size() - 1);
}

void Mlp::backward_batch(const BatchTape& tape, Tensor<const double> grad_output) {
  FORUMCAST_CHECK(tape.units_.size() == layers_.size());
  FORUMCAST_CHECK(grad_output.cols() == output_dim());
  const std::size_t rows = grad_output.rows();
  FORUMCAST_CHECK(tape.rows_ == rows);

  // Arena scratch; every element is written before being read.
  Workspace::Frame frame;
  const std::size_t width = max_units();
  double* grad_pre_buf = frame.workspace().alloc<double>(rows * width);
  double* grad_below_buf[2] = {frame.workspace().alloc<double>(rows * width),
                               frame.workspace().alloc<double>(rows * width)};
  Tensor<const double> grad_post = grad_output;
  for (std::size_t l = layers_.size(); l-- > 0;) {
    const std::size_t units = layers_[l].units;
    const std::size_t in_dim = fan_in(l);
    Tensor<const double> pre = tape.pre(l);
    Tensor<const double> below = l == 0 ? tape.input() : tape.post(l - 1);

    // dL/dpre = dL/dpost ⊙ σ'(pre), elementwise per sample. The tape holds
    // the activations, so σ' comes from the cached value — bit-identical to
    // the scalar backward's recompute, without the second tanh per unit.
    Tensor<double> grad_pre(grad_pre_buf, rows, units);
    {
      const Activation activation = layers_[l].activation;
      const double* pr = pre.data();
      const double* po = tape.post(l).data();
      double* out = grad_pre.data();
      for (std::size_t r = 0; r < rows; ++r) {
        const double* gp = grad_post.row(r).data();
        double* orow = out + r * units;
        const double* prow = pr + r * units;
        const double* porow = po + r * units;
        for (std::size_t u = 0; u < units; ++u) {
          orow[u] = gp[u] * activate_derivative_cached(activation, prow[u], porow[u]);
        }
      }
    }

    // Weight gradients WG[u][i] += Σ_b grad_pre[b][u] · below[b][i], applied
    // as batch-ascending rank-1 updates directly into grads_ — the exact
    // operation sequence (fmadd chains, g == 0 skips included) of per-sample
    // accumulation, so parity holds even with gradients already accumulated.
    gemm_tn_accumulate(rows, units, in_dim, grad_pre.data(), units,
                       below.data(), below.stride(),
                       grads_.data() + weight_offset_[l], in_dim);

    // Bias gradients: per-unit column sums of grad_pre, batch order, plain
    // += to match the scalar backward chain.
    double* bias_grad = grads_.data() + bias_offset_[l];
    for (std::size_t r = 0; r < rows; ++r) {
      const double* gp = grad_pre.data() + r * units;
      for (std::size_t u = 0; u < units; ++u) bias_grad[u] += gp[u];
    }

    // dL/dbelow = grad_pre · W, ascending-unit chains via gemm_nn. The input
    // gradient is unused by every trainer, so layer 0 skips it.
    if (l > 0) {
      Tensor<double> gb(grad_below_buf[l % 2], rows, in_dim);
      gemm_nn(rows, in_dim, units, grad_pre.data(), units,
              params_.data() + weight_offset_[l], in_dim, gb.data(),
              gb.stride());
      grad_post = gb;
    }
  }
}

void Mlp::train_batch(
    const Matrix& x,
    const std::function<void(Tensor<const double> outputs,
                             Tensor<double> grad_output)>& loss_grad) {
  FORUMCAST_CHECK(loss_grad != nullptr);
  thread_local BatchTape tape;
  const Tensor<const double> outputs = forward_batch(x, tape);
  Workspace::Frame frame;
  Tensor<double> grad_output =
      frame.workspace().tensor<double>(outputs.rows(), outputs.cols());
  loss_grad(outputs, grad_output);
  backward_batch(tape, grad_output);
}

void Mlp::zero_grad() { std::fill(grads_.begin(), grads_.end(), 0.0); }

}  // namespace forumcast::ml
