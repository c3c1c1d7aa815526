// Fully-connected feed-forward network with manual backpropagation.
//
// This implements the networks of paper eq. (1): the vote predictor
// (L=4, 20 ReLU units per hidden layer), the point-process excitation
// network f_Θ (tanh hidden layers, non-negative output), and optionally the
// decay network g_Θ. All parameters live in one contiguous buffer so a single
// Adam instance can optimize any composition of networks, and so the
// point-process likelihood (a custom loss over *two* networks) can inject
// dL/dy gradients directly via `backward`.
//
// Scratch discipline: the persistent training tapes (Tape, BatchTape) back
// their per-layer activations with ONE flat buffer each — layer views are
// spans/Tensors into it, so reuse across minibatches costs zero allocations.
// Everything ephemeral (inference hidden layers, backward gradients,
// train_batch's dL/doutput) lives in the calling thread's ml::Workspace
// arena and is released when the enclosing Frame closes.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "ml/activations.hpp"
#include "ml/matrix.hpp"
#include "ml/tensor.hpp"
#include "ml/workspace.hpp"

namespace forumcast::ml {

struct LayerSpec {
  std::size_t units = 0;
  Activation activation = Activation::ReLU;
};

class Mlp {
 public:
  /// Builds a network input_dim -> layers[0].units -> ... -> layers.back().units.
  /// Weights use Xavier/He-style scaled uniform init, seeded deterministically.
  Mlp(std::size_t input_dim, std::vector<LayerSpec> layers, std::uint64_t seed);

  std::size_t input_dim() const { return input_dim_; }
  std::size_t output_dim() const { return layers_.back().units; }
  std::size_t layer_count() const { return layers_.size(); }
  const std::vector<LayerSpec>& layers() const { return layers_; }

  /// Records the intermediate values of one forward pass for backprop. All
  /// per-layer pre/post activations live in one flat buffer (layer views are
  /// spans into it), so reusing a Tape across samples allocates nothing once
  /// the buffer reaches its final size.
  struct Tape {
    std::span<const double> input() const { return input_; }
    std::span<const double> pre(std::size_t layer) const;
    std::span<const double> post(std::size_t layer) const;

   private:
    std::span<double> pre_mut(std::size_t layer);
    std::span<double> post_mut(std::size_t layer);

    std::vector<double> input_;
    std::vector<double> storage_;           ///< [pre_0|post_0|pre_1|post_1|…]
    std::vector<std::size_t> offset_;       ///< offset_[l] = start of pre_l
    std::vector<std::size_t> units_;
    friend class Mlp;
  };

  /// Inference-only forward pass (hidden activations in the thread's arena).
  std::vector<double> forward(std::span<const double> x) const;

  /// Inference-only forward pass over a batch: `x` holds one sample per row
  /// (cols == input_dim); writes x.rows() × output_dim() values into `out`
  /// (which must already have that shape and must not alias `x`). Each layer
  /// is one blocked GEMM against the layer's weight matrix (gemm_nt seeds
  /// outputs with the bias, so per-sample sums accumulate in exactly the
  /// order of the scalar forward() — results are bit-identical). Hidden-layer
  /// intermediates come from the calling thread's Workspace arena, so a
  /// steady-state serving loop allocates nothing.
  void forward_batch_into(Tensor<const double> x, Tensor<double> out) const;

  /// Forward pass that fills `tape` for a subsequent backward().
  std::vector<double> forward(std::span<const double> x, Tape& tape) const;

  /// Accumulates dL/dparams into grads() given dL/doutput for the sample
  /// recorded in `tape`. Returns dL/dinput (useful for stacked models).
  std::vector<double> backward(const Tape& tape, std::span<const double> grad_output);

  /// Records the intermediate values of one batched forward pass: one sample
  /// per row. As with Tape, every per-layer activation matrix lives in one
  /// flat buffer; pre()/post() hand out Tensor views into it.
  struct BatchTape {
    Tensor<const double> input() const;
    Tensor<const double> pre(std::size_t layer) const;
    Tensor<const double> post(std::size_t layer) const;

   private:
    Tensor<double> pre_mut(std::size_t layer);
    Tensor<double> post_mut(std::size_t layer);

    std::vector<double> input_;             ///< B × input_dim copy of the batch
    std::vector<double> storage_;           ///< [pre_0|post_0|pre_1|post_1|…]
    std::vector<std::size_t> offset_;       ///< offset_[l] = start of pre_l
    std::vector<std::size_t> units_;
    std::size_t rows_ = 0;
    std::size_t input_dim_ = 0;
    friend class Mlp;
  };

  /// Forward pass over a batch that fills `tape` for backward_batch(). Each
  /// layer is one blocked gemm_nt, so every value is bit-identical to the
  /// per-row scalar forward(). Returns a view of the final activations
  /// (B × output_dim), valid while `tape` is.
  Tensor<const double> forward_batch(const Matrix& x, BatchTape& tape) const;

  /// Batched backward: accumulates dL/dparams into grads() given one
  /// dL/doutput row per sample of `tape`. Weight gradients apply one
  /// gemm_tn_accumulate per layer — batch-ascending rank-1 updates directly
  /// into grads(), the exact operation sequence of per-sample accumulation —
  /// and layer-to-layer gradient propagation is one gemm_nn. The accumulated
  /// gradient is bit-equal to calling the per-sample backward() on each row
  /// in order, whatever grads() held on entry. Intermediate gradients live
  /// in the thread's Workspace arena.
  void backward_batch(const BatchTape& tape, Tensor<const double> grad_output);

  /// One gemm-backed training step over a minibatch: batched forward, then
  /// `loss_grad(outputs, grad_output)` fills dL/doutput (one row per sample;
  /// `grad_output` arrives pre-shaped B × output_dim and every element must
  /// be written), then batched backward accumulates into grads(). The caller
  /// zeroes grads and applies the optimizer step, exactly as with the
  /// per-sample forward()/backward() pair this replaces.
  void train_batch(const Matrix& x,
                   const std::function<void(Tensor<const double> outputs,
                                            Tensor<double> grad_output)>& loss_grad);

  /// Zeroes the gradient accumulator (call per minibatch).
  void zero_grad();

  std::span<double> params() { return params_; }
  std::span<const double> params() const { return params_; }
  std::span<double> grads() { return grads_; }
  std::span<const double> grads() const { return grads_; }
  std::size_t param_count() const { return params_.size(); }

 private:
  // Weight matrix of layer l is rows=units(l), cols=fan_in(l), stored row-major
  // at weight_offset_[l]; bias vector follows at bias_offset_[l].
  std::size_t fan_in(std::size_t layer) const;
  std::size_t max_units() const;

  std::size_t input_dim_;
  std::vector<LayerSpec> layers_;
  std::vector<std::size_t> weight_offset_;
  std::vector<std::size_t> bias_offset_;
  std::vector<double> params_;
  std::vector<double> grads_;
};

}  // namespace forumcast::ml
