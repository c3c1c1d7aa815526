// Nonlinearities for the fully-connected networks of Sec. II-A.
#pragma once

#include <cstddef>
#include <string>

namespace forumcast::ml {

enum class Activation { Identity, ReLU, Tanh, Sigmoid, Softplus };

/// Applies the activation to values[0, n) in place, switching on `act` once
/// for the whole span. Tanh and ReLU run in the process's kernel set
/// (ml/kernels.hpp): tanh four lanes at a time through the same arithmetic
/// as ml::tanh, so every element equals the scalar call bit for bit; ReLU
/// as a branch-free lane mask equal to `v > 0.0 ? v : 0.0` bit for bit.
/// Identity does nothing. Every network forward (batched, scalar and the
/// training tapes) goes through here, so fit and serve, scalar and batch
/// share one tanh and one ReLU.
void activate_in_place(Activation act, double* values, std::size_t n);

/// The library's one hyperbolic tangent: tanh(x) = sign(x)·e/(e + 2) with
/// e = expm1(2|x|), evaluated by a branch-free Cody–Waite range reduction
/// and a degree-13 Taylor polynomial, every multiply-add pinned as
/// ml::fmadd pins it. Within 1e-15 relative of the exact value over all
/// doubles; ±0 and the sign of x are kept, |x| ≥ 20 gives ±1, NaN stays
/// NaN. Its bits depend only on whether the build targets FMA hardware, not
/// on the host's libm.
double tanh(double x);

/// Derivative of the activation, evaluated at pre-activation `pre`.
double activate_derivative(Activation act, double pre);

/// activate_derivative when the activation `post` of `pre` is already at
/// hand (training tapes cache it). Bit-identical — Tanh and Sigmoid
/// derivatives are algebraic in the activation value, and `post` is the very
/// double the recompute would produce — but skips the transcendental call,
/// which dominates backward passes through tanh hidden layers.
double activate_derivative_cached(Activation act, double pre, double post);

/// Human-readable name ("relu", "tanh", ...).
std::string activation_name(Activation act);

/// Numerically safe sigmoid.
double sigmoid(double x);

/// Numerically safe softplus log(1+e^x).
double softplus(double x);

}  // namespace forumcast::ml
