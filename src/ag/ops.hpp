// Differentiable dense ops. Each returns a new Value; backward rules
// accumulate (+=) into parent grads so diamond-shaped graphs work.
#pragma once

#include <span>

#include "ag/value.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace gsoup::ag {

/// C = A · B (rank-2).
Value matmul(const Value& a, const Value& b);

/// Elementwise sum of two equal-shaped values.
Value add(const Value& a, const Value& b);

/// out[i,j] = x[i,j] + bias[j].
Value add_bias(const Value& x, const Value& bias);

/// A layer's epilogue as one tape node: act((a + b) + bias), the value
/// and every parent gradient bit-equal to add → add_bias → relu/elu
/// (`b` may be null: act(a + bias)). It keeps only its output; the
/// backward forms the masked gradient in one pass, sums the bias
/// gradient from it, and hands it to `a` and a copy to `b`.
Value combine_bias_act(const Value& a, const Value& b, const Value& bias,
                       ops::Activation act);

/// out = s * x for a compile-time-constant scalar s.
Value scale(const Value& x, float s);

Value relu(const Value& x);
Value elu(const Value& x);
Value leaky_relu(const Value& x, float slope);

/// Inverted dropout: zero with probability p and scale survivors by
/// 1/(1-p). Identity when `training` is false or p == 0.
Value dropout(const Value& x, float p, Rng& rng, bool training);

/// Mean over `heads` equal column groups: [n, heads*d] -> [n, d]. Used to
/// average multi-head GAT outputs at the final layer.
Value head_mean(const Value& x, std::int64_t heads);

/// Softmax over a rank-1 value (the souping interpolation logits).
Value vec_softmax(const Value& x);

/// Per-head inner product: s[i,h] = Σ_j x[i, h*d+j] · a[h*d+j], where
/// x is [n, heads*d] and a is rank-1 of length heads*d. Produces the GAT
/// attention scores aᵀ(Wh) without mixing parameters across heads.
Value per_head_dot(const Value& x, const Value& a, std::int64_t heads);

/// Weighted sum of constant tensors: out = Σ_i weights[i] * ingredients[i].
/// This is the soup-building op (Eq. 3): gradients flow to `weights` only
/// (dL/dw_i = <dOut, ingredient_i>); the ingredient tensors are frozen.
/// All ingredients must share a shape; weights is rank-1 of matching count.
Value linear_combination(std::span<const Tensor> ingredients,
                         const Value& weights);

/// Sum of all elements -> scalar. (Mainly for tests and regularisers.)
Value sum(const Value& x);

}  // namespace gsoup::ag
