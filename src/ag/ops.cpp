#include "ag/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace gsoup::ag {

namespace {

/// parent.grad += term(i) over n elements. A first contribution writes
/// 0.0f + term(i) into fresh storage in one pass: bitwise what zeros()
/// followed by += gives, without the zero-fill pass.
template <class Term>
void contribute(const Value& parent, std::int64_t n, Term term) {
  if (!parent->requires_grad) return;
  const bool first = !parent->grad.defined();
  if (first) parent->grad = Tensor::empty(parent->value.shape());
  float* __restrict__ dst = parent->grad.data();
  if (first) {
#pragma omp parallel for simd schedule(static) \
    if (n >= kParallelNumelThreshold)
    for (std::int64_t i = 0; i < n; ++i) dst[i] = 0.0f + term(i);
  } else {
#pragma omp parallel for simd schedule(static) \
    if (n >= kParallelNumelThreshold)
    for (std::int64_t i = 0; i < n; ++i) dst[i] += term(i);
  }
}

/// a.grad += g. Shared by the backward rules whose contribution is the
/// incoming gradient itself.
void accumulate(const Value& parent, const Tensor& g) {
  const float* __restrict__ pg = g.data();
  contribute(parent, g.numel(), [pg](std::int64_t i) { return pg[i]; });
}

/// a.grad += g for a fresh tensor `g` that no other node holds (a GEMM
/// result). A first contribution hands `g` over as the gradient itself:
/// a GEMM result is 0 + Σ and never −0, so it equals zeros() + g bitwise.
void hand_over(const Value& parent, Tensor g) {
  if (parent->grad.defined()) {
    parent->grad.add_(g);
  } else {
    parent->grad = std::move(g);
  }
}

/// Dropout keep mask: one byte per element in tracked storage (a float
/// tensor of ceil(n/4) elements viewed as bytes), so MemoryTracker counts
/// it with the rest of the tape.
struct ByteMask {
  explicit ByteMask(std::int64_t n) : storage(Tensor::empty({(n + 3) / 4})) {}
  std::uint8_t* data() { return reinterpret_cast<std::uint8_t*>(storage.data()); }
  const std::uint8_t* data() const {
    return reinterpret_cast<const std::uint8_t*>(storage.data());
  }
  Tensor storage;
};

/// Mask bytes drawn ahead of each branchless apply pass: enough to keep
/// the serial generator loop and the vectorised multiply apart, small
/// enough to stay in L1.
constexpr std::int64_t kDropoutBatch = 512;

}  // namespace

Value matmul(const Value& a, const Value& b) {
  Tensor out = ops::matmul(a->value, b->value);
  return make_node(
      std::move(out), {a, b},
      [a, b](Node& node) {
        // Both products skip the zero rows of dC, found once here.
        const std::vector<std::int64_t> rows =
            ops::row_support(node.grad).rows;
        if (a->requires_grad) {
          // dA = dC · Bᵀ
          hand_over(a, ops::matmul_nt(node.grad, b->value, rows));
        }
        if (b->requires_grad) {
          // dB = Aᵀ · dC
          hand_over(b, ops::matmul_tn(a->value, node.grad, rows));
        }
      },
      "matmul");
}

Value add(const Value& a, const Value& b) {
  Tensor out = ops::add(a->value, b->value);
  return make_node(
      std::move(out), {a, b},
      [a, b](Node& node) {
        accumulate(a, node.grad);
        accumulate(b, node.grad);
      },
      "add");
}

Value add_bias(const Value& x, const Value& bias) {
  Tensor out = ops::add_row_broadcast(x->value, bias->value);
  return make_node(
      std::move(out), {x, bias},
      [x, bias](Node& node) {
        accumulate(x, node.grad);
        if (bias->requires_grad) {
          // Column sums over the rows in row order, vectorised across
          // columns; threads take whole column blocks, so every column's
          // order is the serial one at any thread count.
          constexpr std::int64_t kCols = 16;
          Tensor& bg = bias->ensure_grad();
          const std::int64_t m = node.grad.shape(0);
          const std::int64_t n = node.grad.shape(1);
          const float* __restrict__ g = node.grad.data();
          float* __restrict__ pb = bg.data();
#pragma omp parallel for schedule(static) \
    if (m * n >= kParallelNumelThreshold && n > kCols)
          for (std::int64_t j0 = 0; j0 < n; j0 += kCols) {
            const std::int64_t j1 = std::min(n, j0 + kCols);
            for (std::int64_t i = 0; i < m; ++i) {
              const float* __restrict__ grow = g + i * n;
#pragma omp simd
              for (std::int64_t j = j0; j < j1; ++j) pb[j] += grow[j];
            }
          }
        }
      },
      "add_bias");
}

Value scale(const Value& x, float s) {
  Tensor out = ops::scale(x->value, s);
  return make_node(
      std::move(out), {x},
      [x, s](Node& node) {
        if (x->requires_grad) x->ensure_grad().add_(node.grad, s);
      },
      "scale");
}

Value relu(const Value& x) {
  Tensor out = ops::relu(x->value);
  return make_node(
      std::move(out), {x},
      [x](Node& node) {
        if (!x->requires_grad) return;
        const float* __restrict__ xv = x->value.data();
        const float* __restrict__ g = node.grad.data();
        const std::int64_t n = node.grad.numel();
        if (!x->grad.defined()) {
          contribute(x, n, [xv, g](std::int64_t i) {
            return xv[i] > 0.0f ? g[i] : 0.0f;
          });
          return;
        }
        // Adding only where x > 0 leaves the other elements' bits alone.
        float* __restrict__ dst = x->grad.data();
#pragma omp parallel for simd schedule(static) \
    if (n >= kParallelNumelThreshold)
        for (std::int64_t i = 0; i < n; ++i) {
          dst[i] = xv[i] > 0.0f ? dst[i] + g[i] : dst[i];
        }
      },
      "relu");
}

Value elu(const Value& x) {
  Tensor out = ops::elu(x->value);
  // Save the output: d/dx elu(x) = x>0 ? 1 : elu(x)+1.
  Tensor saved = out;
  return make_node(
      std::move(out), {x},
      [x, saved](Node& node) {
        if (!x->requires_grad) return;
        Tensor& xg = x->ensure_grad();
        const float* xv = x->value.data();
        const float* ov = saved.data();
        const float* g = node.grad.data();
        float* dst = xg.data();
        const std::int64_t n = node.grad.numel();
        for (std::int64_t i = 0; i < n; ++i) {
          dst[i] += g[i] * (xv[i] > 0.0f ? 1.0f : ov[i] + 1.0f);
        }
      },
      "elu");
}

Value leaky_relu(const Value& x, float slope) {
  Tensor out = ops::leaky_relu(x->value, slope);
  return make_node(
      std::move(out), {x},
      [x, slope](Node& node) {
        if (!x->requires_grad) return;
        Tensor& xg = x->ensure_grad();
        const float* xv = x->value.data();
        const float* g = node.grad.data();
        float* dst = xg.data();
        const std::int64_t n = node.grad.numel();
        for (std::int64_t i = 0; i < n; ++i) {
          dst[i] += g[i] * (xv[i] > 0.0f ? 1.0f : slope);
        }
      },
      "leaky_relu");
}

Value dropout(const Value& x, float p, Rng& rng, bool training) {
  if (!training || p <= 0.0f) return x;
  GSOUP_CHECK_MSG(p < 1.0f, "dropout probability must be < 1");
  const float keep = 1.0f - p;
  const float inv_keep = 1.0f / keep;
  // rng.bernoulli(keep) is (draw >> 11) · 2⁻⁵³ < keep, with both sides
  // exact doubles; scaling by 2⁵³ turns it into an integer compare against
  // ceil(keep · 2⁵³). One draw per element, in element order, from a copy
  // of the generator the compiler can keep in registers: the same stream
  // and the same final state as a per-element bernoulli loop.
  const auto threshold =
      static_cast<std::uint64_t>(std::ceil(static_cast<double>(keep) * 0x1p53));
  const std::int64_t n = x->value.numel();
  ByteMask mask(n);
  Tensor out = Tensor::empty(x->value.shape());
  {
    Rng local = rng;
    std::uint8_t* __restrict__ pm = mask.data();
    const float* __restrict__ px = x->value.data();
    float* __restrict__ po = out.data();
    for (std::int64_t base = 0; base < n; base += kDropoutBatch) {
      const std::int64_t len = std::min(kDropoutBatch, n - base);
      for (std::int64_t i = base; i < base + len; ++i) {
        pm[i] = static_cast<std::uint8_t>((local() >> 11) < threshold);
      }
      // x · (inv_keep or 0): the same product as x times a float mask.
#pragma omp simd
      for (std::int64_t i = base; i < base + len; ++i) {
        po[i] = px[i] * (pm[i] != 0 ? inv_keep : 0.0f);
      }
    }
    rng = local;
  }
  return make_node(
      std::move(out), {x},
      [x, mask, inv_keep](Node& node) {
        if (!x->requires_grad) return;
        const std::uint8_t* __restrict__ pm = mask.data();
        const float* __restrict__ g = node.grad.data();
        const std::int64_t n = node.grad.numel();
        if (!x->grad.defined()) {
          contribute(x, n, [pm, g, inv_keep](std::int64_t i) {
            return g[i] * (pm[i] != 0 ? inv_keep : 0.0f);
          });
          return;
        }
        // A later contribution rounds the product before the add, as the
        // mask multiply always did; a fused loop could contract the two
        // into one multiply-add and change the bits.
        Tensor product = Tensor::empty(node.grad.shape());
        float* __restrict__ pp = product.data();
#pragma omp parallel for simd schedule(static) \
    if (n >= kParallelNumelThreshold)
        for (std::int64_t i = 0; i < n; ++i) {
          pp[i] = g[i] * (pm[i] != 0 ? inv_keep : 0.0f);
        }
        x->grad.add_(product);
      },
      "dropout");
}

Value head_mean(const Value& x, std::int64_t heads) {
  GSOUP_CHECK_MSG(x->value.rank() == 2 && heads >= 1 &&
                      x->value.shape(1) % heads == 0,
                  "head_mean: bad shape " << x->value.shape_str()
                                          << " for heads=" << heads);
  const std::int64_t n = x->value.shape(0);
  const std::int64_t d = x->value.shape(1) / heads;
  const float inv = 1.0f / static_cast<float>(heads);
  Tensor out = Tensor::zeros({n, d});
  {
    const float* px = x->value.data();
    float* po = out.data();
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t h = 0; h < heads; ++h) {
        const float* row = px + (i * heads + h) * d;
        float* orow = po + i * d;
        for (std::int64_t j = 0; j < d; ++j) orow[j] += inv * row[j];
      }
    }
  }
  return make_node(
      std::move(out), {x},
      [x, heads, n, d, inv](Node& node) {
        if (!x->requires_grad) return;
        Tensor& xg = x->ensure_grad();
        const float* g = node.grad.data();
        float* dst = xg.data();
        for (std::int64_t i = 0; i < n; ++i) {
          const float* grow = g + i * d;
          for (std::int64_t h = 0; h < heads; ++h) {
            float* drow = dst + (i * heads + h) * d;
            for (std::int64_t j = 0; j < d; ++j) drow[j] += inv * grow[j];
          }
        }
      },
      "head_mean");
}

Value vec_softmax(const Value& x) {
  Tensor out = ops::vec_softmax(x->value);
  Tensor saved = out;
  return make_node(
      std::move(out), {x},
      [x, saved](Node& node) {
        if (!x->requires_grad) return;
        // dxi = si * (gi - Σ_j gj sj)
        const float* s = saved.data();
        const float* g = node.grad.data();
        const std::int64_t n = saved.numel();
        float inner = 0.0f;
        for (std::int64_t j = 0; j < n; ++j) inner += g[j] * s[j];
        Tensor& xg = x->ensure_grad();
        float* dst = xg.data();
        for (std::int64_t i = 0; i < n; ++i) {
          dst[i] += s[i] * (g[i] - inner);
        }
      },
      "vec_softmax");
}

Value per_head_dot(const Value& x, const Value& a, std::int64_t heads) {
  GSOUP_CHECK_MSG(x->value.rank() == 2 && a->value.rank() == 1 &&
                      x->value.shape(1) == a->value.shape(0) &&
                      heads >= 1 && x->value.shape(1) % heads == 0,
                  "per_head_dot: bad shapes " << x->value.shape_str()
                                              << " / "
                                              << a->value.shape_str());
  const std::int64_t n = x->value.shape(0);
  const std::int64_t d = x->value.shape(1) / heads;
  Tensor out = Tensor::empty({n, heads});
  ops::per_head_dot_into(x->value, a->value, heads, out);
  return make_node(
      std::move(out), {x, a},
      [x, a, heads, n, d](Node& node) {
        const float* __restrict__ g = node.grad.data();
        const float* __restrict__ px = x->value.data();
        const float* __restrict__ pa = a->value.data();
        if (x->requires_grad) {
          float* __restrict__ dst = x->ensure_grad().data();
          for (std::int64_t i = 0; i < n; ++i) {
            for (std::int64_t h = 0; h < heads; ++h) {
              const float gv = g[i * heads + h];
              const float* arow = pa + h * d;
              float* drow = dst + i * heads * d + h * d;
              for (std::int64_t j = 0; j < d; ++j) drow[j] += gv * arow[j];
            }
          }
        }
        if (a->requires_grad) {
          float* __restrict__ dst = a->ensure_grad().data();
          for (std::int64_t i = 0; i < n; ++i) {
            for (std::int64_t h = 0; h < heads; ++h) {
              const float gv = g[i * heads + h];
              const float* xrow = px + i * heads * d + h * d;
              float* drow = dst + h * d;
              for (std::int64_t j = 0; j < d; ++j) drow[j] += gv * xrow[j];
            }
          }
        }
      },
      "per_head_dot");
}

Value linear_combination(std::span<const Tensor> ingredients,
                         const Value& weights) {
  GSOUP_CHECK_MSG(!ingredients.empty(), "linear_combination needs operands");
  GSOUP_CHECK_MSG(weights->value.rank() == 1 &&
                      weights->value.shape(0) ==
                          static_cast<std::int64_t>(ingredients.size()),
                  "weights shape " << weights->value.shape_str()
                                   << " != ingredient count "
                                   << ingredients.size());
  for (const auto& t : ingredients) {
    GSOUP_CHECK_MSG(t.shape() == ingredients.front().shape(),
                    "ingredient shape mismatch");
  }

  const auto count = static_cast<std::int64_t>(ingredients.size());
  Tensor out = Tensor::zeros(ingredients.front().shape());
  const float* w = weights->value.data();
  for (std::int64_t i = 0; i < count; ++i) {
    out.add_(ingredients[i], w[i]);
  }

  // Keep the ingredient tensors alive in the closure (they are shallow
  // handles onto shared storage, so this is cheap).
  std::vector<Tensor> held(ingredients.begin(), ingredients.end());
  return make_node(
      std::move(out), {weights},
      [weights, held = std::move(held)](Node& node) {
        if (!weights->requires_grad) return;
        Tensor& wg = weights->ensure_grad();
        float* dst = wg.data();
        for (std::size_t i = 0; i < held.size(); ++i) {
          dst[i] += ops::dot(node.grad, held[i]);
        }
      },
      "linear_combination");
}

Value sum(const Value& x) {
  Tensor out = Tensor::full({1}, ops::sum(x->value));
  return make_node(
      std::move(out), {x},
      [x](Node& node) {
        if (x->requires_grad) {
          x->ensure_grad().add_(
              Tensor::full(x->value.shape(), node.grad.at(0)));
        }
      },
      "sum");
}

}  // namespace gsoup::ag
