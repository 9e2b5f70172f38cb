// Dense kernels: GEMM, elementwise maps, reductions, softmax.
//
// These are the raw numeric primitives; the autograd layer (src/ag) wraps
// them with backward rules. Kernels parallelise with OpenMP over rows, the
// natural decomposition for node-feature matrices.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/half.hpp"
#include "tensor/tensor.hpp"

namespace gsoup::ops {

// ---- GEMM ---------------------------------------------------------------

/// C = A · B. A is [m,k], B is [k,n], C out [m,n].
Tensor matmul(const Tensor& a, const Tensor& b);
/// C = Aᵀ · B. A is [k,m], B is [k,n], C out [m,n]. (Used by matmul backward.)
Tensor matmul_tn(const Tensor& a, const Tensor& b);
/// C = A · Bᵀ. A is [m,k], B is [n,k], C out [m,n]. (Used by matmul backward.)
Tensor matmul_nt(const Tensor& a, const Tensor& b);
/// In-place accumulate: c += A · B.
void matmul_acc(const Tensor& a, const Tensor& b, Tensor& c);

// ---- Row-sparse backward GEMMs ------------------------------------------
// A loss over a few rows (learned souping's validation nodes) leaves most
// rows of each gradient at zero. These overloads take the rows of the
// gradient operand that may hold a nonzero (ascending; every other row
// must be ±0) and skip the rest, bit-equal to the dense call whenever the
// other operand is finite. Every output element keeps the dense call's
// k-panels and term order; a dropped term a·(±0) is ±0, and adding ±0 to
// an accumulator that starts at +0 changes nothing, because a sum is −0
// only when both of its terms are. The one difference: a non-finite value
// of the other operand that meets a skipped row makes NaN (∞·0) in the
// dense call and nothing here. A row list longer than skip_pays allows
// runs the dense call; so does a shape below the blocking threshold.

/// Which rows of a rank-2 tensor hold a nonzero value: a row of ±0 only
/// does not, a row holding a NaN does.
struct RowSupport {
  std::vector<std::uint8_t> mask;  ///< 1 per nonzero row, 0 per zero row
  std::vector<std::int64_t> rows;  ///< the nonzero rows, ascending
};
RowSupport row_support(const Tensor& a);

/// Whether skipping the zero rows of a `total`-row operand with `live`
/// nonzero rows pays: at most 3/4 of them are nonzero. Above that the
/// row gathers cost more than the rows they skip (a 32,000-row tall
/// matmul_tn at one thread: 5.5-6.1 ms dense, 5.9-7.2 ms row-sparse at
/// 82-98% nonzero rows, 4.2-4.7 ms at 60%).
inline bool skip_pays(std::int64_t live, std::int64_t total) {
  return 4 * live <= 3 * total;
}

/// C = Aᵀ · B contracting only the listed rows of B (and of A): dW = Aᵀ·dC
/// over a row-sparse dC. Each 256-deep k-panel keeps its original rows, so
/// every C element gets the dense call's panel sums in the same order; a
/// panel with no listed row is skipped.
Tensor matmul_tn(const Tensor& a, const Tensor& b,
                 std::span<const std::int64_t> b_rows);
/// C = A · Bᵀ computing only the listed rows of A: dX = dC·Wᵀ over a
/// row-sparse dC. The other rows of C are +0.
Tensor matmul_nt(const Tensor& a, const Tensor& b,
                 std::span<const std::int64_t> a_rows);

// ---- Reduced-precision GEMM ---------------------------------------------
// Half-stored operands, fp32 accumulation. The A elements widen to fp32 in
// the micro-kernel registers and the B panel widens during packing, so the
// blocked schedule and accumulation order are IDENTICAL to the fp32 kernel:
// results are bit-equal to running the fp32 GEMM over quantize-widened
// copies of the inputs. Output is always fp32.

/// c += A · B with half-stored A and fp32 B.
void matmul_acc(const HalfBuffer& a, const Tensor& b, Tensor& c);
/// c += A · B with fp32 A and half-stored B (half weight panels).
void matmul_acc(const Tensor& a, const HalfBuffer& b, Tensor& c);
/// c += A · B with both operands half-stored (same precision required).
void matmul_acc(const HalfBuffer& a, const HalfBuffer& b, Tensor& c);

// ---- Fused GEMM + combine + bias ----------------------------------------
// c = (A·B + c) + bias, the SAGE (self + neigh) + bias combine folded into
// the GEMM's register-tile store. Bit-equal to "tmp = A·B; c = (tmp + c) +
// bias" in exactly the regime gemm_can_combine_bias admits: the blocked
// path with the whole contraction in ONE k-panel, so each output element
// is completed in registers and stored once — the fused store sees the
// same `tmp` bits the separate epilogue would have read back.

/// True if matmul_combine_bias may be used for an [m,k]x[k,n] product.
bool gemm_can_combine_bias(std::int64_t m, std::int64_t n, std::int64_t k);
/// c = (A·B + c) + bias. Requires gemm_can_combine_bias(m, n, k).
void matmul_combine_bias(const Tensor& a, const Tensor& b,
                         const Tensor& bias, Tensor& c);
/// Half-stored-operand twin (same eligibility rule).
void matmul_combine_bias(const HalfBuffer& a, const HalfBuffer& b,
                         const Tensor& bias, Tensor& c);

// ---- Naive GEMM references ----------------------------------------------
// The simple row-parallel loops the packed/blocked kernels above fall back
// to below the blocking threshold. Exposed so tests can use them as the
// correctness oracle and the bench harness as the speedup baseline.

/// c += A · B, naive i-k-j loop.
void matmul_naive_acc(const Tensor& a, const Tensor& b, Tensor& c);
/// C = Aᵀ · B, naive loop.
Tensor matmul_tn_naive(const Tensor& a, const Tensor& b);
/// C = A · Bᵀ, naive dot-product loop.
Tensor matmul_nt_naive(const Tensor& a, const Tensor& b);

/// Explicit transpose copy of a rank-2 tensor.
Tensor transpose(const Tensor& a);

// ---- Elementwise --------------------------------------------------------

Tensor add(const Tensor& a, const Tensor& b);
/// out[i,j] = a[i,j] + bias[j] (row broadcast).
Tensor add_row_broadcast(const Tensor& a, const Tensor& bias);

/// The activation a layer epilogue applies.
enum class Activation : std::uint8_t { kNone, kRelu, kElu };

/// The layer epilogue over rank-2 [m,n] operands:
/// out = act((a + b) + bias), in the float order of add, then
/// add_row_broadcast, then relu/elu. One vector pass; ELU takes a second,
/// scalar pass in place for its expm1. `b` (same shape as `a`) and `bias`
/// (length n) may each be null, which drops that term. `out` has a's
/// shape and may alias `a`: the infer executor runs it in place. The
/// training tape's `ag::combine_bias_act` runs the same kernel.
void combine_bias_act_into(const Tensor& a, const Tensor* b,
                           const Tensor* bias, Activation act, Tensor& out);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor scale(const Tensor& a, float s);

Tensor relu(const Tensor& a);
/// ELU with alpha=1: x>0 ? x : exp(x)-1.
Tensor elu(const Tensor& a);
Tensor leaky_relu(const Tensor& a, float slope);

// ---- Reductions / softmax -----------------------------------------------

float sum(const Tensor& a);
float dot(const Tensor& a, const Tensor& b);

/// Row-wise numerically-stable softmax of a [m,n] tensor.
Tensor row_softmax(const Tensor& a);
/// Row-wise log-softmax of a [m,n] tensor.
Tensor row_log_softmax(const Tensor& a);

/// argmax over each row; out has length m.
std::vector<std::int64_t> row_argmax(const Tensor& a);

/// Softmax over a flat vector (used for ingredient interpolation logits).
Tensor vec_softmax(const Tensor& a);

/// Index of the largest element in a raw row of length n (first wins on
/// ties). Allocation-free counterpart of row_argmax for the serving hot
/// paths, shared so tie-breaking stays consistent everywhere.
inline std::int64_t argmax_row(const float* row, std::int64_t n) {
  std::int64_t best = 0;
  for (std::int64_t j = 1; j < n; ++j) {
    if (row[j] > row[best]) best = j;
  }
  return best;
}

/// Per-head inner product into a preallocated output: out[i,h] =
/// Σ_j x[i, h*d+j] · a[h*d+j] for x [n, heads*d], a rank-1 [heads*d],
/// out [n, heads]. Shared by the GAT training forward (ag::per_head_dot)
/// and the autograd-free serving engine so both produce identical scores.
void per_head_dot_into(const Tensor& x, const Tensor& a, std::int64_t heads,
                       Tensor& out);

/// out[i] = src[row_ids[i]] for rank-2 src, preallocated out
/// ([row_ids.size(), src.cols]). Allocation-free row gather shared by the
/// graph locality layer (permuting features/logits between the caller's
/// and a GraphPlan's vertex numbering) and the serving engine's batch
/// row lookups.
void gather_rows_into(const Tensor& src,
                      std::span<const std::int32_t> row_ids, Tensor& out);
void gather_rows_into(const Tensor& src,
                      std::span<const std::int64_t> row_ids, Tensor& out);

/// Convert-on-gather: rows of a half-stored matrix widened to fp32 as they
/// are copied out. One bulk widen per row (F16C when the CPU has it), so a
/// half feature matrix or cached logits table halves the gather traffic at
/// no extra pass.
void gather_rows_into(const HalfBuffer& src,
                      std::span<const std::int32_t> row_ids, Tensor& out);
void gather_rows_into(const HalfBuffer& src,
                      std::span<const std::int64_t> row_ids, Tensor& out);

/// Half-to-half row gather (16-bit memcpy per row): keeps gathered
/// subgraph input rows at storage width for kernels that read half
/// directly. Precisions must match.
void gather_rows_into(const HalfBuffer& src,
                      std::span<const std::int32_t> row_ids, HalfBuffer& out);
void gather_rows_into(const HalfBuffer& src,
                      std::span<const std::int64_t> row_ids, HalfBuffer& out);

// ---- Comparison helpers (tests) -----------------------------------------

/// max_i |a_i - b_i| over equal-shaped tensors.
float max_abs_diff(const Tensor& a, const Tensor& b);
/// True if all elements are finite.
bool all_finite(const Tensor& a);

}  // namespace gsoup::ops
