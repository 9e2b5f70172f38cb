// Differentiable sparse ops over CSR graphs: SpMM (message passing for
// GCN/SAGE) and the GAT per-edge attention aggregation with edge softmax.
//
// The CSR operands are owned by the caller (GraphContext in src/nn) and
// must outlive the autodiff tape. SpMM takes both the forward matrix and
// its transpose so the backward pass dX = Aᵀ·dY is a second race-free
// row-parallel SpMM rather than an atomic scatter; GAT attention and the
// minibatch block SpMM get the same treatment through cached
// graph::BlockedCsr transposes that carry per-edge positions back into
// the forward CSR.
#pragma once

#include "ag/value.hpp"
#include "graph/csr.hpp"
#include "graph/block.hpp"
#include "tensor/half.hpp"

namespace gsoup::graph {
struct BlockedCsr;
}

namespace gsoup::ag {

/// Y += A · X for weighted CSR A, scheduled over pre-computed row ranges
/// of approximately equal nnz (binary search over indptr) so power-law
/// degree distributions do not serialise on the hub rows. Common feature
/// widths (8/16/32/64/128) run width-specialised dual-accumulator kernels.
/// Used by the spmm backward pass. X is [n, d], Y is [n, d].
void spmm_accumulate(const Csr& a, const Tensor& x, Tensor& y);

/// Y = A · X, same kernels but fused with the output initialisation (no
/// separate zero pass, Y written once per row). Forward-pass workhorse;
/// Y may be uninitialised storage.
void spmm_overwrite(const Csr& a, const Tensor& x, Tensor& y);

/// Y += A · X, the seed's naive row-parallel loop. Test oracle and bench
/// baseline for the kernels above.
void spmm_reference(const Csr& a, const Tensor& x, Tensor& y);

/// Y(0..num_rows) = A · X for a raw CSR given by spans (num_rows =
/// indptr.size() - 1; indices address rows of X, which may have more rows
/// than Y — the bipartite-block case). Same edge-balanced schedule and
/// width-specialised kernels as spmm_overwrite; `spmm_overwrite` itself is
/// this function applied to a Csr's members. Exposed so the serving
/// engine can run message passing over block-local CSRs that are not Csr
/// objects, with bitwise-identical numerics to the training forward.
void spmm_spans_overwrite(std::span<const std::int64_t> indptr,
                          std::span<const std::int32_t> indices,
                          std::span<const float> values, const Tensor& x,
                          Tensor& y);

/// Y = A · X (and Y += A · X) over a cached graph::BlockedCsr layout: the
/// same width-specialised dual-accumulator kernels, but the edge-balanced
/// row blocks come pre-computed from the layout (no binary search per
/// launch) and the gather loop runs at the layout's column-index width
/// (16-bit on graphs under 2^16 nodes). Bit-identical results to
/// spmm_overwrite/spmm_accumulate over the CSR the layout was built from.
/// The layout must carry values (be an SpMM operand, not structure-only).
void spmm_blocked_overwrite(const graph::BlockedCsr& a, const Tensor& x,
                            Tensor& y);
void spmm_blocked_accumulate(const graph::BlockedCsr& a, const Tensor& x,
                             Tensor& y);

// Half-stored-X twins for the reduced-precision infer path. Each X
// element widens to fp32 in registers right before its FMA; accumulation
// order is identical to the float kernels, so the result is bit-equal to
// running the fp32 SpMM over a widened copy of X. Output is fp32.
void spmm_spans_overwrite(std::span<const std::int64_t> indptr,
                          std::span<const std::int32_t> indices,
                          std::span<const float> values, const HalfBuffer& x,
                          Tensor& y);
void spmm_blocked_overwrite(const graph::BlockedCsr& a, const HalfBuffer& x,
                            Tensor& y);

/// Autograd-free multi-head GAT attention forward over a raw CSR
/// (num_dst = indptr.size() - 1; indices address rows of h_src /
/// score_src, dst i addresses row i of score_dst):
///   z_e      = score_dst[i, h] + score_src[src_e, h]
///   alpha_e  = softmax over in-edges of i of LeakyReLU(z_e)
///   out[i,·] = Σ_e alpha_e · h_src[src_e, ·]   (per head)
/// `alpha` is an [E, heads] workspace (overwritten with the normalised
/// attention coefficients; retained by the training path for backward,
/// scratch for serving); `out` is overwritten.
///
/// Head-fused: every edge is visited twice per row — one sweep computing
/// the LeakyReLU activations and per-head maxima for all heads at once,
/// one sweep exponentiating and accumulating the (unnormalised) weighted
/// aggregate with a d-width-specialised SIMD body — instead of the seed's
/// four per-head walks. Shared by ag::gat_attention and the serving
/// engine.
void gat_attention_forward(std::span<const std::int64_t> indptr,
                           std::span<const std::int32_t> indices,
                           const Tensor& h_src, const Tensor& score_dst,
                           const Tensor& score_src, std::int64_t heads,
                           float slope, Tensor& alpha, Tensor& out);

/// Plan-aware forward: the same head-fused kernels over a cached
/// structure layout (graph::build_blocked_csr of the raw adjacency) —
/// pre-computed edge-balanced row blocks instead of a binary search per
/// launch, and the gather runs at the layout's index width (16-bit under
/// 2^16 nodes). Bit-identical to the span overload above.
void gat_attention_forward(const graph::BlockedCsr& layout,
                           const Tensor& h_src, const Tensor& score_dst,
                           const Tensor& score_src, std::int64_t heads,
                           float slope, Tensor& alpha, Tensor& out);

/// Inference-only attention forward: identical output to
/// gat_attention_forward — bit for bit — with no caller-visible `alpha`
/// tensor. Same pass structure as the training kernel (activations and
/// exponentials staged in a reusable thread-local [E, heads] scratch —
/// fusing exp into the aggregate loop measured ~30% slower, see the
/// kernel body), except the final walk that rescales the stored p's into
/// normalised attention coefficients is skipped: inference never reads
/// alpha. The float operations feeding `out` are performed in exactly
/// the training kernel's order, which is what makes exec-mode infer
/// logits bit-identical to the tape forward (tests/test_exec.cpp).
/// Selected by infer-mode plan lowering (exec::Executor). Measured
/// honestly: 1.00-1.06x over gat_attention_forward single-thread at
/// d=16 (the skipped walk is a small traffic fraction next to the H·D
/// gathers); the concrete wins are the retired engine-side [E, heads]
/// workspace and the unchanged-output guarantee.
void gat_attention_infer(std::span<const std::int64_t> indptr,
                         std::span<const std::int32_t> indices,
                         const Tensor& h_src, const Tensor& score_dst,
                         const Tensor& score_src, std::int64_t heads,
                         float slope, Tensor& out);

/// Plan-aware infer forward over a cached structure layout (pre-computed
/// row blocks, narrow indices), bit-identical to the span overload.
void gat_attention_infer(const graph::BlockedCsr& layout,
                         const Tensor& h_src, const Tensor& score_dst,
                         const Tensor& score_src, std::int64_t heads,
                         float slope, Tensor& out);

/// The seed attention kernel (three softmax passes plus an aggregate walk
/// per (dst, head), serial in the head dimension), kept verbatim as the
/// parity oracle and the bench baseline the fused kernels are gated
/// against.
void gat_attention_forward_reference(std::span<const std::int64_t> indptr,
                                     std::span<const std::int32_t> indices,
                                     const Tensor& h_src,
                                     const Tensor& score_dst,
                                     const Tensor& score_src,
                                     std::int64_t heads, float slope,
                                     Tensor& alpha, Tensor& out);

/// Autograd-free GAT attention backward: given the forward's normalised
/// `alpha` and the output gradient, accumulate (+=) into any non-null
/// gradient tensors (dh is [n, heads*d], dscore_dst/dscore_src are
/// [n, heads]; all must be preallocated, typically Node::ensure_grad()).
/// Pass 1 walks destination rows head-fused (softmax + LeakyReLU
/// backward, stashing per-edge dz); pass 2 gathers dz/alpha·dOut by
/// *source* row over `graph_t`, race-free without the seed's per-head
/// serial walks. The [E, heads] dz scratch is a reusable thread-local
/// workspace — zero heap allocations once warm (one growth per thread).
void gat_attention_backward(std::span<const std::int64_t> indptr,
                            std::span<const std::int32_t> indices,
                            const CsrTranspose& graph_t, const Tensor& h_src,
                            const Tensor& score_dst, const Tensor& score_src,
                            const Tensor& alpha, const Tensor& grad_out,
                            std::int64_t heads, float slope, Tensor* dh,
                            Tensor* dscore_dst, Tensor* dscore_src);

/// Plan-aware backward: pass 1 over the cached structure layout, pass 2
/// over the cached transpose layout (graph::build_blocked_transpose),
/// whose 16-bit indices, 32-bit edge positions and pre-computed row
/// blocks replace the CsrTranspose's int64 edge_map and the per-call
/// chunking pass.
void gat_attention_backward(const graph::BlockedCsr& layout,
                            const graph::BlockedCsr& layout_t,
                            const Tensor& h_src, const Tensor& score_dst,
                            const Tensor& score_src, const Tensor& alpha,
                            const Tensor& grad_out, std::int64_t heads,
                            float slope, Tensor* dh, Tensor* dscore_dst,
                            Tensor* dscore_src);

/// The seed backward (per-(dst, head) serial walks, fresh [E, heads] dz
/// allocation per call), kept as the gradient oracle and bench baseline.
void gat_attention_backward_reference(
    std::span<const std::int64_t> indptr,
    std::span<const std::int32_t> indices, const CsrTranspose& graph_t,
    const Tensor& h_src, const Tensor& score_dst, const Tensor& score_src,
    const Tensor& alpha, const Tensor& grad_out, std::int64_t heads,
    float slope, Tensor* dh, Tensor* dscore_dst, Tensor* dscore_src);

/// Y = A · X where A is a weighted CSR (in-edge convention: row i of A
/// holds weights of edges (j -> i)). `a_transpose` must be the weighted
/// transpose of `a`; both must carry values.
Value spmm(const Csr& a, const Csr& a_transpose, const Value& x);

/// spmm with optional cached layouts (see GraphContext::spmm_layout()):
/// the forward runs over `layout` and the backward over `layout_t` when
/// non-null, falling back to the CSRs otherwise. The layouts must have
/// been built from `a` / `a_transpose` respectively.
Value spmm(const Csr& a, const Csr& a_transpose, const Value& x,
           const graph::BlockedCsr* layout,
           const graph::BlockedCsr* layout_t);

/// Multi-head GAT aggregation (Veličković et al.):
///   z_e      = score_dst[dst_e, h] + score_src[src_e, h]
///   alpha_e  = softmax over in-edges of dst_e of LeakyReLU(z_e)
///   out[i,h] = Σ_{e: dst_e = i} alpha_e · h_src[src_e, h]
///
/// `h` is [n, heads*dim]; `score_dst`/`score_src` are [n, heads] (the aᵀWh
/// dot products, computed by matmul so their parameter grads come for
/// free). `graph` is the unweighted structure (with self loops);
/// `graph_t` its transpose with edge-id mapping, used by the backward
/// scatter to sources. Saves the attention coefficients (E × heads) for
/// the backward pass — the memory signature that makes learned souping
/// with GAT the most memory-hungry configuration in the paper (Fig. 4b).
Value gat_attention(const Csr& graph, const CsrTranspose& graph_t,
                    const Value& h, const Value& score_dst,
                    const Value& score_src, std::int64_t heads, float slope);

/// gat_attention with optional cached layouts (see
/// GraphContext::attn_layout()/attn_layout_t()): the forward gathers over
/// `layout` and the backward over both when non-null, falling back to the
/// CSR/CsrTranspose otherwise. Must be built from `graph`/its transpose.
/// Which layouts to pass is a plan-compile decision (exec::LayerStep):
/// single-head backwards keep the span kernels — the narrow-index
/// instantiation anomaly documented in docs/BENCHMARKS.md — so callers
/// pass layout_t = nullptr for heads == 1.
Value gat_attention(const Csr& graph, const CsrTranspose& graph_t,
                    const Value& h, const Value& score_dst,
                    const Value& score_src, std::int64_t heads, float slope,
                    const graph::BlockedCsr* layout,
                    const graph::BlockedCsr* layout_t);

/// Bipartite-block SpMM: Y[i] = Σ_e w_e X[src_e] over a Block, sampled
/// or an exact field. X rows are block-local (size block.num_src()).
/// The backward dX = Bᵀ·dY runs as a race-free edge-balanced SpMM gather
/// over the block's cached graph::BlockedCsr transpose instead of the
/// seed's every-thread-walks-every-edge scatter. Blocks sampled with
/// BlockTranspose::kBuild already carry that transpose (built, threaded,
/// at sample time); otherwise the forward builds it here once when
/// gradients are being recorded.
Value block_spmm(const Block& block, const Value& x);

/// The seed block_spmm backward (each thread walks all E edges, writing
/// only the source rows in its range; team clamped to ~d threads), kept
/// as the parity oracle and bench baseline for the transpose-gather
/// backward. Accumulates dX += Bᵀ·dY into `x_grad` ([num_src, d]).
void block_spmm_backward_scatter(const Block& block, const Tensor& grad_out,
                                 Tensor& x_grad);

/// Narrow a block-local matrix to its first `rows` rows (the destination
/// nodes of a block). Gradient scatters back into the leading rows.
Value narrow_rows(const Value& x, std::int64_t rows);

/// Gather rows of a constant feature matrix by global index (minibatch
/// input construction; non-differentiable w.r.t. indices, and `features`
/// is expected to be a constant).
Value gather_rows(const Value& features,
                  std::span<const std::int64_t> row_ids);

}  // namespace gsoup::ag
