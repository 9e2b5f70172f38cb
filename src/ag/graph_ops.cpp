#include "ag/graph_ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <type_traits>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "ag/spmm_half_simd.hpp"
#include "graph/locality.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"

namespace gsoup::ag {

namespace {

// SpMM kernel bodies. Every output row is accumulated in registers and
// stored once, whatever the feature width; the per-edge read-modify-write
// of the row is the cost being avoided. Two levers over the naive
// per-edge loop, each worth measuring (see BENCH_kernels.json):
//   1. Compile-time feature width: the naive runtime trip count costs a
//      vectoriser prologue/epilogue on every edge. Widths 8/16/32/64/128
//      get a dedicated instantiation (spmm_rows_fixed); every other width
//      runs the register row accumulator (RegRows), a compile-time prefix
//      plus a 16-column window, which keeps the per-edge summation order.
//   2. Dual accumulators (fixed widths only): `y[j] += w*x[j]` per edge is
//      a serial FMA chain through the row (4-5 cycle latency each).
//      Interleaving even/odd edges into two register accumulators halves
//      the chain.
// X rows a few edges ahead are software-prefetched to overlap gather
// latency. Overwrite=true stores `y = acc` (fused Y = A·X, skips the
// separate zero pass and Y re-read); false adds into existing Y (backward
// accumulation).

constexpr std::int64_t kSpmmPrefetchDist = 12;

/// Touch every cache line of a D-element row. Templated on the element
/// type so half-stored X rows (2-byte elements, 32 per line) issue half
/// the prefetches of fp32 rows — for float this expands to exactly the
/// original +0/+16/+32/+48/+64/+96 pattern.
template <int D, typename T = float>
inline void spmm_prefetch_row(const T* p) {
  constexpr int kPerLine = static_cast<int>(64 / sizeof(T));
  __builtin_prefetch(p, 0, 3);
  if constexpr (D > kPerLine) __builtin_prefetch(p + kPerLine, 0, 3);
  if constexpr (D > 2 * kPerLine) {
    __builtin_prefetch(p + 2 * kPerLine, 0, 3);
    __builtin_prefetch(p + 3 * kPerLine, 0, 3);
  }
  if constexpr (D > 4 * kPerLine) {
    __builtin_prefetch(p + 4 * kPerLine, 0, 3);
    __builtin_prefetch(p + 6 * kPerLine, 0, 3);
  }
}

/// Identity widen for the fp32 X path: the templated kernels below inline
/// this away, leaving the original float loads.
inline float spmm_widen_f32(float v) { return v; }

// The kernel bodies are additionally templated on the column-index type
// Idx: int32 for raw CSR spans, uint16 for cached graph::BlockedCsr
// layouts on graphs whose source-id domain fits 16 bits (half the index
// traffic per edge). The float operations are identical for every Idx, so
// layout and span paths agree bit-for-bit.
//
// They are also templated on the X element type TX with a per-element
// WidenX: float X uses the identity (compiled away), half-stored X widens
// each element to fp32 in registers right before the FMA. Accumulation
// stays fp32 in the exact same order, so half-X results are bit-equal to
// running the float kernel over a widened copy of X. On half X the
// dispatch drivers below first try the AVX2/F16C kernels in
// spmm_half_simd.cpp (hardware converters, same accumulation order and
// contraction — see that header for the bit-exactness argument); these
// scalar-codec instantiations are the fallback for CPUs without F16C.
template <int D, bool Overwrite, typename Idx, typename TX,
          float (*WidenX)(TX)>
void spmm_rows_fixed(const std::int64_t* __restrict__ indptr,
                     const Idx* __restrict__ indices,
                     const float* __restrict__ values,
                     const TX* __restrict__ px, float* __restrict__ py,
                     std::int64_t num_edges, std::int64_t lo,
                     std::int64_t hi) {
  for (std::int64_t i = lo; i < hi; ++i) {
    const std::int64_t begin = indptr[i], end = indptr[i + 1];
    float* __restrict__ yrow = py + i * D;
    if constexpr (!Overwrite) {
      // Short-row fast path for accumulation: backward gathers over
      // block/graph transposes average only a handful of edges per row,
      // where the dual-accumulator setup/merge costs more than the
      // latency chain it hides. A single register accumulator seeded
      // from yrow and stored once is cheaper.
      if (end - begin <= 4) {
        float acc[D];
#pragma omp simd
        for (int j = 0; j < D; ++j) acc[j] = yrow[j];
        for (std::int64_t e = begin; e < end; ++e) {
          if (e + kSpmmPrefetchDist < num_edges) {
            spmm_prefetch_row<D>(
                px +
                static_cast<std::int64_t>(indices[e + kSpmmPrefetchDist]) *
                    D);
          }
          const float w = values[e];
          const TX* __restrict__ xrow =
              px + static_cast<std::int64_t>(indices[e]) * D;
#pragma omp simd
          for (int j = 0; j < D; ++j) acc[j] += w * WidenX(xrow[j]);
        }
#pragma omp simd
        for (int j = 0; j < D; ++j) yrow[j] = acc[j];
        continue;
      }
    }
    float acc0[D], acc1[D] = {};
    if constexpr (Overwrite) {
#pragma omp simd
      for (int j = 0; j < D; ++j) acc0[j] = 0.0f;
    } else {
      // Fold the existing row into the even accumulator: one array pass
      // instead of a zero pass plus a read-modify-write epilogue.
#pragma omp simd
      for (int j = 0; j < D; ++j) acc0[j] = yrow[j];
    }
    std::int64_t e = begin;
    for (; e + 1 < end; e += 2) {
      if (e + kSpmmPrefetchDist + 1 < num_edges) {
        spmm_prefetch_row<D>(
            px + static_cast<std::int64_t>(indices[e + kSpmmPrefetchDist]) *
                     D);
        spmm_prefetch_row<D>(
            px +
            static_cast<std::int64_t>(indices[e + kSpmmPrefetchDist + 1]) *
                D);
      }
      const float w0 = values[e], w1 = values[e + 1];
      const TX* __restrict__ x0 =
          px + static_cast<std::int64_t>(indices[e]) * D;
      const TX* __restrict__ x1 =
          px + static_cast<std::int64_t>(indices[e + 1]) * D;
#pragma omp simd
      for (int j = 0; j < D; ++j) {
        acc0[j] += w0 * WidenX(x0[j]);
        acc1[j] += w1 * WidenX(x1[j]);
      }
    }
    if (e < end) {
      const float w = values[e];
      const TX* __restrict__ xrow =
          px + static_cast<std::int64_t>(indices[e]) * D;
#pragma omp simd
      for (int j = 0; j < D; ++j) acc0[j] += w * WidenX(xrow[j]);
    }
#pragma omp simd
    for (int j = 0; j < D; ++j) yrow[j] = acc0[j] + acc1[j];
  }
}

// Register row accumulator: every width without a dual-accumulator body
// above. One walk over a row's edges accumulates a compile-time P-column
// prefix (P a multiple of 16, up to kRegSlab: 128 on AVX-512 builds) and
// a compile-time T-column window ending at the block's last column, both
// in registers, and stores the row once. For blocks of 16 or more columns
// the window is 16 wide and overlaps the prefix whenever the width is not
// a multiple of 16: the overlapped columns are accumulated twice by the
// same operations and stored twice with the same value, so the tail of at
// most 15 columns needs neither a runtime trip count nor a read past the
// row. Narrower blocks are all window (T = width, P = 0). Wider rows walk
// kRegSlab-column slabs first (on AVX-512, widths of 144 and up).
//
// Order contract: every output element starts from 0 (Overwrite) or from
// y, then adds w·x once per edge in edge order, contracted to an FMA
// exactly where the build contracts `y += w * x` (GCC's default
// -ffp-contract=fast on FMA targets). That is the per-element order of
// the per-edge read-modify-write loop this accumulator replaced, so every
// width outside 8/16/32/64/128 keeps its bits; tests/test_kernels.cpp
// (SpmmContract, GatContract) pins it against an oracle. The
// dual-accumulator bodies at the fixed widths keep their own order.
//
// The accumulator is shared with the runtime-shape GAT paths, which run
// it once per head over that head's column segment (rows `ld` = heads·d
// apart) with the head's attention coefficients as edge weights
// (`pa[e * heads + h]`, or `pa[epos[te] * heads + h]` over a transpose),
// hence the weight functors.
struct EdgeWeights {
  const float* __restrict__ w;
  float operator()(std::int64_t e) const { return w[e]; }
};

struct StridedEdgeWeights {
  const float* __restrict__ w;
  std::int64_t stride;
  float operator()(std::int64_t e) const { return w[e * stride]; }
};

template <typename EposT>
struct TransposedEdgeWeights {
  const float* __restrict__ w;
  const EposT* __restrict__ pos;
  std::int64_t stride;
  float operator()(std::int64_t te) const {
    return w[static_cast<std::int64_t>(pos[te]) * stride];
  }
};

/// Widest prefix a block keeps in registers: 8 vectors of the build's
/// ISA. With the 16-column window that is 9 of AVX-512's 32 registers,
/// 10 of AVX's 16 and 12 of SSE2's 16, and within GCC's full-unroll limit,
/// so both accumulator arrays become registers.
#if defined(__AVX512F__)
constexpr int kRegSlab = 128;
#elif defined(__AVX__)
constexpr int kRegSlab = 64;
#else
constexpr int kRegSlab = 32;
#endif

/// Column block [0, P) ∪ [width - T, width) of rows [lo, hi); `px` and
/// `py` already point at the block's first column, X and Y rows are `ld`
/// apart. X rows a few edges ahead are prefetched. Kept out of line: each
/// (P, T) is one self-contained loop nest, and inlined into the width
/// dispatch it measured up to 1.5x slower at d = 41/47.
template <int P, int T, bool Overwrite, typename Idx, typename TX,
          float (*WidenX)(TX), typename W>
[[gnu::noinline]] void reg_block_rows(
    const std::int64_t* __restrict__ indptr, std::int64_t lo,
    std::int64_t hi, const Idx* __restrict__ indices, const W& weight,
    const TX* __restrict__ px, float* __restrict__ py, std::int64_t ld,
    std::int64_t width) {
  const std::int64_t toff = width - T;
  const std::int64_t pf_end = indptr[hi];
  // Every cache line the block reads (width <= P + T).
  constexpr std::size_t kRowBytes = (P + T) * sizeof(TX);
  for (std::int64_t i = lo; i < hi; ++i) {
    float* __restrict__ yrow = py + i * ld;
    float acc[P > 0 ? P : 1], tacc[T];
    if constexpr (Overwrite) {
#pragma omp simd
      for (int j = 0; j < P; ++j) acc[j] = 0.0f;
#pragma omp simd
      for (int j = 0; j < T; ++j) tacc[j] = 0.0f;
    } else {
#pragma omp simd
      for (int j = 0; j < P; ++j) acc[j] = yrow[j];
#pragma omp simd
      for (int j = 0; j < T; ++j) tacc[j] = yrow[toff + j];
    }
    for (std::int64_t e = indptr[i]; e < indptr[i + 1]; ++e) {
      if (e + kSpmmPrefetchDist < pf_end) {
        const char* next = reinterpret_cast<const char*>(
            px + static_cast<std::int64_t>(indices[e + kSpmmPrefetchDist]) *
                     ld);
        for (std::size_t b = 0; b < kRowBytes; b += 64) {
          __builtin_prefetch(next + b, 0, 3);
        }
      }
      const float w = weight(e);
      const TX* __restrict__ xrow =
          px + static_cast<std::int64_t>(indices[e]) * ld;
#pragma omp simd
      for (int j = 0; j < P; ++j) acc[j] += w * WidenX(xrow[j]);
#pragma omp simd
      for (int j = 0; j < T; ++j) tacc[j] += w * WidenX(xrow[toff + j]);
    }
#pragma omp simd
    for (int j = 0; j < P; ++j) yrow[j] = acc[j];
#pragma omp simd
    for (int j = 0; j < T; ++j) yrow[toff + j] = tacc[j];
  }
}

/// Compile-time (P, T) for a block of 1 to kRegSlab + 15 columns, starting
/// from <0, 1>: T = min(width, 16), P = width - T rounded up to a multiple
/// of 16.
template <int P, int T, typename F>
void reg_block_dispatch(std::int64_t width, F&& block) {
  if constexpr (T < 16) {
    if (width > T) {
      reg_block_dispatch<0, T + 1>(width, block);
      return;
    }
  } else if constexpr (P < kRegSlab) {
    if (width > P + 16) {
      reg_block_dispatch<P + 16, 16>(width, block);
      return;
    }
  }
  block.template operator()<P, T>();
}

/// Y[lo:hi] (?)= Σ_e w(e)·X[idx[e]] over `width` columns through the
/// register accumulator, X and Y rows `ld` apart: kRegSlab-column slabs
/// while kRegSlab + 16 or more columns remain, then one block for the
/// rest. The block's (P, T) is dispatched once, at construction, so the
/// GAT generics, which call row by row, pay it once per chunk.
template <bool Overwrite, typename Idx, typename TX, float (*WidenX)(TX),
          typename W>
class RegRows {
 public:
  explicit RegRows(std::int64_t width) : width_(width) {
    while (width_ - slabs_end_ >= kRegSlab + 16) slabs_end_ += kRegSlab;
    if (width_ > slabs_end_) {
      reg_block_dispatch<0, 1>(width_ - slabs_end_, [&]<int P, int T>() {
        block_ = &reg_block_rows<P, T, Overwrite, Idx, TX, WidenX, W>;
      });
    }
  }

  void operator()(const std::int64_t* indptr, std::int64_t lo,
                  std::int64_t hi, const Idx* indices, const W& weight,
                  const TX* px, float* py, std::int64_t ld) const {
    for (std::int64_t c0 = 0; c0 < slabs_end_; c0 += kRegSlab) {
      reg_block_rows<kRegSlab - 16, 16, Overwrite, Idx, TX, WidenX>(
          indptr, lo, hi, indices, weight, px + c0, py + c0, ld, kRegSlab);
    }
    if (block_ != nullptr) {
      block_(indptr, lo, hi, indices, weight, px + slabs_end_,
             py + slabs_end_, ld, width_ - slabs_end_);
    }
  }

 private:
  using Block = void (*)(const std::int64_t*, std::int64_t, std::int64_t,
                         const Idx*, const W&, const TX*, float*,
                         std::int64_t, std::int64_t);
  std::int64_t width_;
  std::int64_t slabs_end_ = 0;
  Block block_ = nullptr;
};

template <bool Overwrite, typename Idx, typename TX, float (*WidenX)(TX)>
void spmm_rows(const std::int64_t* __restrict__ indptr,
               const Idx* __restrict__ indices,
               const float* __restrict__ values,
               const TX* __restrict__ px, float* __restrict__ py,
               std::int64_t d, std::int64_t num_edges, std::int64_t lo,
               std::int64_t hi) {
  switch (d) {
    case 8:
      spmm_rows_fixed<8, Overwrite, Idx, TX, WidenX>(
          indptr, indices, values, px, py, num_edges, lo, hi);
      return;
    case 16:
      spmm_rows_fixed<16, Overwrite, Idx, TX, WidenX>(
          indptr, indices, values, px, py, num_edges, lo, hi);
      return;
    case 32:
      spmm_rows_fixed<32, Overwrite, Idx, TX, WidenX>(
          indptr, indices, values, px, py, num_edges, lo, hi);
      return;
    case 64:
      spmm_rows_fixed<64, Overwrite, Idx, TX, WidenX>(
          indptr, indices, values, px, py, num_edges, lo, hi);
      return;
    case 128:
      spmm_rows_fixed<128, Overwrite, Idx, TX, WidenX>(
          indptr, indices, values, px, py, num_edges, lo, hi);
      return;
    default:
      RegRows<Overwrite, Idx, TX, WidenX, EdgeWeights>{d}(
          indptr, lo, hi, indices, EdgeWeights{values}, px, py, d);
  }
}

/// Runs `rows(lo, hi)` over the maximal runs of [lo, hi) whose rows read a
/// live X row (live[indices[e]] != 0 for some edge e of the row), for the
/// backward Y += Aᵀ·dY over a row-sparse dY; a null `live` runs all of
/// [lo, hi). A row between the runs reads
/// only zero X rows: the kernel would add ±0 terms to its existing value,
/// which changes nothing unless that value is −0, and a gradient never is
/// (it starts from +0, and a sum is −0 only when both terms are). So such a
/// row is skipped whole. Single edges are never skipped: that would regroup
/// the dual accumulators' even/odd edge pairs and change bits.
template <typename Idx, typename F>
void for_each_live_run(const std::int64_t* __restrict__ indptr,
                       const Idx* __restrict__ indices,
                       const std::uint8_t* __restrict__ live, std::int64_t lo,
                       std::int64_t hi, F&& rows) {
  if (live == nullptr) {
    rows(lo, hi);
    return;
  }
  const auto reads_live = [&](std::int64_t i) {
    for (std::int64_t e = indptr[i]; e < indptr[i + 1]; ++e) {
      if (live[indices[e]] != 0) return true;
    }
    return false;
  };
  std::int64_t i = lo;
  while (i < hi) {
    while (i < hi && !reads_live(i)) ++i;
    std::int64_t j = i;
    while (j < hi && reads_live(j)) ++j;
    if (i < j) rows(i, j);
    i = j;
  }
}

/// Shared driver: edge-balanced chunks over rows, then the width-dispatched
/// body per chunk. Spans rather than a Csr so bipartite block-local
/// structures (serving engine, minibatch blocks) run the same code path.
/// A non-null `live` (one byte per X row) skips the rows that read only
/// zero X rows (for_each_live_run).
template <bool Overwrite, typename TX, float (*WidenX)(TX)>
void spmm_dispatch_t(std::span<const std::int64_t> sp_indptr,
                     std::span<const std::int32_t> sp_indices,
                     std::span<const float> sp_values,
                     const TX* __restrict__ px, std::int64_t d, Tensor& y,
                     Precision prec, const std::uint8_t* live = nullptr) {
  float* __restrict__ py = y.data();
  const auto* __restrict__ indptr = sp_indptr.data();
  const auto* __restrict__ indices = sp_indices.data();
  const auto* __restrict__ values = sp_values.data();
  const auto e = static_cast<std::int64_t>(sp_indices.size());
  // Edge-balanced schedule: contiguous row ranges of ~equal nnz, a few per
  // thread, so hub rows of power-law graphs spread across the team without
  // per-row dynamic-scheduling overhead.
  for_each_balanced_row(sp_indptr, [&](std::int64_t lo, std::int64_t hi) {
    if constexpr (std::is_same_v<TX, std::uint16_t>) {
      if (halfsimd::available()) {
        halfsimd::spmm_rows_half(indptr, indices, values, px, py, d, e, lo,
                                 hi, prec, Overwrite);
        return;
      }
    }
    for_each_live_run(indptr, indices, live, lo, hi,
                      [&](std::int64_t r0, std::int64_t r1) {
                        spmm_rows<Overwrite, std::int32_t, TX, WidenX>(
                            indptr, indices, values, px, py, d, e, r0, r1);
                      });
  });
}

template <bool Overwrite>
void spmm_dispatch(std::span<const std::int64_t> sp_indptr,
                   std::span<const std::int32_t> sp_indices,
                   std::span<const float> sp_values, const Tensor& x,
                   Tensor& y, const std::uint8_t* live = nullptr) {
  spmm_dispatch_t<Overwrite, float, spmm_widen_f32>(
      sp_indptr, sp_indices, sp_values, x.data(), x.shape(1), y,
      Precision::kFp32, live);
}

/// Driver for cached graph::BlockedCsr layouts: the edge-balanced row
/// blocks were pre-computed at layout build time (no binary search per
/// launch) and the gather loop runs at the layout's index width.
template <bool Overwrite, typename TX, float (*WidenX)(TX)>
void spmm_blocked_dispatch_t(const graph::BlockedCsr& a,
                             const TX* __restrict__ px, std::int64_t d,
                             Tensor& y, Precision prec,
                             const std::uint8_t* live = nullptr) {
  GSOUP_CHECK_MSG(a.weighted() || a.num_edges() == 0,
                  "blocked spmm needs a weighted layout (SpMM operand), "
                  "not a structure-only attention layout");
  const std::int64_t e = a.num_edges();
  float* __restrict__ py = y.data();
  const auto* __restrict__ indptr = a.indptr.data();
  const auto* __restrict__ values = a.values.data();
  const auto run = [&](const auto* indices) {
    using Idx = std::remove_cvref_t<decltype(indices[0])>;
    for_each_row_block(a.row_blocks, a.num_rows,
                       [&](std::int64_t lo, std::int64_t hi) {
                         if constexpr (std::is_same_v<TX, std::uint16_t>) {
                           if (halfsimd::available()) {
                             halfsimd::spmm_rows_half(indptr, indices, values,
                                                      px, py, d, e, lo, hi,
                                                      prec, Overwrite);
                             return;
                           }
                         }
                         for_each_live_run(
                             indptr, indices, live, lo, hi,
                             [&](std::int64_t r0, std::int64_t r1) {
                               spmm_rows<Overwrite, Idx, TX, WidenX>(
                                   indptr, indices, values, px, py, d, e, r0,
                                   r1);
                             });
                       });
  };
  if (a.narrow()) {
    run(a.idx16.data());
  } else {
    run(a.idx32.data());
  }
}

template <bool Overwrite>
void spmm_blocked_dispatch(const graph::BlockedCsr& a, const Tensor& x,
                           Tensor& y, const std::uint8_t* live = nullptr) {
  GSOUP_CHECK_MSG(x.rank() == 2 && y.rank() == 2 &&
                      y.shape(0) == a.num_rows && y.shape(1) == x.shape(1),
                  "blocked spmm: bad shapes " << x.shape_str() << " -> "
                                              << y.shape_str());
  spmm_blocked_dispatch_t<Overwrite, float, spmm_widen_f32>(
      a, x.data(), x.shape(1), y, Precision::kFp32, live);
}

/// The SpMM backward dX += Aᵀ·dY over the cached transpose layout when
/// there is one, else over the transpose CSR. Rows of dX that read only
/// zero rows of dY are skipped (for_each_live_run) when dY is sparse
/// enough for that to pay (ops::skip_pays); otherwise the plain
/// accumulate runs.
void spmm_backward(const Csr* a_t, const graph::BlockedCsr* layout_t,
                   const Tensor& grad_out, Tensor& x_grad) {
  const ops::RowSupport support = ops::row_support(grad_out);
  const std::uint8_t* live =
      ops::skip_pays(static_cast<std::int64_t>(support.rows.size()),
                     grad_out.shape(0))
          ? support.mask.data()
          : nullptr;
  if (layout_t != nullptr) {
    spmm_blocked_dispatch<false>(*layout_t, grad_out, x_grad, live);
  } else {
    spmm_dispatch<false>(a_t->indptr, a_t->indices, a_t->values, grad_out,
                         x_grad, live);
  }
}

// ---- GAT attention kernels ------------------------------------------------
//
// The seed kernel walked every destination row four times *per head*
// (activation+max, exp+sum, normalise, aggregate), with the aggregate's
// inner loop at a runtime trip count. The fused kernels process all heads
// of an edge in one sweep — the [E, heads] alpha layout makes the per-edge
// head lane contiguous — and visit each row's edges twice:
//   pass 1: z = sl+sr, LeakyReLU, per-head running max        (stores act)
//   pass 2: p = exp(act-max), denom += p, acc += p·H[src]     (stores p)
// followed by two short epilogues: scale the accumulated row by 1/denom
// (the softmax normalisation commuted past the aggregation) and scale the
// stored p's into normalised attention coefficients for the backward.
// This keeps the exp count at one per edge-lane — libm expf is the most
// expensive instruction here, so the usual online-softmax rescale (which
// re-exponentiates in the second pass) loses more than the saved
// max-walk gains. The aggregate inner loop is
// width-specialised on the per-head dim d like spmm_rows; the
// runtime-shape generics finish the exp walk first and then aggregate
// each head through the SpMM register row accumulator.
//
// Per-row softmax state lives in fixed stack arrays of kGatHeadTile
// lanes; rows with more heads than that run multiple tiles (each tile
// re-walks the row, degrading gracefully toward the seed's per-head cost
// — 16 covers every configuration in the paper with one tile).

constexpr std::int64_t kGatHeadTile = 16;
constexpr std::int64_t kGatPrefetchDist = 8;


/// Specialised forward row body: D (per-head dim) and H (head count) are
/// compile-time, so every inner loop fully unrolls, hd = H·D addressing
/// folds into constants, and the unnormalised aggregate lives in an
/// H·D-float register/stack accumulator written to the output row once.
/// Measured against the runtime-heads fallback below, this is where most
/// of the fused kernel's speedup comes from: the per-edge head loops are
/// 1-8 iterations, far too short to amortise runtime trip counts.
template <int D, int H, typename Idx>
void gat_forward_rows(const std::int64_t* __restrict__ indptr,
                      const Idx* __restrict__ indices,
                      const float* __restrict__ sl,
                      const float* __restrict__ sr,
                      const float* __restrict__ ph, float* __restrict__ pa,
                      float* __restrict__ po, float slope, std::int64_t lo,
                      std::int64_t hi) {
  constexpr std::int64_t HD = static_cast<std::int64_t>(H) * D;
  for (std::int64_t i = lo; i < hi; ++i) {
    const std::int64_t begin = indptr[i], end = indptr[i + 1];
    const float* __restrict__ sli = sl + i * H;
    float* __restrict__ orow = po + i * HD;
    float mx[H];
    float denom[H] = {};
    for (int h = 0; h < H; ++h) {
      mx[h] = -std::numeric_limits<float>::infinity();
    }
    // Pass 1: LeakyReLU activations + per-head maxima, all lanes per edge.
    for (std::int64_t e = begin; e < end; ++e) {
      const float* __restrict__ srj =
          sr + static_cast<std::int64_t>(indices[e]) * H;
      float* __restrict__ ae = pa + e * H;
      for (int h = 0; h < H; ++h) {
        const float z = sli[h] + srj[h];
        // LeakyReLU(z) == max(z, slope*z) for 0 < slope < 1: branchless,
        // where the data-dependent select mispredicts half the time.
        const float act = std::max(z, slope * z);
        ae[h] = act;
        mx[h] = std::max(mx[h], act);
      }
    }
    // Pass 2a: exponentiate the row's alpha block in one stream,
    // accumulating the per-head denominators.
    for (std::int64_t e = begin; e < end; ++e) {
      float* __restrict__ ae = pa + e * H;
#pragma omp simd
      for (int h = 0; h < H; ++h) {
        const float p = std::exp(ae[h] - mx[h]);
        ae[h] = p;
        denom[h] += p;
      }
    }
    // Pass 2b: unnormalised aggregate acc += p·H[src] over the full H·D
    // row (contiguous gather, unlike the seed's per-head segments).
    float acc[HD] = {};
    for (std::int64_t e = begin; e < end; ++e) {
      if (e + kGatPrefetchDist < end) {
        spmm_prefetch_row<HD>(
            ph +
            static_cast<std::int64_t>(indices[e + kGatPrefetchDist]) * HD);
      }
      const float* __restrict__ ae = pa + e * H;
      const float* __restrict__ hrow =
          ph + static_cast<std::int64_t>(indices[e]) * HD;
      for (int h = 0; h < H; ++h) {
        const float p = ae[h];
#pragma omp simd
        for (int j = 0; j < D; ++j) acc[h * D + j] += p * hrow[h * D + j];
      }
    }
    // Normalise: the accumulated row once (the softmax normalisation
    // commuted past the aggregation), then the stored p's into attention
    // coefficients for the backward.
    float inv[H];
    for (int h = 0; h < H; ++h) {
      inv[h] = denom[h] > 0.0f ? 1.0f / denom[h] : 0.0f;
    }
    for (int h = 0; h < H; ++h) {
#pragma omp simd
      for (int j = 0; j < D; ++j) orow[h * D + j] = acc[h * D + j] * inv[h];
    }
    for (std::int64_t e = begin; e < end; ++e) {
      float* __restrict__ ae = pa + e * H;
      for (int h = 0; h < H; ++h) ae[h] *= inv[h];
    }
  }
}

/// Runtime-shape fallback for the forward and infer passes (uncommon
/// head counts or per-head dims): the fixed bodies' pass structure,
/// head-tiled so per-row softmax state stays in fixed stack arrays. Each
/// head's aggregate runs through the register row accumulator with
/// weights p[e * heads + h]. `Alpha` (training) then rescales the stored
/// p's into the normalised coefficients; inference leaves them in its
/// scratch.
template <bool Alpha, typename Idx>
void gat_forward_rows_generic(const std::int64_t* __restrict__ indptr,
                              const Idx* __restrict__ indices,
                              const float* __restrict__ sl,
                              const float* __restrict__ sr,
                              const float* __restrict__ ph,
                              float* __restrict__ pa, float* __restrict__ po,
                              std::int64_t heads, std::int64_t d, float slope,
                              std::int64_t lo, std::int64_t hi) {
  const std::int64_t hd = heads * d;
  const RegRows<true, Idx, float, spmm_widen_f32, StridedEdgeWeights>
      aggregate(d);
  for (std::int64_t i = lo; i < hi; ++i) {
    const std::int64_t begin = indptr[i], end = indptr[i + 1];
    const float* __restrict__ sli = sl + i * heads;
    for (std::int64_t hb = 0; hb < heads; hb += kGatHeadTile) {
      const std::int64_t hw = std::min(kGatHeadTile, heads - hb);
      float mx[kGatHeadTile];
      float denom[kGatHeadTile] = {};
      for (std::int64_t h = 0; h < hw; ++h) {
        mx[h] = -std::numeric_limits<float>::infinity();
      }
      for (std::int64_t e = begin; e < end; ++e) {
        const float* __restrict__ srj =
            sr + static_cast<std::int64_t>(indices[e]) * heads + hb;
        float* __restrict__ ae = pa + e * heads + hb;
        for (std::int64_t h = 0; h < hw; ++h) {
          const float z = sli[hb + h] + srj[h];
          const float act = std::max(z, slope * z);  // branchless LeakyReLU
          ae[h] = act;
          mx[h] = std::max(mx[h], act);
        }
      }
      for (std::int64_t e = begin; e < end; ++e) {
        float* __restrict__ ae = pa + e * heads + hb;
        for (std::int64_t h = 0; h < hw; ++h) {
          const float p = std::exp(ae[h] - mx[h]);
          ae[h] = p;
          denom[h] += p;
        }
      }
      float inv[kGatHeadTile];
      for (std::int64_t h = 0; h < hw; ++h) {
        const std::int64_t off = (hb + h) * d;
        aggregate(indptr, i, i + 1, indices,
                  StridedEdgeWeights{pa + hb + h, heads}, ph + off, po + off,
                  hd);
        inv[h] = denom[h] > 0.0f ? 1.0f / denom[h] : 0.0f;
        float* __restrict__ oseg = po + i * hd + off;
        const float s = inv[h];
#pragma omp simd
        for (std::int64_t j = 0; j < d; ++j) oseg[j] *= s;
      }
      if constexpr (Alpha) {
        for (std::int64_t e = begin; e < end; ++e) {
          float* __restrict__ ae = pa + e * heads + hb;
          for (std::int64_t h = 0; h < hw; ++h) ae[h] *= inv[h];
        }
      }
    }
  }
}

/// Inference-only forward row body (compile-time D and H): the exact
/// pass structure of gat_forward_rows — same walks, same float-operation
/// order per output element, hence bit-identical results — but the
/// per-edge activations/exponentials live in a reusable thread-local
/// scratch (`pa`) instead of a caller-retained alpha tensor, and the
/// final walk that rescales the stored p's into normalised attention
/// coefficients is gone: inference never reads alpha, so that E x heads
/// read-modify-write pass (and the engine-side [E, heads] workspace) is
/// pure overhead. Keeping the exp pass separate from the aggregate pass
/// is deliberate: fusing them interleaves a libm call into the SIMD
/// accumulate loop and spills the H·D-float accumulator every edge
/// (measured ~30% slower than the fused training kernel).
template <int D, int H, typename Idx>
void gat_infer_rows(const std::int64_t* __restrict__ indptr,
                    const Idx* __restrict__ indices,
                    const float* __restrict__ sl,
                    const float* __restrict__ sr,
                    const float* __restrict__ ph, float* __restrict__ pa,
                    float* __restrict__ po, float slope, std::int64_t lo,
                    std::int64_t hi) {
  constexpr std::int64_t HD = static_cast<std::int64_t>(H) * D;
  for (std::int64_t i = lo; i < hi; ++i) {
    const std::int64_t begin = indptr[i], end = indptr[i + 1];
    const float* __restrict__ sli = sl + i * H;
    float* __restrict__ orow = po + i * HD;
    float mx[H];
    float denom[H] = {};
    for (int h = 0; h < H; ++h) {
      mx[h] = -std::numeric_limits<float>::infinity();
    }
    // Pass 1: LeakyReLU activations + per-head maxima (scratch store).
    for (std::int64_t e = begin; e < end; ++e) {
      const float* __restrict__ srj =
          sr + static_cast<std::int64_t>(indices[e]) * H;
      float* __restrict__ ae = pa + e * H;
      for (int h = 0; h < H; ++h) {
        const float z = sli[h] + srj[h];
        const float act = std::max(z, slope * z);
        ae[h] = act;
        mx[h] = std::max(mx[h], act);
      }
    }
    // Pass 2a: exponentiate, accumulating the per-head denominators.
    for (std::int64_t e = begin; e < end; ++e) {
      float* __restrict__ ae = pa + e * H;
#pragma omp simd
      for (int h = 0; h < H; ++h) {
        const float p = std::exp(ae[h] - mx[h]);
        ae[h] = p;
        denom[h] += p;
      }
    }
    // Pass 2b: unnormalised aggregate, then normalise the output row.
    // (The training kernel additionally rescales every stored p — the
    // walk this kernel exists to skip.)
    float acc[HD] = {};
    for (std::int64_t e = begin; e < end; ++e) {
      if (e + kGatPrefetchDist < end) {
        spmm_prefetch_row<HD>(
            ph +
            static_cast<std::int64_t>(indices[e + kGatPrefetchDist]) * HD);
      }
      const float* __restrict__ ae = pa + e * H;
      const float* __restrict__ hrow =
          ph + static_cast<std::int64_t>(indices[e]) * HD;
      for (int h = 0; h < H; ++h) {
        const float p = ae[h];
#pragma omp simd
        for (int j = 0; j < D; ++j) acc[h * D + j] += p * hrow[h * D + j];
      }
    }
    for (int h = 0; h < H; ++h) {
      const float inv = denom[h] > 0.0f ? 1.0f / denom[h] : 0.0f;
#pragma omp simd
      for (int j = 0; j < D; ++j) orow[h * D + j] = acc[h * D + j] * inv;
    }
  }
}

/// Backward pass 1, head-fused: over destination rows of the forward
/// structure. Stashes per-edge dz (the gradient of the pre-activation
/// attention logit) in `pdz` and accumulates dscore_dst when `pslg` is
/// non-null.
/// Specialised backward pass-1 row body (compile-time D and H, like the
/// forward).
template <int D, int H, typename Idx>
void gat_backward_dst_rows(const std::int64_t* __restrict__ indptr,
                           const Idx* __restrict__ indices,
                           const float* __restrict__ grad_out,
                           const float* __restrict__ pa,
                           const float* __restrict__ ph,
                           const float* __restrict__ sl,
                           const float* __restrict__ sr,
                           float* __restrict__ pdz, float* __restrict__ pslg,
                           float slope, std::int64_t lo, std::int64_t hi) {
  constexpr std::int64_t HD = static_cast<std::int64_t>(H) * D;
  for (std::int64_t i = lo; i < hi; ++i) {
    const std::int64_t begin = indptr[i], end = indptr[i + 1];
    const float* __restrict__ grow = grad_out + i * HD;
    const float* __restrict__ sli = sl + i * H;
    float inner[H] = {};
    // Walk 1: d_alpha_e = <dOut_i, H_src> per lane; inner = Σ alpha·d_alpha.
    for (std::int64_t e = begin; e < end; ++e) {
      if (e + kGatPrefetchDist < end) {
        spmm_prefetch_row<HD>(
            ph +
            static_cast<std::int64_t>(indices[e + kGatPrefetchDist]) * HD);
      }
      const float* __restrict__ hrow =
          ph + static_cast<std::int64_t>(indices[e]) * HD;
      float* __restrict__ dze = pdz + e * H;
      const float* __restrict__ ae = pa + e * H;
      for (int h = 0; h < H; ++h) {
        float dot = 0.0f;
#pragma omp simd reduction(+ : dot)
        for (int j = 0; j < D; ++j) dot += grow[h * D + j] * hrow[h * D + j];
        dze[h] = dot;
        inner[h] += ae[h] * dot;
      }
    }
    // Walk 2: softmax + LeakyReLU backward, all lanes per edge.
    float dsl_acc[H] = {};
    for (std::int64_t e = begin; e < end; ++e) {
      const float* __restrict__ srj =
          sr + static_cast<std::int64_t>(indices[e]) * H;
      float* __restrict__ dze = pdz + e * H;
      const float* __restrict__ ae = pa + e * H;
      for (int h = 0; h < H; ++h) {
        const float de = ae[h] * (dze[h] - inner[h]);
        const float z = sli[h] + srj[h];
        // Branchless LeakyReLU derivative: gate is a 0/1 float (compare +
        // mask), so no data-dependent branch on the sign of z.
        const float gate = static_cast<float>(z > 0.0f);
        const float dzv = de * (slope + (1.0f - slope) * gate);
        dze[h] = dzv;
        dsl_acc[h] += dzv;
      }
    }
    if (pslg != nullptr) {
      for (int h = 0; h < H; ++h) pslg[i * H + h] += dsl_acc[h];
    }
  }
}

/// Runtime-shape fallback for backward pass 1, head-tiled.
template <typename Idx>
void gat_backward_dst_rows_generic(
    const std::int64_t* __restrict__ indptr, const Idx* __restrict__ indices,
    const float* __restrict__ grad_out, const float* __restrict__ pa,
    const float* __restrict__ ph, const float* __restrict__ sl,
    const float* __restrict__ sr, float* __restrict__ pdz,
    float* __restrict__ pslg, std::int64_t heads, std::int64_t d, float slope,
    std::int64_t lo, std::int64_t hi) {
  const std::int64_t hd = heads * d;
  for (std::int64_t i = lo; i < hi; ++i) {
    const std::int64_t begin = indptr[i], end = indptr[i + 1];
    const float* __restrict__ grow = grad_out + i * hd;
    const float* __restrict__ sli = sl + i * heads;
    for (std::int64_t hb = 0; hb < heads; hb += kGatHeadTile) {
      const std::int64_t hw = std::min(kGatHeadTile, heads - hb);
      float inner[kGatHeadTile] = {};
      for (std::int64_t e = begin; e < end; ++e) {
        const float* __restrict__ hrow =
            ph + static_cast<std::int64_t>(indices[e]) * hd + hb * d;
        float* __restrict__ dze = pdz + e * heads + hb;
        const float* __restrict__ ae = pa + e * heads + hb;
        for (std::int64_t h = 0; h < hw; ++h) {
          const float* __restrict__ hseg = hrow + h * d;
          const float* __restrict__ gseg = grow + (hb + h) * d;
          float dot = 0.0f;
#pragma omp simd reduction(+ : dot)
          for (std::int64_t j = 0; j < d; ++j) dot += gseg[j] * hseg[j];
          dze[h] = dot;
          inner[h] += ae[h] * dot;
        }
      }
      float dsl_acc[kGatHeadTile] = {};
      for (std::int64_t e = begin; e < end; ++e) {
        const float* __restrict__ srj =
            sr + static_cast<std::int64_t>(indices[e]) * heads + hb;
        float* __restrict__ dze = pdz + e * heads + hb;
        const float* __restrict__ ae = pa + e * heads + hb;
        for (std::int64_t h = 0; h < hw; ++h) {
          const float de = ae[h] * (dze[h] - inner[h]);
          const float z = sli[hb + h] + srj[h];
          const float dzv = de * (z > 0.0f ? 1.0f : slope);
          dze[h] = dzv;
          dsl_acc[h] += dzv;
        }
      }
      if (pslg != nullptr) {
        for (std::int64_t h = 0; h < hw; ++h) {
          pslg[i * heads + hb + h] += dsl_acc[h];
        }
      }
    }
  }
}

/// Backward pass 2, head-fused: over *source* rows of the transpose.
/// Gathers the stashed dz into dscore_src and alpha·dOut into dH —
/// race-free because each iteration owns one source row. `t_indices`
/// holds the destination of each transposed edge, `epos` its position in
/// the forward CSR (where alpha/dz live).
/// Specialised backward pass-2 row body (compile-time D and H).
template <int D, int H, typename IdxT, typename EposT>
void gat_backward_src_rows(const std::int64_t* __restrict__ t_indptr,
                           const IdxT* __restrict__ t_indices,
                           const EposT* __restrict__ epos,
                           const float* __restrict__ grad_out,
                           const float* __restrict__ pa,
                           const float* __restrict__ pdz,
                           float* __restrict__ phg, float* __restrict__ psrg,
                           std::int64_t lo, std::int64_t hi) {
  constexpr std::int64_t HD = static_cast<std::int64_t>(H) * D;
  for (std::int64_t j = lo; j < hi; ++j) {
    const std::int64_t begin = t_indptr[j], end = t_indptr[j + 1];
    float* __restrict__ hgrow = phg != nullptr ? phg + j * HD : nullptr;
    float dsr[H] = {};
    for (std::int64_t te = begin; te < end; ++te) {
      if (te + kGatPrefetchDist < end) {
        spmm_prefetch_row<HD>(
            grad_out +
            static_cast<std::int64_t>(t_indices[te + kGatPrefetchDist]) * HD);
      }
      const auto i = static_cast<std::int64_t>(t_indices[te]);
      const auto e = static_cast<std::int64_t>(epos[te]);
      if (psrg != nullptr) {
        const float* __restrict__ dze = pdz + e * H;
        for (int h = 0; h < H; ++h) dsr[h] += dze[h];
      }
      if (hgrow != nullptr) {
        const float* __restrict__ grow = grad_out + i * HD;
        const float* __restrict__ ae = pa + e * H;
        for (int h = 0; h < H; ++h) {
          const float a = ae[h];
#pragma omp simd
          for (int j2 = 0; j2 < D; ++j2) {
            hgrow[h * D + j2] += a * grow[h * D + j2];
          }
        }
      }
    }
    if (psrg != nullptr) {
      for (int h = 0; h < H; ++h) psrg[j * H + h] += dsr[h];
    }
  }
}

/// Runtime-shape fallback for backward pass 2: dscore_src first, then
/// each head's dH through the register row accumulator over the
/// transpose (weights alpha[epos[te] * heads + h]); per element, both add
/// in transposed-edge order as the fixed body does.
template <typename IdxT, typename EposT>
void gat_backward_src_rows_generic(
    const std::int64_t* __restrict__ t_indptr,
    const IdxT* __restrict__ t_indices, const EposT* __restrict__ epos,
    const float* __restrict__ grad_out, const float* __restrict__ pa,
    const float* __restrict__ pdz, float* __restrict__ phg,
    float* __restrict__ psrg, std::int64_t heads, std::int64_t d,
    std::int64_t lo, std::int64_t hi) {
  if (psrg != nullptr) {
    for (std::int64_t j = lo; j < hi; ++j) {
      float* __restrict__ srow = psrg + j * heads;
      for (std::int64_t te = t_indptr[j]; te < t_indptr[j + 1]; ++te) {
        const float* __restrict__ dze =
            pdz + static_cast<std::int64_t>(epos[te]) * heads;
        for (std::int64_t h = 0; h < heads; ++h) srow[h] += dze[h];
      }
    }
  }
  if (phg != nullptr) {
    const std::int64_t hd = heads * d;
    const RegRows<false, IdxT, float, spmm_widen_f32,
                  TransposedEdgeWeights<EposT>>
        gather(d);
    for (std::int64_t h = 0; h < heads; ++h) {
      gather(t_indptr, lo, hi, t_indices,
             TransposedEdgeWeights<EposT>{pa + h, epos, heads},
             grad_out + h * d, phg + h * d, hd);
    }
  }
}

/// Shape dispatch for the attention kernels: specialise the common GAT
/// shapes (heads 1/2/4/8 × per-head dim 8/16/32/64/128, every
/// configuration the paper's models produce); anything else runs the
/// head-tiled generic body. `spec` is invoked as spec<D, H>().
template <int H, typename F>
bool gat_dispatch_d(std::int64_t d, F&& spec) {
  switch (d) {
    case 8: spec.template operator()<8, H>(); return true;
    case 16: spec.template operator()<16, H>(); return true;
    case 32: spec.template operator()<32, H>(); return true;
    case 64: spec.template operator()<64, H>(); return true;
    case 128: spec.template operator()<128, H>(); return true;
    default: return false;
  }
}

template <typename F, typename G>
void gat_dispatch(std::int64_t heads, std::int64_t d, F&& spec,
                  G&& generic) {
  bool hit = false;
  switch (heads) {
    case 1: hit = gat_dispatch_d<1>(d, spec); break;
    case 2: hit = gat_dispatch_d<2>(d, spec); break;
    case 4: hit = gat_dispatch_d<4>(d, spec); break;
    case 8: hit = gat_dispatch_d<8>(d, spec); break;
    default: break;
  }
  if (!hit) generic();
}

template <typename Idx>
void run_gat_forward(const std::int64_t* indptr, const Idx* indices,
                     const float* sl, const float* sr, const float* ph,
                     float* pa, float* po, std::int64_t heads, std::int64_t d,
                     float slope, std::int64_t lo, std::int64_t hi) {
  gat_dispatch(
      heads, d,
      [&]<int D, int H>() {
        gat_forward_rows<D, H>(indptr, indices, sl, sr, ph, pa, po, slope,
                               lo, hi);
      },
      [&] {
        gat_forward_rows_generic<true>(indptr, indices, sl, sr, ph, pa, po,
                                       heads, d, slope, lo, hi);
      });
}

template <typename Idx>
void run_gat_infer(const std::int64_t* indptr, const Idx* indices,
                   const float* sl, const float* sr, const float* ph,
                   float* pa, float* po, std::int64_t heads, std::int64_t d,
                   float slope, std::int64_t lo, std::int64_t hi) {
  gat_dispatch(
      heads, d,
      [&]<int D, int H>() {
        gat_infer_rows<D, H>(indptr, indices, sl, sr, ph, pa, po, slope, lo,
                             hi);
      },
      [&] {
        gat_forward_rows_generic<false>(indptr, indices, sl, sr, ph, pa, po,
                                        heads, d, slope, lo, hi);
      });
}

template <typename Idx>
void run_gat_backward_dst(const std::int64_t* indptr, const Idx* indices,
                          const float* grad_out, const float* pa,
                          const float* ph, const float* sl, const float* sr,
                          float* pdz, float* pslg, std::int64_t heads,
                          std::int64_t d, float slope, std::int64_t lo,
                          std::int64_t hi) {
  gat_dispatch(
      heads, d,
      [&]<int D, int H>() {
        gat_backward_dst_rows<D, H>(indptr, indices, grad_out, pa, ph, sl,
                                    sr, pdz, pslg, slope, lo, hi);
      },
      [&] {
        gat_backward_dst_rows_generic(indptr, indices, grad_out, pa, ph, sl,
                                      sr, pdz, pslg, heads, d, slope, lo,
                                      hi);
      });
}

template <typename IdxT, typename EposT>
void run_gat_backward_src(const std::int64_t* t_indptr,
                          const IdxT* t_indices, const EposT* epos,
                          const float* grad_out, const float* pa,
                          const float* pdz, float* phg, float* psrg,
                          std::int64_t heads, std::int64_t d,
                          std::int64_t lo, std::int64_t hi) {
  gat_dispatch(
      heads, d,
      [&]<int D, int H>() {
        gat_backward_src_rows<D, H>(t_indptr, t_indices, epos, grad_out, pa,
                                    pdz, phg, psrg, lo, hi);
      },
      [&] {
        gat_backward_src_rows_generic(t_indptr, t_indices, epos, grad_out,
                                      pa, pdz, phg, psrg, heads, d, lo, hi);
      });
}

void gat_check_shapes(std::int64_t n, std::int64_t e_count,
                      const Tensor& h_src, const Tensor& score_dst,
                      const Tensor& score_src, std::int64_t heads,
                      const Tensor& alpha, const Tensor& out) {
  GSOUP_CHECK_MSG(h_src.rank() == 2 && h_src.shape(1) % heads == 0,
                  "gat_attention_forward: bad H shape " << h_src.shape_str());
  const std::int64_t d = h_src.shape(1) / heads;
  GSOUP_CHECK_MSG(score_dst.shape(0) == n && score_dst.shape(1) == heads &&
                      score_src.shape(0) == h_src.shape(0) &&
                      score_src.shape(1) == heads,
                  "gat_attention_forward: bad score shapes");
  GSOUP_CHECK_MSG(alpha.shape(0) == e_count && alpha.shape(1) == heads,
                  "gat_attention_forward: bad alpha workspace shape");
  GSOUP_CHECK_MSG(out.shape(0) == n && out.shape(1) == heads * d,
                  "gat_attention_forward: bad output shape");
}

/// Shape checks for the alpha-free infer entry points.
void gat_check_shapes_infer(std::int64_t n, const Tensor& h_src,
                            const Tensor& score_dst, const Tensor& score_src,
                            std::int64_t heads, const Tensor& out) {
  GSOUP_CHECK_MSG(h_src.rank() == 2 && h_src.shape(1) % heads == 0,
                  "gat_attention_infer: bad H shape " << h_src.shape_str());
  GSOUP_CHECK_MSG(score_dst.shape(0) == n && score_dst.shape(1) == heads &&
                      score_src.shape(0) == h_src.shape(0) &&
                      score_src.shape(1) == heads,
                  "gat_attention_infer: bad score shapes");
  GSOUP_CHECK_MSG(out.shape(0) == n && out.shape(1) == h_src.shape(1),
                  "gat_attention_infer: bad output shape");
}

/// Reusable [E, heads] backward scratch, one per thread so concurrent
/// ingredient-farm backwards never race; grows monotonically, so the GAT
/// backward allocates nothing once warm (the contents are fully
/// overwritten by pass 1 before pass 2 reads them — no zeroing either).
float* gat_dz_workspace(std::int64_t numel) {
  thread_local Tensor ws;
  if (!ws.defined() || ws.numel() < numel) {
    ws = Tensor::empty({std::max<std::int64_t>(numel, 1)});
  }
  return ws.data();
}

}  // namespace

void spmm_reference(const Csr& a, const Tensor& x, Tensor& y) {
  const std::int64_t n = a.num_nodes;
  const std::int64_t d = x.shape(1);
  const float* __restrict__ px = x.data();
  float* __restrict__ py = y.data();
  const auto* __restrict__ indptr = a.indptr.data();
  const auto* __restrict__ indices = a.indices.data();
  const auto* __restrict__ values = a.values.data();
  // Seed kernel, verbatim: row-parallel dynamic schedule, no prefetch.
#pragma omp parallel for schedule(dynamic, 64) \
    if (n >= kParallelRowThreshold)
  for (std::int64_t i = 0; i < n; ++i) {
    float* __restrict__ yrow = py + i * d;
    for (std::int64_t e = indptr[i]; e < indptr[i + 1]; ++e) {
      const float w = values[e];
      const float* __restrict__ xrow = px + indices[e] * d;
      for (std::int64_t j = 0; j < d; ++j) yrow[j] += w * xrow[j];
    }
  }
}

void spmm_accumulate(const Csr& a, const Tensor& x, Tensor& y) {
  spmm_dispatch<false>(a.indptr, a.indices, a.values, x, y);
}

void spmm_overwrite(const Csr& a, const Tensor& x, Tensor& y) {
  spmm_dispatch<true>(a.indptr, a.indices, a.values, x, y);
}

void spmm_blocked_accumulate(const graph::BlockedCsr& a, const Tensor& x,
                             Tensor& y) {
  spmm_blocked_dispatch<false>(a, x, y);
}

void spmm_blocked_overwrite(const graph::BlockedCsr& a, const Tensor& x,
                            Tensor& y) {
  spmm_blocked_dispatch<true>(a, x, y);
}

void spmm_spans_overwrite(std::span<const std::int64_t> indptr,
                          std::span<const std::int32_t> indices,
                          std::span<const float> values, const Tensor& x,
                          Tensor& y) {
  GSOUP_CHECK_MSG(!indptr.empty() && values.size() == indices.size(),
                  "spmm_spans_overwrite: malformed CSR spans");
  GSOUP_CHECK_MSG(y.shape(0) + 1 == static_cast<std::int64_t>(indptr.size()) &&
                      y.shape(1) == x.shape(1),
                  "spmm_spans_overwrite: bad output shape " << y.shape_str());
  spmm_dispatch<true>(indptr, indices, values, x, y);
}

void spmm_blocked_overwrite(const graph::BlockedCsr& a, const HalfBuffer& x,
                            Tensor& y) {
  GSOUP_CHECK_MSG(x.rank() == 2 && y.rank() == 2 &&
                      y.shape(0) == a.num_rows && y.shape(1) == x.shape(1),
                  "blocked spmm(half): bad shapes " << x.shape_str() << " -> "
                                                    << y.shape_str());
  if (x.precision() == Precision::kFp16) {
    spmm_blocked_dispatch_t<true, std::uint16_t, half::widen_fp16>(
        a, x.data(), x.shape(1), y, x.precision());
  } else {
    spmm_blocked_dispatch_t<true, std::uint16_t, half::widen_bf16>(
        a, x.data(), x.shape(1), y, x.precision());
  }
}

void spmm_spans_overwrite(std::span<const std::int64_t> indptr,
                          std::span<const std::int32_t> indices,
                          std::span<const float> values, const HalfBuffer& x,
                          Tensor& y) {
  GSOUP_CHECK_MSG(!indptr.empty() && values.size() == indices.size(),
                  "spmm_spans_overwrite: malformed CSR spans");
  GSOUP_CHECK_MSG(x.rank() == 2 &&
                      y.shape(0) + 1 == static_cast<std::int64_t>(indptr.size()) &&
                      y.shape(1) == x.shape(1),
                  "spmm_spans_overwrite(half): bad output shape "
                      << y.shape_str());
  if (x.precision() == Precision::kFp16) {
    spmm_dispatch_t<true, std::uint16_t, half::widen_fp16>(
        indptr, indices, values, x.data(), x.shape(1), y, x.precision());
  } else {
    spmm_dispatch_t<true, std::uint16_t, half::widen_bf16>(
        indptr, indices, values, x.data(), x.shape(1), y, x.precision());
  }
}

Value spmm(const Csr& a, const Csr& a_transpose, const Value& x) {
  return spmm(a, a_transpose, x, nullptr, nullptr);
}

Value spmm(const Csr& a, const Csr& a_transpose, const Value& x,
           const graph::BlockedCsr* layout,
           const graph::BlockedCsr* layout_t) {
  GSOUP_CHECK_MSG(a.weighted() && a_transpose.weighted(),
                  "spmm operands must carry edge values");
  GSOUP_CHECK_MSG(x->value.rank() == 2 && x->value.shape(0) == a.num_nodes,
                  "spmm: X shape " << x->value.shape_str()
                                   << " incompatible with graph of "
                                   << a.num_nodes << " nodes");
  GSOUP_CHECK_MSG(layout == nullptr || (layout->num_rows == a.num_nodes &&
                                        layout->num_edges() == a.num_edges()),
                  "spmm: layout does not match the forward adjacency");
  GSOUP_CHECK_MSG(layout_t == nullptr ||
                      (layout_t->num_rows == a_transpose.num_nodes &&
                       layout_t->num_edges() == a_transpose.num_edges()),
                  "spmm: layout_t does not match the transpose adjacency");
  Tensor out = Tensor::empty({a.num_nodes, x->value.shape(1)});
  if (layout != nullptr) {
    spmm_blocked_overwrite(*layout, x->value, out);
  } else {
    spmm_overwrite(a, x->value, out);
  }
  const Csr* at = &a_transpose;
  return make_node(
      std::move(out), {x},
      [x, at, layout_t](Node& node) {
        if (!x->requires_grad) return;
        spmm_backward(at, layout_t, node.grad, x->ensure_grad());
      },
      "spmm");
}

void gat_attention_forward(std::span<const std::int64_t> sp_indptr,
                           std::span<const std::int32_t> sp_indices,
                           const Tensor& h_src, const Tensor& score_dst,
                           const Tensor& score_src, std::int64_t heads,
                           float slope, Tensor& alpha, Tensor& out) {
  const auto n = static_cast<std::int64_t>(sp_indptr.size()) - 1;
  const auto e_count = static_cast<std::int64_t>(sp_indices.size());
  gat_check_shapes(n, e_count, h_src, score_dst, score_src, heads, alpha,
                   out);
  const std::int64_t d = h_src.shape(1) / heads;
  const float* sl = score_dst.data();
  const float* sr = score_src.data();
  const float* ph = h_src.data();
  float* pa = alpha.data();
  float* po = out.data();
  const auto* indptr = sp_indptr.data();
  const auto* indices = sp_indices.data();
  for_each_balanced_row(sp_indptr, [&](std::int64_t lo, std::int64_t hi) {
    run_gat_forward(indptr, indices, sl, sr, ph, pa, po, heads, d, slope, lo,
                    hi);
  });
}

void gat_attention_forward(const graph::BlockedCsr& layout,
                           const Tensor& h_src, const Tensor& score_dst,
                           const Tensor& score_src, std::int64_t heads,
                           float slope, Tensor& alpha, Tensor& out) {
  gat_check_shapes(layout.num_rows, layout.num_edges(), h_src, score_dst,
                   score_src, heads, alpha, out);
  const std::int64_t d = h_src.shape(1) / heads;
  const float* sl = score_dst.data();
  const float* sr = score_src.data();
  const float* ph = h_src.data();
  float* pa = alpha.data();
  float* po = out.data();
  const auto* indptr = layout.indptr.data();
  const auto run = [&](const auto* indices) {
    for_each_row_block(layout.row_blocks, layout.num_rows,
                       [&](std::int64_t lo, std::int64_t hi) {
                         run_gat_forward(indptr, indices, sl, sr, ph, pa, po,
                                         heads, d, slope, lo, hi);
                       });
  };
  if (layout.narrow()) {
    run(layout.idx16.data());
  } else {
    run(layout.idx32.data());
  }
}

void gat_attention_infer(std::span<const std::int64_t> sp_indptr,
                         std::span<const std::int32_t> sp_indices,
                         const Tensor& h_src, const Tensor& score_dst,
                         const Tensor& score_src, std::int64_t heads,
                         float slope, Tensor& out) {
  const auto n = static_cast<std::int64_t>(sp_indptr.size()) - 1;
  gat_check_shapes_infer(n, h_src, score_dst, score_src, heads, out);
  const std::int64_t d = h_src.shape(1) / heads;
  const float* sl = score_dst.data();
  const float* sr = score_src.data();
  const float* ph = h_src.data();
  // Per-edge act/p scratch: the reusable thread-local workspace the
  // backward also uses (disjoint row ranges index disjoint edge slices,
  // so one shared buffer is race-free) — no caller-visible alpha tensor.
  float* pa = gat_dz_workspace(
      static_cast<std::int64_t>(sp_indices.size()) * heads);
  float* po = out.data();
  const auto* indptr = sp_indptr.data();
  const auto* indices = sp_indices.data();
  for_each_balanced_row(sp_indptr, [&](std::int64_t lo, std::int64_t hi) {
    run_gat_infer(indptr, indices, sl, sr, ph, pa, po, heads, d, slope, lo,
                  hi);
  });
}

void gat_attention_infer(const graph::BlockedCsr& layout, const Tensor& h_src,
                         const Tensor& score_dst, const Tensor& score_src,
                         std::int64_t heads, float slope, Tensor& out) {
  gat_check_shapes_infer(layout.num_rows, h_src, score_dst, score_src, heads,
                         out);
  const std::int64_t d = h_src.shape(1) / heads;
  const float* sl = score_dst.data();
  const float* sr = score_src.data();
  const float* ph = h_src.data();
  float* pa = gat_dz_workspace(layout.num_edges() * heads);
  float* po = out.data();
  const auto* indptr = layout.indptr.data();
  const auto run = [&](const auto* indices) {
    for_each_row_block(layout.row_blocks, layout.num_rows,
                       [&](std::int64_t lo, std::int64_t hi) {
                         run_gat_infer(indptr, indices, sl, sr, ph, pa, po,
                                       heads, d, slope, lo, hi);
                       });
  };
  if (layout.narrow()) {
    run(layout.idx16.data());
  } else {
    run(layout.idx32.data());
  }
}

void gat_attention_forward_reference(std::span<const std::int64_t> sp_indptr,
                                     std::span<const std::int32_t> sp_indices,
                                     const Tensor& h_src,
                                     const Tensor& score_dst,
                                     const Tensor& score_src,
                                     std::int64_t heads, float slope,
                                     Tensor& alpha, Tensor& out) {
  const auto n = static_cast<std::int64_t>(sp_indptr.size()) - 1;
  const auto e_count = static_cast<std::int64_t>(sp_indices.size());
  gat_check_shapes(n, e_count, h_src, score_dst, score_src, heads, alpha,
                   out);
  const std::int64_t d = h_src.shape(1) / heads;
  const float* __restrict__ sl = score_dst.data();
  const float* __restrict__ sr = score_src.data();
  const float* __restrict__ ph = h_src.data();
  float* __restrict__ pa = alpha.data();
  float* __restrict__ po = out.data();
  const auto* __restrict__ indptr = sp_indptr.data();
  const auto* __restrict__ indices = sp_indices.data();
  for_each_balanced_row(sp_indptr, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      const std::int64_t begin = indptr[i], end = indptr[i + 1];
      for (std::int64_t head = 0; head < heads; ++head) {
        // Numerically stable softmax over LeakyReLU(sl_i + sr_j).
        float mx = -std::numeric_limits<float>::infinity();
        for (std::int64_t e = begin; e < end; ++e) {
          const float z = sl[i * heads + head] +
                          sr[indices[e] * heads + head];
          const float act = z > 0.0f ? z : slope * z;
          pa[e * heads + head] = act;
          mx = std::max(mx, act);
        }
        float denom = 0.0f;
        for (std::int64_t e = begin; e < end; ++e) {
          const float v = std::exp(pa[e * heads + head] - mx);
          pa[e * heads + head] = v;
          denom += v;
        }
        const float inv = denom > 0.0f ? 1.0f / denom : 0.0f;
        for (std::int64_t e = begin; e < end; ++e) {
          pa[e * heads + head] *= inv;
        }
        // Aggregate: out[i, head*d:] = sum_e alpha_e * H[src_e, head*d:].
        float* __restrict__ orow = po + i * heads * d + head * d;
        for (std::int64_t j = 0; j < d; ++j) orow[j] = 0.0f;
        for (std::int64_t e = begin; e < end; ++e) {
          const float a = pa[e * heads + head];
          const float* __restrict__ hrow =
              ph + indices[e] * heads * d + head * d;
          for (std::int64_t j = 0; j < d; ++j) orow[j] += a * hrow[j];
        }
      }
    }
  });
}

void gat_attention_backward(std::span<const std::int64_t> indptr,
                            std::span<const std::int32_t> indices,
                            const CsrTranspose& graph_t, const Tensor& h_src,
                            const Tensor& score_dst, const Tensor& score_src,
                            const Tensor& alpha, const Tensor& grad_out,
                            std::int64_t heads, float slope, Tensor* dh,
                            Tensor* dscore_dst, Tensor* dscore_src) {
  const auto e_count = static_cast<std::int64_t>(indices.size());
  gat_check_shapes(static_cast<std::int64_t>(indptr.size()) - 1, e_count,
                   h_src, score_dst, score_src, heads, alpha, grad_out);
  if (e_count == 0 || (dh == nullptr && dscore_dst == nullptr &&
                       dscore_src == nullptr)) {
    return;
  }
  const std::int64_t d = h_src.shape(1) / heads;
  float* pdz = gat_dz_workspace(e_count * heads);
  const auto* f_indptr = indptr.data();
  const auto* f_indices = indices.data();
  for_each_balanced_row(indptr, [&](std::int64_t lo, std::int64_t hi) {
    run_gat_backward_dst(f_indptr, f_indices, grad_out.data(), alpha.data(),
                         h_src.data(), score_dst.data(), score_src.data(),
                         pdz,
                         dscore_dst != nullptr ? dscore_dst->data() : nullptr,
                         heads, d, slope, lo, hi);
  });
  if (dh == nullptr && dscore_src == nullptr) return;
  const auto* t_indptr = graph_t.graph.indptr.data();
  const auto* t_indices = graph_t.graph.indices.data();
  const auto* edge_map = graph_t.edge_map.data();
  for_each_balanced_row(graph_t.graph.indptr,
                        [&](std::int64_t lo, std::int64_t hi) {
                          run_gat_backward_src(
                              t_indptr, t_indices, edge_map, grad_out.data(),
                              alpha.data(), pdz,
                              dh != nullptr ? dh->data() : nullptr,
                              dscore_src != nullptr ? dscore_src->data()
                                                    : nullptr,
                              heads, d, lo, hi);
                        });
}

void gat_attention_backward(const graph::BlockedCsr& layout,
                            const graph::BlockedCsr& layout_t,
                            const Tensor& h_src, const Tensor& score_dst,
                            const Tensor& score_src, const Tensor& alpha,
                            const Tensor& grad_out, std::int64_t heads,
                            float slope, Tensor* dh, Tensor* dscore_dst,
                            Tensor* dscore_src) {
  const std::int64_t e_count = layout.num_edges();
  gat_check_shapes(layout.num_rows, e_count, h_src, score_dst, score_src,
                   heads, alpha, grad_out);
  if (e_count == 0 || (dh == nullptr && dscore_dst == nullptr &&
                       dscore_src == nullptr)) {
    return;  // zero-edge graphs have no epos and nothing to do
  }
  GSOUP_CHECK_MSG(layout_t.num_edges() == e_count &&
                      !layout_t.epos.empty(),
                  "gat_attention_backward: layout_t must be a cached "
                  "transpose with edge positions");
  const std::int64_t d = h_src.shape(1) / heads;
  float* pdz = gat_dz_workspace(e_count * heads);
  const auto* f_indptr = layout.indptr.data();
  const auto run_dst = [&](const auto* f_indices) {
    for_each_row_block(
        layout.row_blocks, layout.num_rows,
        [&](std::int64_t lo, std::int64_t hi) {
          run_gat_backward_dst(
              f_indptr, f_indices, grad_out.data(), alpha.data(),
              h_src.data(), score_dst.data(), score_src.data(), pdz,
              dscore_dst != nullptr ? dscore_dst->data() : nullptr, heads, d,
              slope, lo, hi);
        });
  };
  if (layout.narrow()) {
    run_dst(layout.idx16.data());
  } else {
    run_dst(layout.idx32.data());
  }
  if (dh == nullptr && dscore_src == nullptr) return;
  const auto* t_indptr = layout_t.indptr.data();
  const auto* epos = layout_t.epos.data();
  const auto run_src = [&](const auto* t_indices) {
    for_each_row_block(
        layout_t.row_blocks, layout_t.num_rows,
        [&](std::int64_t lo, std::int64_t hi) {
          run_gat_backward_src(t_indptr, t_indices, epos, grad_out.data(),
                               alpha.data(), pdz,
                               dh != nullptr ? dh->data() : nullptr,
                               dscore_src != nullptr ? dscore_src->data()
                                                     : nullptr,
                               heads, d, lo, hi);
        });
  };
  if (layout_t.narrow()) {
    run_src(layout_t.idx16.data());
  } else {
    run_src(layout_t.idx32.data());
  }
}

void gat_attention_backward_reference(
    std::span<const std::int64_t> sp_indptr,
    std::span<const std::int32_t> sp_indices, const CsrTranspose& graph_t,
    const Tensor& h_src, const Tensor& score_dst, const Tensor& score_src,
    const Tensor& alpha, const Tensor& grad_out, std::int64_t heads,
    float slope, Tensor* dh, Tensor* dscore_dst, Tensor* dscore_src) {
  const auto ee = static_cast<std::int64_t>(sp_indices.size());
  const std::int64_t d = h_src.shape(1) / heads;
  const float* __restrict__ grad = grad_out.data();
  const float* __restrict__ pa = alpha.data();
  const float* __restrict__ ph = h_src.data();
  const float* __restrict__ sl = score_dst.data();
  const float* __restrict__ sr = score_src.data();

  // Pass 1 (parallel over dst): softmax + leaky-relu backward per
  // (dst, head); writes dz per edge, accumulates dscore_dst. The seed
  // allocates the dz scratch fresh on every call.
  Tensor dz = Tensor::zeros({std::max<std::int64_t>(ee, 1), heads});
  float* __restrict__ pdz = dz.data();
  float* __restrict__ pslg = dscore_dst != nullptr ? dscore_dst->data()
                                                   : nullptr;
  const auto* __restrict__ indptr = sp_indptr.data();
  const auto* __restrict__ indices = sp_indices.data();
  for_each_balanced_row(sp_indptr, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      const std::int64_t begin = indptr[i], end = indptr[i + 1];
      for (std::int64_t head = 0; head < heads; ++head) {
        const float* __restrict__ grow = grad + i * heads * d + head * d;
        // d_alpha_e = <dOut_i, H_src>; inner = Σ alpha * d_alpha.
        float inner = 0.0f;
        for (std::int64_t e = begin; e < end; ++e) {
          const float* __restrict__ hrow =
              ph + indices[e] * heads * d + head * d;
          float dot = 0.0f;
          for (std::int64_t j = 0; j < d; ++j) dot += grow[j] * hrow[j];
          pdz[e * heads + head] = dot;  // stash d_alpha temporarily
          inner += pa[e * heads + head] * dot;
        }
        float dsl_acc = 0.0f;
        for (std::int64_t e = begin; e < end; ++e) {
          const float a = pa[e * heads + head];
          const float de = a * (pdz[e * heads + head] - inner);
          const float z = sl[i * heads + head] +
                          sr[indices[e] * heads + head];
          const float dzv = de * (z > 0.0f ? 1.0f : slope);
          pdz[e * heads + head] = dzv;
          dsl_acc += dzv;
        }
        if (pslg != nullptr) pslg[i * heads + head] += dsl_acc;
      }
    }
  });

  // Pass 2 (parallel over src via the transpose): scatter dz into
  // dscore_src and alpha·dOut into dH, race-free because each thread
  // owns one source row.
  float* __restrict__ phg = dh != nullptr ? dh->data() : nullptr;
  float* __restrict__ psrg = dscore_src != nullptr ? dscore_src->data()
                                                   : nullptr;
  if (phg == nullptr && psrg == nullptr) return;
  const auto* __restrict__ t_indptr = graph_t.graph.indptr.data();
  const auto* __restrict__ t_indices = graph_t.graph.indices.data();
  const auto* __restrict__ edge_map = graph_t.edge_map.data();
  for_each_balanced_row(
      graph_t.graph.indptr, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t j = lo; j < hi; ++j) {
          for (std::int64_t te = t_indptr[j]; te < t_indptr[j + 1]; ++te) {
            const std::int64_t i = t_indices[te];  // dst of original edge
            const std::int64_t e = edge_map[te];   // original edge id
            for (std::int64_t head = 0; head < heads; ++head) {
              if (psrg != nullptr) {
                psrg[j * heads + head] += pdz[e * heads + head];
              }
              if (phg != nullptr) {
                const float a = pa[e * heads + head];
                const float* __restrict__ grow =
                    grad + i * heads * d + head * d;
                float* __restrict__ hgrow =
                    phg + j * heads * d + head * d;
                for (std::int64_t jj = 0; jj < d; ++jj) {
                  hgrow[jj] += a * grow[jj];
                }
              }
            }
          }
        }
      });
}

Value gat_attention(const Csr& graph, const CsrTranspose& graph_t,
                    const Value& h, const Value& score_dst,
                    const Value& score_src, std::int64_t heads, float slope) {
  return gat_attention(graph, graph_t, h, score_dst, score_src, heads, slope,
                       nullptr, nullptr);
}

Value gat_attention(const Csr& graph, const CsrTranspose& graph_t,
                    const Value& h, const Value& score_dst,
                    const Value& score_src, std::int64_t heads, float slope,
                    const graph::BlockedCsr* layout,
                    const graph::BlockedCsr* layout_t) {
  const std::int64_t n = graph.num_nodes;
  const std::int64_t e_count = graph.num_edges();
  GSOUP_CHECK_MSG(h->value.rank() == 2 && h->value.shape(0) == n &&
                      h->value.shape(1) % heads == 0,
                  "gat_attention: bad H shape " << h->value.shape_str());
  GSOUP_CHECK_MSG(score_dst->value.shape(0) == n &&
                      score_dst->value.shape(1) == heads &&
                      score_src->value.shape(0) == n &&
                      score_src->value.shape(1) == heads,
                  "gat_attention: bad score shapes");
  GSOUP_CHECK_MSG(layout == nullptr || (layout->num_rows == n &&
                                        layout->num_edges() == e_count),
                  "gat_attention: layout does not match the graph");
  GSOUP_CHECK_MSG(layout_t == nullptr ||
                      (layout_t->num_rows == n &&
                       layout_t->num_edges() == e_count &&
                       (e_count == 0 || !layout_t->epos.empty())),
                  "gat_attention: layout_t must be a cached transpose with "
                  "edge positions over the same graph");
  const std::int64_t d = h->value.shape(1) / heads;

  // Forward: the shared autograd-free kernel; alpha (E × heads) is
  // retained for the backward pass.
  Tensor alpha = Tensor::empty({e_count, heads});
  Tensor out = Tensor::empty({n, heads * d});
  if (layout != nullptr) {
    gat_attention_forward(*layout, h->value, score_dst->value,
                          score_src->value, heads, slope, alpha, out);
  } else {
    gat_attention_forward(graph.indptr, graph.indices, h->value,
                          score_dst->value, score_src->value, heads, slope,
                          alpha, out);
  }

  const Csr* g = &graph;
  const CsrTranspose* gt = &graph_t;
  return make_node(
      std::move(out), {h, score_dst, score_src},
      [h, score_dst, score_src, alpha, g, gt, layout, layout_t, heads,
       slope](Node& node) {
        Tensor* dh = h->requires_grad ? &h->ensure_grad() : nullptr;
        Tensor* dsl =
            score_dst->requires_grad ? &score_dst->ensure_grad() : nullptr;
        Tensor* dsr =
            score_src->requires_grad ? &score_src->ensure_grad() : nullptr;
        // Layout-vs-span routing is the caller's (plan compiler's)
        // decision: exec::LayerStep passes layout_t = nullptr for
        // single-head steps, whose narrow-index instantiation measures
        // ~0.7x of its span twin (docs/BENCHMARKS.md).
        if (layout != nullptr && layout_t != nullptr) {
          gat_attention_backward(*layout, *layout_t, h->value,
                                 score_dst->value, score_src->value, alpha,
                                 node.grad, heads, slope, dh, dsl, dsr);
        } else {
          gat_attention_backward(g->indptr, g->indices, *gt, h->value,
                                 score_dst->value, score_src->value, alpha,
                                 node.grad, heads, slope, dh, dsl, dsr);
        }
      },
      "gat_attention");
}

Value block_spmm(const Block& block, const Value& x) {
  GSOUP_CHECK_MSG(x->value.rank() == 2 &&
                      x->value.shape(0) == block.num_src(),
                  "block_spmm: X rows != block src count");
  const std::int64_t d = x->value.shape(1);
  Tensor out = Tensor::empty({block.num_dst, d});
  {
    // Same edge-balanced chunking and fused-overwrite kernels as
    // spmm_overwrite: sampled blocks have bounded fanout, but
    // union-subgraph blocks inherit the graph's skew.
    const float* __restrict__ px = x->value.data();
    float* __restrict__ po = out.data();
    const auto* __restrict__ indptr = block.indptr.data();
    const auto* __restrict__ indices = block.indices.data();
    const auto* __restrict__ values = block.values.data();
    const std::int64_t e = block.num_edges();
    for_each_balanced_row(block.indptr,
                          [&](std::int64_t lo, std::int64_t hi) {
                            spmm_rows<true, std::int32_t, float,
                                      spmm_widen_f32>(indptr, indices,
                                                      values, px, po, d, e,
                                                      lo, hi);
                          });
  }
  // The backward dX = Bᵀ·dY runs as an edge-balanced SpMM gather over the
  // block's cached transpose (race-free by source row, no team clamp).
  // Blocks sampled with BlockTranspose::kBuild already carry it — the
  // counting sort ran (threaded, one task per layer) inside
  // sample_blocks, off this forward's critical path. The fallback build
  // here covers blocks from other producers (union subgraphs, tests).
  std::shared_ptr<const graph::BlockedCsr> bt = block.transpose;
  if (bt == nullptr && grad_enabled() && x->requires_grad) {
    bt = std::make_shared<const graph::BlockedCsr>(
        graph::build_blocked_transpose_spans(block.indptr, block.indices,
                                             block.values, block.num_src(),
                                             /*force_wide=*/false,
                                             /*with_epos=*/false));
  }
  return make_node(
      std::move(out), {x},
      [x, bt = std::move(bt)](Node& node) {
        if (!x->requires_grad) return;
        spmm_backward(nullptr, bt.get(), node.grad, x->ensure_grad());
      },
      "block_spmm");
}

void block_spmm_backward_scatter(const Block& block, const Tensor& grad_out,
                                 Tensor& x_grad) {
  const std::int64_t d = grad_out.shape(1);
  GSOUP_CHECK_MSG(grad_out.shape(0) == block.num_dst &&
                      x_grad.shape(0) == block.num_src() &&
                      x_grad.shape(1) == d,
                  "block_spmm_backward_scatter: bad gradient shapes");
  const float* __restrict__ g = grad_out.data();
  float* __restrict__ dst = x_grad.data();
  const auto* __restrict__ indptr = block.indptr.data();
  const auto* __restrict__ indices = block.indices.data();
  const auto* __restrict__ values = block.values.data();
  const std::int64_t num_src = block.num_src();
  // Race-free parallel scatter (the seed backward): blocks carry no
  // transpose, so each thread walks every edge but only writes the source
  // rows in its own range. Every thread re-reads all E indices, so the
  // useful work per thread is ~d row-update lanes — clamp the team to d
  // threads or the redundant index walk dominates.
#ifdef _OPENMP
  const int scatter_threads = static_cast<int>(std::min<std::int64_t>(
      omp_get_max_threads(), std::max<std::int64_t>(d, 1)));
#else
  const int scatter_threads = 1;
#endif
#pragma omp parallel num_threads(scatter_threads) \
    if (block.num_edges() * d >= 1 << 16)
  {
    std::int64_t lo = 0, hi = num_src;
#ifdef _OPENMP
    const std::int64_t t = omp_get_thread_num();
    const std::int64_t nt = omp_get_num_threads();
    lo = num_src * t / nt;
    hi = num_src * (t + 1) / nt;
#endif
    for (std::int64_t i = 0; i < block.num_dst; ++i) {
      const float* __restrict__ grow = g + i * d;
      for (std::int64_t e = indptr[i]; e < indptr[i + 1]; ++e) {
        const std::int64_t s = indices[e];
        if (s < lo || s >= hi) continue;
        float* __restrict__ xrow = dst + s * d;
        const float w = values[e];
#pragma omp simd
        for (std::int64_t j = 0; j < d; ++j) xrow[j] += w * grow[j];
      }
    }
  }
}

Value narrow_rows(const Value& x, std::int64_t rows) {
  GSOUP_CHECK_MSG(x->value.rank() == 2 && rows >= 0 &&
                      rows <= x->value.shape(0),
                  "narrow_rows out of range");
  const std::int64_t d = x->value.shape(1);
  Tensor out = Tensor::empty({rows, d});
  std::memcpy(out.data(), x->value.data(),
              static_cast<std::size_t>(rows * d) * sizeof(float));
  return make_node(
      std::move(out), {x},
      [x, rows, d](Node& node) {
        if (!x->requires_grad) return;
        Tensor& xg = x->ensure_grad();
        float* __restrict__ dst = xg.data();
        const float* __restrict__ g = node.grad.data();
        for (std::int64_t i = 0; i < rows * d; ++i) dst[i] += g[i];
      },
      "narrow_rows");
}

Value gather_rows(const Value& features,
                  std::span<const std::int64_t> row_ids) {
  GSOUP_CHECK_MSG(features->value.rank() == 2, "gather_rows needs rank-2");
  const std::int64_t d = features->value.shape(1);
  const auto m = static_cast<std::int64_t>(row_ids.size());
  Tensor out = Tensor::empty({m, d});
  const float* __restrict__ src = features->value.data();
  float* __restrict__ dst = out.data();
  for (std::int64_t i = 0; i < m; ++i) {
    GSOUP_DCHECK(row_ids[i] >= 0 && row_ids[i] < features->value.shape(0));
    std::memcpy(dst + i * d, src + row_ids[i] * d,
                static_cast<std::size_t>(d) * sizeof(float));
  }
  std::vector<std::int64_t> ids(row_ids.begin(), row_ids.end());
  return make_node(
      std::move(out), {features},
      [features, ids = std::move(ids), d](Node& node) {
        if (!features->requires_grad) return;
        Tensor& fg = features->ensure_grad();
        float* __restrict__ dstg = fg.data();
        const float* __restrict__ g = node.grad.data();
        for (std::size_t i = 0; i < ids.size(); ++i) {
          float* row = dstg + ids[i] * d;
          const float* grow = g + static_cast<std::int64_t>(i) * d;
          for (std::int64_t j = 0; j < d; ++j) row[j] += grow[j];
        }
      },
      "gather_rows");
}

}  // namespace gsoup::ag
