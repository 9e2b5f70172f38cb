#pragma once

#include <cstdint>

// Blocked-GEMM tile geometry and the register-tiled micro-kernel, shared
// between the baseline TU (ops.cpp, built at the project's default ISA)
// and the AVX2 twin (gemm_micro_avx2.cpp, built with -mavx2 in portable
// builds and selected at runtime). The kernel is a plain scalar loop nest
// on purpose: the autovectorizer emits SSE2 or AVX2 from the same source,
// and because neither build enables FMA for it the per-element
// multiply-then-add order is identical at every vector width — the two
// TUs produce bit-identical C, so runtime dispatch never changes results.

namespace gsoup::ops::detail {

// The micro-kernel holds an MR×NR accumulator block in registers. With
// AVX-512's 32 vector registers the block is 8×16 floats = 8 ZMM
// accumulators: eight independent FMA chains per B row cover the FMA
// latency, where four chains leave the FMA pipes half idle. With 16
// vector registers it stays 4×16 (8 YMM), leaving room for the broadcast
// A value and the B row. Every TU of one build sees the same ISA macros,
// so they agree on the height, and the height never changes a result
// bit: each element's contraction runs over p in the same order whatever
// strip it sits in. KC×NC is the packed B panel: 256×128 floats =
// 128 KiB, sized to sit in L2 while an MR×KC strip of A streams through
// L1.
#if defined(__AVX512F__)
constexpr std::int64_t kMR = 8;
#else
constexpr std::int64_t kMR = 4;
#endif
constexpr std::int64_t kNR = 16;
constexpr std::int64_t kKC = 256;
constexpr std::int64_t kNC = 128;

/// Full MR×NR register tile: C[0:MR, 0:NR] ?= A[0:MR, 0:kc] · Bp[0:kc, 0:NR]
/// where A[r, p] is a[r * lda + p * ldp] (ldp = 1 for a row-major strip;
/// lda = 1 reads a strip of a transposed operand in place) and Bp rows are
/// `ldb` apart (the packed panel width). The operands are
/// always fp32 here — half-stored A/B widen during packing (PackA16 /
/// PackB16 in ops.cpp), so the contraction itself is fp32 for every storage
/// precision, in the same order, which is the reduced-precision numerics
/// contract. `kOp` picks the store: kAdd is c += acc (a later k-panel, or
/// an accumulating GEMM); kStore is c = acc, bit-equal to adding `acc` into
/// a zero-filled C because `acc` starts at +0 and a sum is −0 only when
/// both terms are, so `acc` is never −0; kCombineBias is the fused store
/// c = (acc + c) + bias (the SAGE combine), only correct when `acc` is the
/// COMPLETE product, i.e. a single k-panel.
enum class TileOp { kAdd, kStore, kCombineBias };

template <TileOp kOp>
inline void micro_kernel_full(std::int64_t kc, const float* __restrict__ a,
                              std::int64_t lda, std::int64_t ldp,
                              const float* __restrict__ bp, std::int64_t ldb,
                              float* __restrict__ c, std::int64_t ldc,
                              const float* __restrict__ bias) {
  float acc[kMR][kNR] = {};
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* __restrict__ brow = bp + p * ldb;
    const float* __restrict__ acol = a + p * ldp;
    for (std::int64_t r = 0; r < kMR; ++r) {
      const float av = acol[r * lda];
#pragma omp simd
      for (std::int64_t j = 0; j < kNR; ++j) acc[r][j] += av * brow[j];
    }
  }
  for (std::int64_t r = 0; r < kMR; ++r) {
#pragma omp simd
    for (std::int64_t j = 0; j < kNR; ++j) {
      if constexpr (kOp == TileOp::kCombineBias) {
        c[r * ldc + j] = (acc[r][j] + c[r * ldc + j]) + bias[j];
      } else if constexpr (kOp == TileOp::kStore) {
        c[r * ldc + j] = acc[r][j];
      } else {
        c[r * ldc + j] += acc[r][j];
      }
    }
  }
}

}  // namespace gsoup::ops::detail
