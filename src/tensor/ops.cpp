#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "tensor/gemm_micro.hpp"
#include "tensor/gemm_micro_avx2.hpp"
#include "tensor/storage.hpp"

namespace gsoup::ops {

namespace {

// Rows below this threshold run serially; spawning an OpenMP team costs more
// than the kernel for small graph layers.
constexpr std::int64_t kParallelRowThreshold = 64;

// GEMM problems below this FLOP count (2*m*n*k) run the naive loop: the
// packed path's panel copies only amortise on cache-resident-or-larger
// tiles.
constexpr std::int64_t kBlockedGemmMinFlops = 2ll * 48 * 48 * 48;

// Blocked-GEMM tile geometry and the full-tile micro-kernel live in
// tensor/gemm_micro.hpp, shared with the AVX2 twin TU
// (gemm_micro_avx2.cpp) that portable builds dispatch to at runtime.
using detail::kKC;
using detail::kMR;
using detail::kNC;
using detail::kNR;
using detail::micro_kernel_full;
using detail::TileOp;

// Transpose is done in square tiles so both source rows and destination
// rows stay cache-resident.
constexpr std::int64_t kTransposeTile = 32;

void check_matmul(const Tensor& a, const Tensor& b, std::int64_t ak,
                  std::int64_t bk) {
  GSOUP_CHECK_MSG(a.rank() == 2 && b.rank() == 2,
                  "matmul requires rank-2 operands, got "
                      << a.shape_str() << " and " << b.shape_str());
  GSOUP_CHECK_MSG(ak == bk, "matmul inner-dimension mismatch: "
                                << a.shape_str() << " vs " << b.shape_str());
}

/// Identity "widen" for fp32-stored A elements (the template's base case).
inline float widen_f32(float x) { return x; }

/// Width of the packed B panel for an nc-column block: nc rounded up to
/// kNR. The padding columns are zero, so the last, partial column tile
/// runs the full-width vector micro-kernel like every other tile.
constexpr std::int64_t padded_width(std::int64_t nc) {
  return (nc + kNR - 1) / kNR * kNR;
}

/// Zero-fills the padding columns [nc, ncp) of kc packed panel rows.
inline void zero_panel_padding(float* __restrict__ bp, std::int64_t kc,
                               std::int64_t nc, std::int64_t ncp) {
  if (nc == ncp) return;
  for (std::int64_t p = 0; p < kc; ++p) {
    std::fill(bp + p * ncp + nc, bp + (p + 1) * ncp, 0.0f);
  }
}

/// Packs an fp32 B row range into the panel: plain row memcpy. With a
/// row list (the row-sparse matmul_tn), contraction position q is B row
/// rows[q], so the panel holds the listed rows only.
struct PackB32 {
  const float* __restrict__ pb;
  std::int64_t n;
  const std::int64_t* rows = nullptr;
  void operator()(float* __restrict__ bp, std::int64_t kk, std::int64_t jc,
                  std::int64_t kc, std::int64_t nc, std::int64_t ncp) const {
    for (std::int64_t p = 0; p < kc; ++p) {
      const std::int64_t row = rows == nullptr ? kk + p : rows[kk + p];
      std::memcpy(bp + p * ncp, pb + row * n + jc,
                  static_cast<std::size_t>(nc) * sizeof(float));
    }
    zero_panel_padding(bp, kc, nc, ncp);
  }
};

/// Packs B = Sᵀ from a row-major S [n, k] (matmul_nt's right operand):
/// the panel receives exactly the values a materialised transpose would
/// hold, gathered straight from S's rows.
struct PackBT32 {
  const float* __restrict__ ps;
  std::int64_t k;
  void operator()(float* __restrict__ bp, std::int64_t kk, std::int64_t jc,
                  std::int64_t kc, std::int64_t nc, std::int64_t ncp) const {
    // kNR-deep bands keep the band's panel rows in L1 while each S row
    // contributes one contiguous run.
    for (std::int64_t p0 = 0; p0 < kc; p0 += kNR) {
      const std::int64_t p1 = std::min(kc, p0 + kNR);
      for (std::int64_t j = 0; j < nc; ++j) {
        const float* __restrict__ srow = ps + (jc + j) * k + kk;
        for (std::int64_t p = p0; p < p1; ++p) bp[p * ncp + j] = srow[p];
      }
    }
    zero_panel_padding(bp, kc, nc, ncp);
  }
};

/// Packs a half-stored B row range: the memcpy becomes a bulk widen, so
/// the half weight panel converts ONCE per (kk, jc) tile and the
/// micro-kernels run unchanged over the fp32 panel.
struct PackB16 {
  const std::uint16_t* __restrict__ pb;
  std::int64_t n;
  Precision prec;
  void operator()(float* __restrict__ bp, std::int64_t kk, std::int64_t jc,
                  std::int64_t kc, std::int64_t nc, std::int64_t ncp) const {
    for (std::int64_t p = 0; p < kc; ++p) {
      half::widen(pb + (kk + p) * n + jc, bp + p * ncp, nc, prec);
    }
    zero_panel_padding(bp, kc, nc, ncp);
  }
};

// A-strip access. Every PackA returns kMR readable rows of kc values,
// A[r, p] at a[r * lda + p * ldp]: a partial strip (mr < kMR) is copied
// row-major into the loop-private scratch with zero rows below it, so the
// strip always feeds the full micro-kernel.
struct AStrip {
  const float* a;
  std::int64_t lda;
  std::int64_t ldp;
};

/// Zero-fills the padding rows [mr, kMR) of a kc-wide scratch strip.
inline void zero_strip_padding(float* __restrict__ scratch, std::int64_t mr,
                               std::int64_t kc) {
  std::fill(scratch + mr * kc, scratch + kMR * kc, 0.0f);
}

/// A-strip access for fp32 A: full strips are read in place at the
/// matrix's own row stride. With a row list (the row-sparse matmul_nt),
/// strip position i is A row rows[i], copied into the scratch.
struct PackA32 {
  const float* __restrict__ pa;
  std::int64_t k;
  const std::int64_t* rows = nullptr;
  AStrip operator()(float* __restrict__ scratch, std::int64_t i0,
                    std::int64_t kk, std::int64_t mr, std::int64_t kc) const {
    if (rows == nullptr && mr == kMR) return {pa + i0 * k + kk, k, 1};
    for (std::int64_t r = 0; r < mr; ++r) {
      const std::int64_t row = rows == nullptr ? i0 + r : rows[i0 + r];
      std::memcpy(scratch + r * kc, pa + row * k + kk,
                  static_cast<std::size_t>(kc) * sizeof(float));
    }
    zero_strip_padding(scratch, mr, kc);
    return {scratch, kc, 1};
  }
};

/// A-strip access for A = Sᵀ from a row-major S [k, m] (matmul_tn's left
/// operand): a full strip is read in place, A[r, p] = S[kk + p, i0 + r],
/// so no transposed copy of S is ever written. With a row list (the
/// row-sparse matmul_tn), contraction position q is S row rows[q]: a panel
/// of consecutive rows is still read in place, any other is gathered into
/// the scratch.
struct PackAT32 {
  const float* __restrict__ ps;
  std::int64_t m;
  const std::int64_t* rows = nullptr;
  AStrip operator()(float* __restrict__ scratch, std::int64_t i0,
                    std::int64_t kk, std::int64_t mr, std::int64_t kc) const {
    const std::int64_t first = rows == nullptr ? kk : rows[kk];
    const bool consecutive =
        rows == nullptr || rows[kk + kc - 1] - first == kc - 1;
    if (consecutive && mr == kMR) return {ps + first * m + i0, 1, m};
    for (std::int64_t p = 0; p < kc; ++p) {
      const std::int64_t row = rows == nullptr ? kk + p : rows[kk + p];
      const float* __restrict__ srow = ps + row * m + i0;
      for (std::int64_t r = 0; r < mr; ++r) scratch[r * kc + p] = srow[r];
    }
    zero_strip_padding(scratch, mr, kc);
    return {scratch, kc, 1};
  }
};

/// A-strip access for half-stored A: bulk-widens the mr×kc strip into
/// per-iteration stack scratch ONCE per (i0, kk, jc), amortised over the
/// nc/kNR micro-kernel tiles that reuse it. Keeping the scalar codec out
/// of the contraction loop is what lets the bulk converter's F16C path
/// carry the conversion cost (a per-element in-loop widen is ~10 ops and
/// dominated the kernel).
struct PackA16 {
  const std::uint16_t* __restrict__ pa;
  std::int64_t k;
  Precision prec;
  AStrip operator()(float* __restrict__ scratch, std::int64_t i0,
                    std::int64_t kk, std::int64_t mr, std::int64_t kc) const {
    for (std::int64_t r = 0; r < mr; ++r) {
      half::widen(pa + (i0 + r) * k + kk, scratch + r * kc, kc, prec);
    }
    zero_strip_padding(scratch, mr, kc);
    return {scratch, kc, 1};
  }
};

/// The k-panels a blocked GEMM contracts, as position ranges of the
/// contraction. Dense: consecutive kKC-deep panels over [0, k). Row-sparse
/// (of_rows): one panel per kKC-aligned block of the original row
/// numbering that holds a listed row, spanning that block's positions in
/// the row list. Each panel thus keeps its original rows in their original
/// order, and a block with no listed row has no panel.
class KPanels {
 public:
  static KPanels dense(std::int64_t k) {
    KPanels p;
    p.k_ = k;
    return p;
  }

  /// `rows` ascending, each in [0, k).
  static KPanels of_rows(std::span<const std::int64_t> rows) {
    KPanels p;
    p.sparse_ = true;
    const auto nnz = static_cast<std::int64_t>(rows.size());
    for (std::int64_t q = 0; q < nnz; ++q) {
      if (q == 0 || rows[q] / kKC != rows[q - 1] / kKC) p.bounds_.push_back(q);
    }
    p.bounds_.push_back(nnz);
    return p;
  }

  std::int64_t count() const {
    return sparse_ ? static_cast<std::int64_t>(bounds_.size()) - 1
                   : (k_ + kKC - 1) / kKC;
  }
  std::int64_t begin(std::int64_t t) const {
    return sparse_ ? bounds_[t] : t * kKC;
  }
  std::int64_t end(std::int64_t t) const {
    return sparse_ ? bounds_[t + 1] : std::min(k_, (t + 1) * kKC);
  }

 private:
  std::int64_t k_ = 0;
  bool sparse_ = false;
  std::vector<std::int64_t> bounds_;
};

/// C ?= A · B with A [m,k] row-major, B [k,n] row-major, C [m,n] row-major.
/// Packs B into KC×NC panels and contracts them against MR-row strips of A
/// with a register-tiled micro-kernel. The kCombineBias instantiation
/// requires k <= kKC (single k-panel; see gemm_can_combine_bias).
///
/// The whole call is one OpenMP region. Each thread takes one contiguous
/// range of row strips for the whole call and packs its own copy of every
/// B panel, so no thread waits on another between k-panels: a tall-k
/// contraction (matmul_tn over every node, 63 panels on products-like
/// data) would otherwise pay one team synchronisation per panel. Each C
/// element is owned by one thread and sees its panels in order.
/// `store_first` makes each column block's first panel store its sum
/// (TileOp::kStore) into uninitialised C instead of adding it to a
/// zero-filled one. `crows` (optional) maps the M positions to C rows:
/// position i is C row crows[i] (the row-sparse matmul_nt).
///
/// Every tile runs the full MR×NR micro-kernel. The panel is padded to a
/// multiple of kNR with zero columns and partial A strips with zero rows;
/// a partial tile is computed into a local MR×NR tile that holds the live
/// C (and bias) values, and only the live elements are stored back. Each
/// live element sees the same multiply-add sequence and the same
/// c += acc / c = acc / (acc + c) + bias store as in a full tile, so the
/// result is bit-identical to a scalar loop over the live elements alone.
template <bool kCombineBias, typename PackA, typename PackB>
void gemm_blocked_t(std::int64_t m, std::int64_t n, const KPanels& panels,
                    const PackA& pack_a, const PackB& pack_b,
                    float* __restrict__ pc, const std::int64_t* crows,
                    bool store_first, const float* __restrict__ bias) {
  // Tiles go to the AVX2 build of the micro-kernel when the CPU has it —
  // bit-exact with the baseline build (see gemm_micro.hpp), just wider
  // vectors, which roughly doubles portable-build GEMM throughput.
  const bool simd = gemmsimd::available();
  const auto tile = [simd](TileOp op, std::int64_t kc, const AStrip& s,
                           const float* bp, std::int64_t ldb, float* c,
                           std::int64_t ldc, const float* btile) {
    if constexpr (kCombineBias) {
      if (simd) {
        gemmsimd::full_bias(kc, s.a, s.lda, s.ldp, bp, ldb, c, ldc, btile);
      } else {
        micro_kernel_full<TileOp::kCombineBias>(kc, s.a, s.lda, s.ldp, bp,
                                                ldb, c, ldc, btile);
      }
    } else if (op == TileOp::kStore) {
      if (simd) {
        gemmsimd::full_store(kc, s.a, s.lda, s.ldp, bp, ldb, c, ldc);
      } else {
        micro_kernel_full<TileOp::kStore>(kc, s.a, s.lda, s.ldp, bp, ldb, c,
                                          ldc, nullptr);
      }
    } else if (simd) {
      gemmsimd::full(kc, s.a, s.lda, s.ldp, bp, ldb, c, ldc);
    } else {
      micro_kernel_full<TileOp::kAdd>(kc, s.a, s.lda, s.ldp, bp, ldb, c, ldc,
                                      nullptr);
    }
  };
  const std::int64_t num_panels = panels.count();
  const std::int64_t num_strips = (m + kMR - 1) / kMR;
#pragma omp parallel if (m >= kParallelRowThreshold)
  {
    std::int64_t s0 = 0, s1 = num_strips;
#ifdef _OPENMP
    const std::int64_t team = omp_get_num_threads();
    const std::int64_t me = omp_get_thread_num();
    s0 = num_strips * me / team;
    s1 = num_strips * (me + 1) / team;
#endif
    if (s0 < s1) {
      // This thread's packed-panel scratch: pooled like tensor storage,
      // not tracked by MemoryTracker (its lifetime is this call).
      const StorageBlock panel(kKC * kNC * sizeof(float),
                               StorageBlock::Accounting::kUntracked);
      float* __restrict__ bp = static_cast<float*>(panel.data());
      for (std::int64_t jc = 0; jc < n; jc += kNC) {
        const std::int64_t nc = std::min(kNC, n - jc);
        const std::int64_t ncp = padded_width(nc);
        for (std::int64_t t = 0; t < num_panels; ++t) {
          const std::int64_t kk = panels.begin(t);
          const std::int64_t kc = panels.end(t) - kk;
          const TileOp op = kCombineBias           ? TileOp::kCombineBias
                            : store_first && t == 0 ? TileOp::kStore
                                                    : TileOp::kAdd;
          pack_b(bp, kk, jc, kc, nc, ncp);
          for (std::int64_t i0 = s0 * kMR; i0 < std::min(m, s1 * kMR);
               i0 += kMR) {
            const std::int64_t mr = std::min(kMR, m - i0);
            // Strip scratch for a copied or widened strip (kMR×kKC floats,
            // at most 8 KiB of stack); full fp32 strips are read in place.
            alignas(kTensorAlignment) float apack[kMR * kKC];
            const AStrip astrip = pack_a(apack, i0, kk, mr, kc);
            for (std::int64_t j0 = 0; j0 < nc; j0 += kNR) {
              const std::int64_t nr = std::min(kNR, nc - j0);
              const float* __restrict__ btile =
                  bias == nullptr ? nullptr : bias + jc + j0;
              if (crows == nullptr && mr == kMR && nr == kNR) {
                tile(op, kc, astrip, bp + j0, ncp, pc + i0 * n + jc + j0, n,
                     btile);
                continue;
              }
              alignas(kTensorAlignment) float ctile[kMR * kNR] = {};
              alignas(kTensorAlignment) float bpad[kNR] = {};
              const auto crow = [&](std::int64_t r) {
                const std::int64_t row =
                    crows == nullptr ? i0 + r : crows[i0 + r];
                return pc + row * n + jc + j0;
              };
              if (op != TileOp::kStore) {
                for (std::int64_t r = 0; r < mr; ++r) {
                  std::copy_n(crow(r), nr, ctile + r * kNR);
                }
              }
              if (btile != nullptr) std::copy_n(btile, nr, bpad);
              tile(op, kc, astrip, bp + j0, ncp, ctile, kNR, bpad);
              for (std::int64_t r = 0; r < mr; ++r) {
                std::copy_n(ctile + r * kNR, nr, crow(r));
              }
            }
          }
        }
      }
    }
  }
}

void gemm_blocked_acc(std::int64_t m, std::int64_t n, std::int64_t k,
                      const float* __restrict__ pa,
                      const float* __restrict__ pb, float* __restrict__ pc) {
  gemm_blocked_t<false>(m, n, KPanels::dense(k), PackA32{pa, k},
                        PackB32{pb, n}, pc, nullptr, /*store_first=*/false,
                        nullptr);
}

bool use_blocked_gemm(std::int64_t m, std::int64_t n, std::int64_t k) {
  return 2 * m * n * k >= kBlockedGemmMinFlops;
}

/// Naive i-k-j accumulate generalised over stored element types; the
/// below-threshold fallback for the half GEMM overloads, mirroring
/// matmul_naive_acc's loop order exactly.
template <typename TA, float (*WidenA)(TA), typename TB, float (*WidenB)(TB)>
void naive_acc_t(std::int64_t m, std::int64_t n, std::int64_t k,
                 const TA* __restrict__ pa, const TB* __restrict__ pb,
                 float* __restrict__ pc) {
#pragma omp parallel for schedule(static) if (m >= kParallelRowThreshold)
  for (std::int64_t i = 0; i < m; ++i) {
    float* __restrict__ crow = pc + i * n;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float aval = WidenA(pa[i * k + kk]);
      const TB* __restrict__ brow = pb + kk * n;
#pragma omp simd
      for (std::int64_t j = 0; j < n; ++j) crow[j] += aval * WidenB(brow[j]);
    }
  }
}

void check_matmul_half(std::int64_t am, std::int64_t ak, std::int64_t bk,
                       std::int64_t bn, const Tensor& c) {
  GSOUP_CHECK_MSG(ak == bk, "matmul inner-dimension mismatch: ["
                                << am << ", " << ak << "] vs [" << bk << ", "
                                << bn << "]");
  GSOUP_CHECK_MSG(c.rank() == 2 && c.shape(0) == am && c.shape(1) == bn,
                  "matmul_acc output shape mismatch");
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  check_matmul(a, b, a.shape(1), b.shape(0));
  const std::int64_t m = a.shape(0), k = a.shape(1), n = b.shape(1);
  if (use_blocked_gemm(m, n, k)) {
    // The first k-panel stores its sum, so C is written once. The naive
    // loop below keeps its zero fill: its first product can be −0, and
    // 0 + (−0) is +0.
    Tensor c = Tensor::empty({m, n});
    gemm_blocked_t<false>(m, n, KPanels::dense(k), PackA32{a.data(), k},
                          PackB32{b.data(), n}, c.data(), nullptr,
                          /*store_first=*/true, nullptr);
    return c;
  }
  Tensor c = Tensor::zeros({m, n});
  matmul_naive_acc(a, b, c);
  return c;
}

void matmul_acc(const Tensor& a, const Tensor& b, Tensor& c) {
  check_matmul(a, b, a.shape(1), b.shape(0));
  GSOUP_CHECK_MSG(c.shape(0) == a.shape(0) && c.shape(1) == b.shape(1),
                  "matmul_acc output shape mismatch");
  const std::int64_t m = a.shape(0), k = a.shape(1), n = b.shape(1);
  if (use_blocked_gemm(m, n, k)) {
    gemm_blocked_acc(m, n, k, a.data(), b.data(), c.data());
    return;
  }
  matmul_naive_acc(a, b, c);
}

void matmul_naive_acc(const Tensor& a, const Tensor& b, Tensor& c) {
  check_matmul(a, b, a.shape(1), b.shape(0));
  GSOUP_CHECK_MSG(c.shape(0) == a.shape(0) && c.shape(1) == b.shape(1),
                  "matmul_naive_acc output shape mismatch");
  const std::int64_t m = a.shape(0), k = a.shape(1), n = b.shape(1);
  const float* __restrict__ pa = a.data();
  const float* __restrict__ pb = b.data();
  float* __restrict__ pc = c.data();

  // i-k-j loop order: the innermost loop walks both B and C rows
  // contiguously, so the compiler vectorises it. Parallel over output rows.
#pragma omp parallel for schedule(static) if (m >= kParallelRowThreshold)
  for (std::int64_t i = 0; i < m; ++i) {
    float* __restrict__ crow = pc + i * n;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float aval = pa[i * k + kk];
      const float* __restrict__ brow = pb + kk * n;
#pragma omp simd
      for (std::int64_t j = 0; j < n; ++j) crow[j] += aval * brow[j];
    }
  }
}

void matmul_acc(const HalfBuffer& a, const Tensor& b, Tensor& c) {
  GSOUP_CHECK_MSG(a.rank() == 2 && b.rank() == 2,
                  "matmul requires rank-2 operands, got "
                      << a.shape_str() << " and " << b.shape_str());
  const std::int64_t m = a.shape(0), k = a.shape(1), n = b.shape(1);
  check_matmul_half(m, k, b.shape(0), n, c);
  if (use_blocked_gemm(m, n, k)) {
    gemm_blocked_t<false>(m, n, KPanels::dense(k),
                          PackA16{a.data(), k, a.precision()},
                          PackB32{b.data(), n}, c.data(), nullptr,
                          /*store_first=*/false, nullptr);
    return;
  }
  if (a.precision() == Precision::kFp16) {
    naive_acc_t<std::uint16_t, half::widen_fp16, float, widen_f32>(
        m, n, k, a.data(), b.data(), c.data());
  } else {
    naive_acc_t<std::uint16_t, half::widen_bf16, float, widen_f32>(
        m, n, k, a.data(), b.data(), c.data());
  }
}

void matmul_acc(const Tensor& a, const HalfBuffer& b, Tensor& c) {
  GSOUP_CHECK_MSG(a.rank() == 2 && b.rank() == 2,
                  "matmul requires rank-2 operands, got "
                      << a.shape_str() << " and " << b.shape_str());
  const std::int64_t m = a.shape(0), k = a.shape(1), n = b.shape(1);
  check_matmul_half(m, k, b.shape(0), n, c);
  if (use_blocked_gemm(m, n, k)) {
    gemm_blocked_t<false>(m, n, KPanels::dense(k), PackA32{a.data(), k},
                          PackB16{b.data(), n, b.precision()}, c.data(),
                          nullptr, /*store_first=*/false, nullptr);
    return;
  }
  if (b.precision() == Precision::kFp16) {
    naive_acc_t<float, widen_f32, std::uint16_t, half::widen_fp16>(
        m, n, k, a.data(), b.data(), c.data());
  } else {
    naive_acc_t<float, widen_f32, std::uint16_t, half::widen_bf16>(
        m, n, k, a.data(), b.data(), c.data());
  }
}

void matmul_acc(const HalfBuffer& a, const HalfBuffer& b, Tensor& c) {
  GSOUP_CHECK_MSG(a.rank() == 2 && b.rank() == 2,
                  "matmul requires rank-2 operands, got "
                      << a.shape_str() << " and " << b.shape_str());
  GSOUP_CHECK_MSG(a.precision() == b.precision(),
                  "mixed half precisions in matmul_acc: "
                      << precision_name(a.precision()) << " vs "
                      << precision_name(b.precision()));
  const std::int64_t m = a.shape(0), k = a.shape(1), n = b.shape(1);
  check_matmul_half(m, k, b.shape(0), n, c);
  if (use_blocked_gemm(m, n, k)) {
    gemm_blocked_t<false>(m, n, KPanels::dense(k),
                          PackA16{a.data(), k, a.precision()},
                          PackB16{b.data(), n, b.precision()}, c.data(),
                          nullptr, /*store_first=*/false, nullptr);
    return;
  }
  if (a.precision() == Precision::kFp16) {
    naive_acc_t<std::uint16_t, half::widen_fp16, std::uint16_t,
                half::widen_fp16>(m, n, k, a.data(), b.data(), c.data());
  } else {
    naive_acc_t<std::uint16_t, half::widen_bf16, std::uint16_t,
                half::widen_bf16>(m, n, k, a.data(), b.data(), c.data());
  }
}

bool gemm_can_combine_bias(std::int64_t m, std::int64_t n, std::int64_t k) {
  // One k-panel keeps the whole contraction in the register accumulators,
  // so the fused store consumes the COMPLETE product — the exact bits a
  // zero-initialised separate GEMM would have produced. Multi-panel
  // contractions store partial sums and would change the summation order.
  return use_blocked_gemm(m, n, k) && k <= kKC;
}

void matmul_combine_bias(const Tensor& a, const Tensor& b,
                         const Tensor& bias, Tensor& c) {
  check_matmul(a, b, a.shape(1), b.shape(0));
  const std::int64_t m = a.shape(0), k = a.shape(1), n = b.shape(1);
  check_matmul_half(m, k, b.shape(0), n, c);
  GSOUP_CHECK_MSG(bias.rank() == 1 && bias.shape(0) == n,
                  "matmul_combine_bias: bias " << bias.shape_str()
                                               << " vs n=" << n);
  GSOUP_CHECK_MSG(gemm_can_combine_bias(m, n, k),
                  "matmul_combine_bias outside its fusable regime (m=" << m
                      << ", n=" << n << ", k=" << k << ")");
  gemm_blocked_t<true>(m, n, KPanels::dense(k), PackA32{a.data(), k},
                       PackB32{b.data(), n}, c.data(), nullptr,
                       /*store_first=*/false, bias.data());
}

void matmul_combine_bias(const HalfBuffer& a, const HalfBuffer& b,
                         const Tensor& bias, Tensor& c) {
  GSOUP_CHECK_MSG(a.precision() == b.precision(),
                  "mixed half precisions in matmul_combine_bias");
  const std::int64_t m = a.shape(0), k = a.shape(1), n = b.shape(1);
  check_matmul_half(m, k, b.shape(0), n, c);
  GSOUP_CHECK_MSG(bias.rank() == 1 && bias.shape(0) == n,
                  "matmul_combine_bias: bias " << bias.shape_str()
                                               << " vs n=" << n);
  GSOUP_CHECK_MSG(gemm_can_combine_bias(m, n, k),
                  "matmul_combine_bias outside its fusable regime (m=" << m
                      << ", n=" << n << ", k=" << k << ")");
  gemm_blocked_t<true>(m, n, KPanels::dense(k),
                       PackA16{a.data(), k, a.precision()},
                       PackB16{b.data(), n, b.precision()}, c.data(), nullptr,
                       /*store_first=*/false, bias.data());
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  check_matmul(a, b, a.shape(0), b.shape(0));
  const std::int64_t k = a.shape(0), m = a.shape(1), n = b.shape(1);
  if (use_blocked_gemm(m, n, k)) {
    // The kernel reads Aᵀ's strips in place (PackAT32): the same values in
    // the same order as a transposed copy, with no [m, k] temporary.
    Tensor c = Tensor::empty({m, n});
    gemm_blocked_t<false>(m, n, KPanels::dense(k), PackAT32{a.data(), m},
                          PackB32{b.data(), n}, c.data(), nullptr,
                          /*store_first=*/true, nullptr);
    return c;
  }
  return matmul_tn_naive(a, b);
}

Tensor matmul_tn(const Tensor& a, const Tensor& b,
                 std::span<const std::int64_t> b_rows) {
  check_matmul(a, b, a.shape(0), b.shape(0));
  const std::int64_t k = a.shape(0), m = a.shape(1), n = b.shape(1);
  if (!skip_pays(static_cast<std::int64_t>(b_rows.size()), k) ||
      !use_blocked_gemm(m, n, k)) {
    return matmul_tn(a, b);
  }
  // Each k-panel contracts its listed rows only, in their order, from the
  // same +0 start, so every panel sum equals the dense one (see the
  // header); a panel with no listed row contributes nothing.
  const KPanels panels = KPanels::of_rows(b_rows);
  Tensor c = Tensor::empty({m, n});
  if (panels.count() == 0) {
    c.zero_();
    return c;
  }
  gemm_blocked_t<false>(m, n, panels, PackAT32{a.data(), m, b_rows.data()},
                        PackB32{b.data(), n, b_rows.data()}, c.data(),
                        nullptr, /*store_first=*/true, nullptr);
  return c;
}

Tensor matmul_tn_naive(const Tensor& a, const Tensor& b) {
  check_matmul(a, b, a.shape(0), b.shape(0));
  const std::int64_t k = a.shape(0), m = a.shape(1), n = b.shape(1);
  Tensor c = Tensor::zeros({m, n});
  const float* __restrict__ pa = a.data();
  const float* __restrict__ pb = b.data();
  float* __restrict__ pc = c.data();
  // C[i,j] = sum_kk A[kk,i] * B[kk,j]. Parallelising over kk would race on
  // C, so split output rows across threads and stream over kk.
#pragma omp parallel for schedule(static) if (m >= kParallelRowThreshold)
  for (std::int64_t i = 0; i < m; ++i) {
    float* __restrict__ crow = pc + i * n;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float aval = pa[kk * m + i];
#pragma omp simd
      for (std::int64_t j = 0; j < n; ++j) crow[j] += aval * pb[kk * n + j];
    }
  }
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  check_matmul(a, b, a.shape(1), b.shape(1));
  const std::int64_t m = a.shape(0), k = a.shape(1), n = b.shape(0);
  if (use_blocked_gemm(m, n, k)) {
    // Bᵀ is gathered straight into the packed panel.
    Tensor c = Tensor::empty({m, n});
    gemm_blocked_t<false>(m, n, KPanels::dense(k), PackA32{a.data(), k},
                          PackBT32{b.data(), k}, c.data(), nullptr,
                          /*store_first=*/true, nullptr);
    return c;
  }
  return matmul_nt_naive(a, b);
}

Tensor matmul_nt(const Tensor& a, const Tensor& b,
                 std::span<const std::int64_t> a_rows) {
  check_matmul(a, b, a.shape(1), b.shape(1));
  const std::int64_t m = a.shape(0), k = a.shape(1), n = b.shape(0);
  const auto live = static_cast<std::int64_t>(a_rows.size());
  if (!skip_pays(live, m) || !use_blocked_gemm(m, n, k)) {
    return matmul_nt(a, b);
  }
  Tensor c = Tensor::empty({m, n});
  float* __restrict__ pc = c.data();
  // The unlisted rows are the +0 a zero row's products sum to. Gap g is
  // the run of rows between listed rows g - 1 and g.
#pragma omp parallel for schedule(static) \
    if ((m - live) * n >= kParallelNumelThreshold)
  for (std::int64_t g = 0; g <= live; ++g) {
    const std::int64_t lo = g == 0 ? 0 : a_rows[g - 1] + 1;
    const std::int64_t hi = g == live ? m : a_rows[g];
    std::fill(pc + lo * n, pc + hi * n, 0.0f);
  }
  if (live > 0) {
    gemm_blocked_t<false>(live, n, KPanels::dense(k),
                          PackA32{a.data(), k, a_rows.data()},
                          PackBT32{b.data(), k}, pc, a_rows.data(),
                          /*store_first=*/true, nullptr);
  }
  return c;
}

Tensor matmul_nt_naive(const Tensor& a, const Tensor& b) {
  check_matmul(a, b, a.shape(1), b.shape(1));
  const std::int64_t m = a.shape(0), k = a.shape(1), n = b.shape(0);
  Tensor c = Tensor::empty({m, n});
  const float* __restrict__ pa = a.data();
  const float* __restrict__ pb = b.data();
  float* __restrict__ pc = c.data();
#pragma omp parallel for schedule(static) if (m >= kParallelRowThreshold)
  for (std::int64_t i = 0; i < m; ++i) {
    const float* __restrict__ arow = pa + i * k;
    float* __restrict__ crow = pc + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      const float* __restrict__ brow = pb + j * k;
      float acc = 0.0f;
#pragma omp simd reduction(+ : acc)
      for (std::int64_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      crow[j] = acc;
    }
  }
  return c;
}

RowSupport row_support(const Tensor& a) {
  GSOUP_CHECK_MSG(a.rank() == 2, "row_support requires rank-2");
  const std::int64_t m = a.shape(0), n = a.shape(1);
  RowSupport s;
  s.mask.resize(static_cast<std::size_t>(m));
  const float* __restrict__ pa = a.data();
  std::uint8_t* __restrict__ pm = s.mask.data();
  // Each row is one vectorised compare-and-or over the whole row (NaN
  // counts, −0 == 0); an early exit per element measured 3-5x slower on
  // gradients that are mostly zero rows.
#pragma omp parallel for schedule(static) \
    if (m * n >= kParallelNumelThreshold)
  for (std::int64_t i = 0; i < m; ++i) {
    const float* __restrict__ row = pa + i * n;
    int nonzero = 0;
    for (std::int64_t j = 0; j < n; ++j) nonzero |= row[j] != 0.0f;
    pm[i] = static_cast<std::uint8_t>(nonzero);
  }
  s.rows.reserve(static_cast<std::size_t>(std::count(pm, pm + m, 1)));
  for (std::int64_t i = 0; i < m; ++i) {
    if (pm[i] != 0) s.rows.push_back(i);
  }
  return s;
}

Tensor transpose(const Tensor& a) {
  GSOUP_CHECK_MSG(a.rank() == 2, "transpose requires rank-2");
  const std::int64_t m = a.shape(0), n = a.shape(1);
  Tensor t = Tensor::empty({n, m});
  const float* __restrict__ pa = a.data();
  float* __restrict__ pt = t.data();
  // Square tiles keep both the read rows and the (strided) write rows
  // cache-resident; parallel over tile rows.
#pragma omp parallel for schedule(static) \
    if (m >= kParallelRowThreshold && m * n >= kParallelNumelThreshold)
  for (std::int64_t i0 = 0; i0 < m; i0 += kTransposeTile) {
    const std::int64_t ilim = std::min(m, i0 + kTransposeTile);
    for (std::int64_t j0 = 0; j0 < n; j0 += kTransposeTile) {
      const std::int64_t jlim = std::min(n, j0 + kTransposeTile);
      for (std::int64_t i = i0; i < ilim; ++i)
        for (std::int64_t j = j0; j < jlim; ++j) pt[j * m + i] = pa[i * n + j];
    }
  }
  return t;
}

Tensor add(const Tensor& a, const Tensor& b) {
  GSOUP_CHECK_MSG(same_shape(a, b), "add shape mismatch");
  Tensor c = a.clone();
  c.add_(b);
  return c;
}

Tensor add_row_broadcast(const Tensor& a, const Tensor& bias) {
  Tensor c = Tensor::empty(a.shape());
  combine_bias_act_into(a, nullptr, &bias, Activation::kNone, c);
  return c;
}

namespace {

/// (a + b) + bias at column j of one row, in the chain's order.
template <bool kHasB, bool kHasBias>
inline float combined(const float* arow, const float* brow,
                      const float* pbias, std::int64_t j) {
  float x = arow[j];
  if constexpr (kHasB) x = x + brow[j];
  if constexpr (kHasBias) x = x + pbias[j];
  return x;
}

/// The epilogue. No __restrict__: `po` may be `pa`, and each element is
/// read before it is written. ELU stores the pre-activations in the
/// vector pass and applies itself in a second, scalar pass: expm1 is a
/// call, and a branch per element skips it for x > 0. Folding the adds
/// into that pass made each mispredicted sign branch wait on them, and
/// short per-row loops around the call cost more again: both measured
/// 3-8% slower than the two flat passes at 20000 x 64.
template <Activation kAct, bool kHasB, bool kHasBias>
void combine_rows(const float* pa, const float* pb, const float* pbias,
                  float* po, std::int64_t m, std::int64_t n) {
#pragma omp parallel for schedule(static) \
    if (m * n >= kParallelNumelThreshold)
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = pa + i * n;
    const float* brow = kHasB ? pb + i * n : nullptr;
    float* orow = po + i * n;
#pragma omp simd
    for (std::int64_t j = 0; j < n; ++j) {
      const float x = combined<kHasB, kHasBias>(arow, brow, pbias, j);
      orow[j] = kAct == Activation::kRelu ? (x > 0.0f ? x : 0.0f) : x;
    }
  }
  if constexpr (kAct == Activation::kElu) {
    const std::int64_t total = m * n;
#pragma omp parallel for schedule(static) if (total >= kParallelNumelThreshold)
    for (std::int64_t k = 0; k < total; ++k) {
      const float x = po[k];
      po[k] = x > 0.0f ? x : std::expm1(x);
    }
  }
}

template <Activation kAct>
void combine_rows(const float* pa, const float* pb, const float* pbias,
                  float* po, std::int64_t m, std::int64_t n) {
  if (pb != nullptr && pbias != nullptr) {
    combine_rows<kAct, true, true>(pa, pb, pbias, po, m, n);
  } else if (pb != nullptr) {
    combine_rows<kAct, true, false>(pa, pb, pbias, po, m, n);
  } else if (pbias != nullptr) {
    combine_rows<kAct, false, true>(pa, pb, pbias, po, m, n);
  } else {
    combine_rows<kAct, false, false>(pa, pb, pbias, po, m, n);
  }
}

}  // namespace

void combine_bias_act_into(const Tensor& a, const Tensor* b,
                           const Tensor* bias, Activation act, Tensor& out) {
  GSOUP_CHECK_MSG(a.rank() == 2 && same_shape(a, out),
                  "combine_bias_act: operand " << a.shape_str()
                                               << " vs output "
                                               << out.shape_str());
  GSOUP_CHECK_MSG(b == nullptr || same_shape(a, *b),
                  "combine_bias_act: addend " << b->shape_str() << " vs "
                                              << a.shape_str());
  const std::int64_t m = a.shape(0), n = a.shape(1);
  GSOUP_CHECK_MSG(bias == nullptr || (bias->rank() == 1 &&
                                      bias->shape(0) == n),
                  "combine_bias_act: bias " << bias->shape_str()
                                            << " vs matrix "
                                            << a.shape_str());
  const float* pb = b != nullptr ? b->data() : nullptr;
  const float* pbias = bias != nullptr ? bias->data() : nullptr;
  switch (act) {
    case Activation::kNone:
      combine_rows<Activation::kNone>(a.data(), pb, pbias, out.data(), m, n);
      break;
    case Activation::kRelu:
      combine_rows<Activation::kRelu>(a.data(), pb, pbias, out.data(), m, n);
      break;
    case Activation::kElu:
      combine_rows<Activation::kElu>(a.data(), pb, pbias, out.data(), m, n);
      break;
  }
}

Tensor mul(const Tensor& a, const Tensor& b) {
  GSOUP_CHECK_MSG(same_shape(a, b), "mul shape mismatch");
  Tensor c = Tensor::empty(a.shape());
  const float* __restrict__ pa = a.data();
  const float* __restrict__ pb = b.data();
  float* __restrict__ pc = c.data();
  const std::int64_t n = a.numel();
#pragma omp parallel for simd schedule(static) \
    if (n >= kParallelNumelThreshold)
  for (std::int64_t i = 0; i < n; ++i) pc[i] = pa[i] * pb[i];
  return c;
}

Tensor scale(const Tensor& a, float s) {
  Tensor c = a.clone();
  c.mul_(s);
  return c;
}

Tensor relu(const Tensor& a) {
  Tensor c = Tensor::empty(a.shape());
  const float* __restrict__ pa = a.data();
  float* __restrict__ pc = c.data();
  const std::int64_t n = a.numel();
#pragma omp parallel for simd schedule(static) \
    if (n >= kParallelNumelThreshold)
  for (std::int64_t i = 0; i < n; ++i) pc[i] = pa[i] > 0.0f ? pa[i] : 0.0f;
  return c;
}

Tensor elu(const Tensor& a) {
  Tensor c = Tensor::empty(a.shape());
  const float* __restrict__ pa = a.data();
  float* __restrict__ pc = c.data();
  const std::int64_t n = a.numel();
#pragma omp parallel for schedule(static) if (n >= kParallelNumelThreshold)
  for (std::int64_t i = 0; i < n; ++i)
    pc[i] = pa[i] > 0.0f ? pa[i] : std::expm1(pa[i]);
  return c;
}

Tensor leaky_relu(const Tensor& a, float slope) {
  Tensor c = Tensor::empty(a.shape());
  const float* __restrict__ pa = a.data();
  float* __restrict__ pc = c.data();
  const std::int64_t n = a.numel();
#pragma omp parallel for simd schedule(static) \
    if (n >= kParallelNumelThreshold)
  for (std::int64_t i = 0; i < n; ++i)
    pc[i] = pa[i] > 0.0f ? pa[i] : slope * pa[i];
  return c;
}

namespace {

// Chunk width for the compensated reductions. Fixed chunk boundaries make
// the result independent of the thread count.
constexpr std::int64_t kReductionChunk = 1 << 12;

/// Kahan-combine pre-computed per-chunk partials (serial, deterministic).
double kahan_combine(const std::vector<double>& partials) {
  double s = 0.0, comp = 0.0;
  for (const double p : partials) {
    const double y = p - comp;
    const double t = s + y;
    comp = (t - s) - y;
    s = t;
  }
  return s;
}

}  // namespace

float sum(const Tensor& a) {
  // Chunked compensated reduction: each fixed 4096-element chunk is summed
  // in double (vectorized, parallel), then chunk partials combine serially
  // with Kahan compensation — deterministic for any thread count.
  const float* __restrict__ pa = a.data();
  const std::int64_t n = a.numel();
  const std::int64_t nchunks = (n + kReductionChunk - 1) / kReductionChunk;
  if (nchunks <= 1) {
    double acc = 0.0;
#pragma omp simd reduction(+ : acc)
    for (std::int64_t i = 0; i < n; ++i) acc += pa[i];
    return static_cast<float>(acc);
  }
  std::vector<double> partials(static_cast<std::size_t>(nchunks));
#pragma omp parallel for schedule(static) if (n >= kParallelNumelThreshold)
  for (std::int64_t c = 0; c < nchunks; ++c) {
    const std::int64_t lo = c * kReductionChunk;
    const std::int64_t hi = std::min(n, lo + kReductionChunk);
    double acc = 0.0;
#pragma omp simd reduction(+ : acc)
    for (std::int64_t i = lo; i < hi; ++i) acc += pa[i];
    partials[static_cast<std::size_t>(c)] = acc;
  }
  return static_cast<float>(kahan_combine(partials));
}

float dot(const Tensor& a, const Tensor& b) {
  GSOUP_CHECK_MSG(a.numel() == b.numel(), "dot numel mismatch");
  // Same chunked compensated scheme as sum(): double accumulation within
  // fixed chunks, Kahan across chunk partials.
  const float* __restrict__ pa = a.data();
  const float* __restrict__ pb = b.data();
  const std::int64_t n = a.numel();
  const std::int64_t nchunks = (n + kReductionChunk - 1) / kReductionChunk;
  if (nchunks <= 1) {
    double acc = 0.0;
#pragma omp simd reduction(+ : acc)
    for (std::int64_t i = 0; i < n; ++i)
      acc += static_cast<double>(pa[i]) * pb[i];
    return static_cast<float>(acc);
  }
  std::vector<double> partials(static_cast<std::size_t>(nchunks));
#pragma omp parallel for schedule(static) if (n >= kParallelNumelThreshold)
  for (std::int64_t c = 0; c < nchunks; ++c) {
    const std::int64_t lo = c * kReductionChunk;
    const std::int64_t hi = std::min(n, lo + kReductionChunk);
    double acc = 0.0;
#pragma omp simd reduction(+ : acc)
    for (std::int64_t i = lo; i < hi; ++i)
      acc += static_cast<double>(pa[i]) * pb[i];
    partials[static_cast<std::size_t>(c)] = acc;
  }
  return static_cast<float>(kahan_combine(partials));
}

Tensor row_softmax(const Tensor& a) {
  GSOUP_CHECK_MSG(a.rank() == 2, "row_softmax requires rank-2");
  const std::int64_t m = a.shape(0), n = a.shape(1);
  Tensor c = Tensor::empty({m, n});
  const float* __restrict__ pa = a.data();
  float* __restrict__ pc = c.data();
#pragma omp parallel for schedule(static) if (m >= kParallelRowThreshold)
  for (std::int64_t i = 0; i < m; ++i) {
    const float* row = pa + i * n;
    float* out = pc + i * n;
    float mx = -std::numeric_limits<float>::infinity();
    for (std::int64_t j = 0; j < n; ++j) mx = std::max(mx, row[j]);
    float denom = 0.0f;
    for (std::int64_t j = 0; j < n; ++j) {
      out[j] = std::exp(row[j] - mx);
      denom += out[j];
    }
    const float inv = 1.0f / denom;
#pragma omp simd
    for (std::int64_t j = 0; j < n; ++j) out[j] *= inv;
  }
  return c;
}

Tensor row_log_softmax(const Tensor& a) {
  GSOUP_CHECK_MSG(a.rank() == 2, "row_log_softmax requires rank-2");
  const std::int64_t m = a.shape(0), n = a.shape(1);
  Tensor c = Tensor::empty({m, n});
  const float* __restrict__ pa = a.data();
  float* __restrict__ pc = c.data();
#pragma omp parallel for schedule(static) if (m >= kParallelRowThreshold)
  for (std::int64_t i = 0; i < m; ++i) {
    const float* row = pa + i * n;
    float* out = pc + i * n;
    float mx = -std::numeric_limits<float>::infinity();
    for (std::int64_t j = 0; j < n; ++j) mx = std::max(mx, row[j]);
    float denom = 0.0f;
    for (std::int64_t j = 0; j < n; ++j) denom += std::exp(row[j] - mx);
    const float log_denom = std::log(denom) + mx;
#pragma omp simd
    for (std::int64_t j = 0; j < n; ++j) out[j] = row[j] - log_denom;
  }
  return c;
}

std::vector<std::int64_t> row_argmax(const Tensor& a) {
  GSOUP_CHECK_MSG(a.rank() == 2, "row_argmax requires rank-2");
  const std::int64_t m = a.shape(0), n = a.shape(1);
  std::vector<std::int64_t> out(static_cast<std::size_t>(m));
  const float* pa = a.data();
#pragma omp parallel for schedule(static) if (m >= kParallelRowThreshold)
  for (std::int64_t i = 0; i < m; ++i) {
    const float* row = pa + i * n;
    std::int64_t best = 0;
    for (std::int64_t j = 1; j < n; ++j)
      if (row[j] > row[best]) best = j;
    out[static_cast<std::size_t>(i)] = best;
  }
  return out;
}

Tensor vec_softmax(const Tensor& a) {
  GSOUP_CHECK_MSG(a.rank() == 1, "vec_softmax requires rank-1");
  const std::int64_t n = a.shape(0);
  Tensor c = Tensor::empty({n});
  const float* pa = a.data();
  float* pc = c.data();
  float mx = -std::numeric_limits<float>::infinity();
  for (std::int64_t j = 0; j < n; ++j) mx = std::max(mx, pa[j]);
  float denom = 0.0f;
  for (std::int64_t j = 0; j < n; ++j) {
    pc[j] = std::exp(pa[j] - mx);
    denom += pc[j];
  }
  const float inv = 1.0f / denom;
  for (std::int64_t j = 0; j < n; ++j) pc[j] *= inv;
  return c;
}

void per_head_dot_into(const Tensor& x, const Tensor& a, std::int64_t heads,
                       Tensor& out) {
  GSOUP_CHECK_MSG(x.rank() == 2 && a.rank() == 1 &&
                      x.shape(1) == a.shape(0) && heads >= 1 &&
                      x.shape(1) % heads == 0,
                  "per_head_dot_into: bad shapes " << x.shape_str() << " / "
                                                   << a.shape_str());
  const std::int64_t n = x.shape(0);
  const std::int64_t d = x.shape(1) / heads;
  GSOUP_CHECK_MSG(out.rank() == 2 && out.shape(0) == n &&
                      out.shape(1) == heads,
                  "per_head_dot_into: bad output shape " << out.shape_str());
  const float* __restrict__ px = x.data();
  const float* __restrict__ pa = a.data();
  float* __restrict__ po = out.data();
#pragma omp parallel for schedule(static) if (n >= 256)
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t h = 0; h < heads; ++h) {
      const float* xrow = px + i * heads * d + h * d;
      const float* arow = pa + h * d;
      float acc = 0.0f;
      for (std::int64_t j = 0; j < d; ++j) acc += xrow[j] * arow[j];
      po[i * heads + h] = acc;
    }
  }
}

namespace {

template <typename Idx>
void gather_rows_into_impl(const Tensor& src, std::span<const Idx> row_ids,
                           Tensor& out) {
  GSOUP_CHECK_MSG(src.rank() == 2 && out.rank() == 2 &&
                      out.shape(1) == src.shape(1) &&
                      out.shape(0) ==
                          static_cast<std::int64_t>(row_ids.size()),
                  "gather_rows_into: bad shapes " << src.shape_str() << " / "
                                                  << out.shape_str());
  const std::int64_t d = src.shape(1);
  const std::int64_t m = out.shape(0);
  const float* __restrict__ ps = src.data();
  float* __restrict__ pd = out.data();
#pragma omp parallel for schedule(static) \
    if (m * d >= kParallelNumelThreshold)
  for (std::int64_t i = 0; i < m; ++i) {
    GSOUP_DCHECK(row_ids[static_cast<std::size_t>(i)] >= 0 &&
                 row_ids[static_cast<std::size_t>(i)] < src.shape(0));
    std::memcpy(pd + i * d,
                ps + static_cast<std::int64_t>(
                         row_ids[static_cast<std::size_t>(i)]) *
                         d,
                static_cast<std::size_t>(d) * sizeof(float));
  }
}

template <typename Idx>
void gather_rows_into_half_impl(const HalfBuffer& src,
                                std::span<const Idx> row_ids, Tensor& out) {
  GSOUP_CHECK_MSG(src.rank() == 2 && out.rank() == 2 &&
                      out.shape(1) == src.shape(1) &&
                      out.shape(0) ==
                          static_cast<std::int64_t>(row_ids.size()),
                  "gather_rows_into: bad shapes " << src.shape_str() << " / "
                                                  << out.shape_str());
  const std::int64_t d = src.shape(1);
  const std::int64_t m = out.shape(0);
  const std::uint16_t* __restrict__ ps = src.data();
  float* __restrict__ pd = out.data();
  const Precision prec = src.precision();
  // The memcpy of the fp32 gather becomes a bulk row widen — same traffic
  // shape, half the bytes read.
#pragma omp parallel for schedule(static) \
    if (m * d >= kParallelNumelThreshold)
  for (std::int64_t i = 0; i < m; ++i) {
    GSOUP_DCHECK(row_ids[static_cast<std::size_t>(i)] >= 0 &&
                 row_ids[static_cast<std::size_t>(i)] < src.shape(0));
    half::widen(ps + static_cast<std::int64_t>(
                         row_ids[static_cast<std::size_t>(i)]) *
                         d,
                pd + i * d, d, prec);
  }
}

template <typename Idx>
void gather_rows_into_h2h_impl(const HalfBuffer& src,
                               std::span<const Idx> row_ids,
                               HalfBuffer& out) {
  GSOUP_CHECK_MSG(src.rank() == 2 && out.rank() == 2 &&
                      out.shape(1) == src.shape(1) &&
                      out.shape(0) ==
                          static_cast<std::int64_t>(row_ids.size()) &&
                      out.precision() == src.precision(),
                  "gather_rows_into: bad shapes " << src.shape_str() << " / "
                                                  << out.shape_str());
  const std::int64_t d = src.shape(1);
  const std::int64_t m = out.shape(0);
  const std::uint16_t* __restrict__ ps = src.data();
  std::uint16_t* __restrict__ pd = out.data();
#pragma omp parallel for schedule(static) \
    if (m * d >= kParallelNumelThreshold)
  for (std::int64_t i = 0; i < m; ++i) {
    GSOUP_DCHECK(row_ids[static_cast<std::size_t>(i)] >= 0 &&
                 row_ids[static_cast<std::size_t>(i)] < src.shape(0));
    std::memcpy(pd + i * d,
                ps + static_cast<std::int64_t>(
                         row_ids[static_cast<std::size_t>(i)]) *
                         d,
                static_cast<std::size_t>(d) * sizeof(std::uint16_t));
  }
}

}  // namespace

void gather_rows_into(const Tensor& src,
                      std::span<const std::int32_t> row_ids, Tensor& out) {
  gather_rows_into_impl(src, row_ids, out);
}

void gather_rows_into(const Tensor& src,
                      std::span<const std::int64_t> row_ids, Tensor& out) {
  gather_rows_into_impl(src, row_ids, out);
}

void gather_rows_into(const HalfBuffer& src,
                      std::span<const std::int32_t> row_ids, Tensor& out) {
  gather_rows_into_half_impl(src, row_ids, out);
}

void gather_rows_into(const HalfBuffer& src,
                      std::span<const std::int64_t> row_ids, Tensor& out) {
  gather_rows_into_half_impl(src, row_ids, out);
}

void gather_rows_into(const HalfBuffer& src,
                      std::span<const std::int32_t> row_ids,
                      HalfBuffer& out) {
  gather_rows_into_h2h_impl(src, row_ids, out);
}

void gather_rows_into(const HalfBuffer& src,
                      std::span<const std::int64_t> row_ids,
                      HalfBuffer& out) {
  gather_rows_into_h2h_impl(src, row_ids, out);
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  GSOUP_CHECK_MSG(same_shape(a, b), "max_abs_diff shape mismatch");
  float mx = 0.0f;
  const float* pa = a.data();
  const float* pb = b.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i)
    mx = std::max(mx, std::abs(pa[i] - pb[i]));
  return mx;
}

bool all_finite(const Tensor& a) {
  const float* pa = a.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i)
    if (!std::isfinite(pa[i])) return false;
  return true;
}

}  // namespace gsoup::ops
