// AVX2 build of the blocked-GEMM micro-kernel. This TU is the only one
// compiled with -mavx2 in portable (-DGSOUP_NATIVE=OFF) builds — CMake
// sets the flag per-source — and its entry points are guarded by a
// runtime CPUID check, so the library still runs on pre-AVX2 machines
// (where the baseline SSE2 build of the same kernel in ops.cpp serves
// every tile). FMA is deliberately NOT enabled: the autovectorized
// multiply-then-add sequence keeps the exact per-element rounding of the
// baseline kernel, so dispatching here never changes a result bit — it
// only widens the vectors. In -march=native builds the whole library
// (this TU included) shares one ISA and one contraction policy, so the
// same single-kernel-per-element property holds there too.

#include "tensor/gemm_micro_avx2.hpp"

#include "tensor/gemm_micro.hpp"
#include "util/check.hpp"

#if defined(__AVX2__)

namespace gsoup::ops::gemmsimd {

bool available() {
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
}

void full(std::int64_t kc, const float* a, std::int64_t lda, std::int64_t ldp,
          const float* bp, std::int64_t ldb, float* c, std::int64_t ldc) {
  detail::micro_kernel_full<detail::TileOp::kAdd>(kc, a, lda, ldp, bp, ldb, c,
                                                 ldc, nullptr);
}

void full_store(std::int64_t kc, const float* a, std::int64_t lda,
                std::int64_t ldp, const float* bp, std::int64_t ldb, float* c,
                std::int64_t ldc) {
  detail::micro_kernel_full<detail::TileOp::kStore>(kc, a, lda, ldp, bp, ldb,
                                                   c, ldc, nullptr);
}

void full_bias(std::int64_t kc, const float* a, std::int64_t lda,
               std::int64_t ldp, const float* bp, std::int64_t ldb, float* c,
               std::int64_t ldc, const float* bias) {
  detail::micro_kernel_full<detail::TileOp::kCombineBias>(
      kc, a, lda, ldp, bp, ldb, c, ldc, bias);
}

}  // namespace gsoup::ops::gemmsimd

#else  // !__AVX2__: the toolchain refused the flag; stub out.

namespace gsoup::ops::gemmsimd {

bool available() { return false; }

void full(std::int64_t, const float*, std::int64_t, std::int64_t,
          const float*, std::int64_t, float*, std::int64_t) {
  GSOUP_CHECK_MSG(false, "gemmsimd::full called without AVX2 support");
}

void full_store(std::int64_t, const float*, std::int64_t, std::int64_t,
                const float*, std::int64_t, float*, std::int64_t) {
  GSOUP_CHECK_MSG(false, "gemmsimd::full_store called without AVX2 support");
}

void full_bias(std::int64_t, const float*, std::int64_t, std::int64_t,
               const float*, std::int64_t, float*, std::int64_t,
               const float*) {
  GSOUP_CHECK_MSG(false, "gemmsimd::full_bias called without AVX2 support");
}

}  // namespace gsoup::ops::gemmsimd

#endif
