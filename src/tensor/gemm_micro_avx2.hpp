#pragma once

#include <cstdint>

namespace gsoup::ops::gemmsimd {

/// True when the AVX2 build of the GEMM micro-kernel can run on this CPU.
/// Cached after the first call.
bool available();

/// AVX2 instantiations of detail::micro_kernel_full — identical source,
/// wider vectors, no FMA, so they are bit-exact drop-ins for the baseline
/// kernel (see gemm_micro.hpp). Callers must have checked available().
void full(std::int64_t kc, const float* a, std::int64_t lda, std::int64_t ldp,
          const float* bp, std::int64_t ldb, float* c, std::int64_t ldc);
void full_store(std::int64_t kc, const float* a, std::int64_t lda,
                std::int64_t ldp, const float* bp, std::int64_t ldb, float* c,
                std::int64_t ldc);
void full_bias(std::int64_t kc, const float* a, std::int64_t lda,
               std::int64_t ldp, const float* bp, std::int64_t ldb, float* c,
               std::int64_t ldc, const float* bias);

}  // namespace gsoup::ops::gemmsimd
