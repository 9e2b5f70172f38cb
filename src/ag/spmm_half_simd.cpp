// See spmm_half_simd.hpp. This TU is compiled with AVX2+F16C enabled
// (portable builds pass -mavx2 -mf16c for this file only); everything
// here is unreachable unless available() returned true.

#include "ag/spmm_half_simd.hpp"

#include "util/check.hpp"

#if defined(__AVX2__) && defined(__F16C__)

#include <immintrin.h>

#include <cmath>

namespace gsoup::ag::halfsimd {

namespace {

// Mirrors graph_ops.cpp's prefetch schedule; a half row packs twice the
// elements per cache line, so half the line touches.
constexpr std::int64_t kPrefetchDist = 12;

template <int D>
inline void prefetch_half_row(const std::uint16_t* p) {
  constexpr int kPerLine = 32;
  __builtin_prefetch(p, 0, 3);
  if constexpr (D > kPerLine) __builtin_prefetch(p + kPerLine, 0, 3);
  if constexpr (D > 2 * kPerLine) {
    __builtin_prefetch(p + 2 * kPerLine, 0, 3);
    __builtin_prefetch(p + 3 * kPerLine, 0, 3);
  }
}

/// Widen 8 stored elements to an fp32 lane. fp16 is one vcvtph2ps —
/// bit-exact to the scalar codec (tests/test_half.cpp asserts this over
/// every pattern); bf16 is a zero-extend + shift, exact by construction.
template <Precision P>
inline __m256 widen8(const std::uint16_t* p) {
  if constexpr (P == Precision::kFp16) {
    return _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  } else {
    const __m256i wide = _mm256_cvtepu16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
    return _mm256_castsi256_ps(_mm256_slli_epi32(wide, 16));
  }
}

/// acc += w * x per lane, matching the contraction the compiler gives
/// the fp32 kernels' `acc[j] += w * x[j]` loops in this build: fused
/// when FMA is enabled (-march=native), separate round-twice mul+add
/// otherwise (portable). Bit-parity with the fp32 twin depends on this.
inline __m256 fma8(__m256 acc, __m256 w, __m256 x) {
#ifdef __FMA__
  return _mm256_fmadd_ps(w, x, acc);
#else
  return _mm256_add_ps(acc, _mm256_mul_ps(w, x));
#endif
}

inline float fma1(float acc, float w, float x) {
#ifdef __FMA__
  return std::fma(w, x, acc);
#else
  return acc + w * x;
#endif
}

/// Fixed-width row kernel: the intrinsic mirror of spmm_rows_fixed —
/// same short-row accumulate fast path, same dual-accumulator edge
/// pairing, same merge — with D/8 __m256 lanes per accumulator.
template <int D, Precision P, bool Overwrite, typename Idx>
void rows_fixed(const std::int64_t* __restrict__ indptr,
                const Idx* __restrict__ indices,
                const float* __restrict__ values,
                const std::uint16_t* __restrict__ px, float* __restrict__ py,
                std::int64_t num_edges, std::int64_t lo, std::int64_t hi) {
  constexpr int V = D / 8;
  for (std::int64_t i = lo; i < hi; ++i) {
    const std::int64_t begin = indptr[i], end = indptr[i + 1];
    float* __restrict__ yrow = py + i * D;
    if constexpr (!Overwrite) {
      if (end - begin <= 4) {
        __m256 acc[V];
        for (int v = 0; v < V; ++v) acc[v] = _mm256_loadu_ps(yrow + 8 * v);
        for (std::int64_t e = begin; e < end; ++e) {
          if (e + kPrefetchDist < num_edges) {
            prefetch_half_row<D>(
                px + static_cast<std::int64_t>(indices[e + kPrefetchDist]) *
                         D);
          }
          const __m256 w = _mm256_set1_ps(values[e]);
          const std::uint16_t* __restrict__ xrow =
              px + static_cast<std::int64_t>(indices[e]) * D;
          for (int v = 0; v < V; ++v) {
            acc[v] = fma8(acc[v], w, widen8<P>(xrow + 8 * v));
          }
        }
        for (int v = 0; v < V; ++v) _mm256_storeu_ps(yrow + 8 * v, acc[v]);
        continue;
      }
    }
    __m256 acc0[V], acc1[V];
    for (int v = 0; v < V; ++v) acc1[v] = _mm256_setzero_ps();
    if constexpr (Overwrite) {
      for (int v = 0; v < V; ++v) acc0[v] = _mm256_setzero_ps();
    } else {
      for (int v = 0; v < V; ++v) acc0[v] = _mm256_loadu_ps(yrow + 8 * v);
    }
    std::int64_t e = begin;
    for (; e + 1 < end; e += 2) {
      if (e + kPrefetchDist + 1 < num_edges) {
        prefetch_half_row<D>(
            px + static_cast<std::int64_t>(indices[e + kPrefetchDist]) * D);
        prefetch_half_row<D>(
            px +
            static_cast<std::int64_t>(indices[e + kPrefetchDist + 1]) * D);
      }
      const __m256 w0 = _mm256_set1_ps(values[e]);
      const __m256 w1 = _mm256_set1_ps(values[e + 1]);
      const std::uint16_t* __restrict__ x0 =
          px + static_cast<std::int64_t>(indices[e]) * D;
      const std::uint16_t* __restrict__ x1 =
          px + static_cast<std::int64_t>(indices[e + 1]) * D;
      for (int v = 0; v < V; ++v) {
        acc0[v] = fma8(acc0[v], w0, widen8<P>(x0 + 8 * v));
        acc1[v] = fma8(acc1[v], w1, widen8<P>(x1 + 8 * v));
      }
    }
    if (e < end) {
      const __m256 w = _mm256_set1_ps(values[e]);
      const std::uint16_t* __restrict__ xrow =
          px + static_cast<std::int64_t>(indices[e]) * D;
      for (int v = 0; v < V; ++v) {
        acc0[v] = fma8(acc0[v], w, widen8<P>(xrow + 8 * v));
      }
    }
    for (int v = 0; v < V; ++v) {
      _mm256_storeu_ps(yrow + 8 * v, _mm256_add_ps(acc0[v], acc1[v]));
    }
  }
}

/// Width-generic fallback in the order of graph_ops.cpp's register row
/// accumulator (each element starts from 0 or y and adds w·x per edge in
/// edge order), but accumulating straight into the output row: vector
/// main loop + scalar tail, one read-modify-write of the row per edge.
template <Precision P, bool Overwrite, typename Idx>
void rows_generic(const std::int64_t* __restrict__ indptr,
                  const Idx* __restrict__ indices,
                  const float* __restrict__ values,
                  const std::uint16_t* __restrict__ px,
                  float* __restrict__ py, std::int64_t d, std::int64_t lo,
                  std::int64_t hi) {
  const std::int64_t dv = d & ~std::int64_t{7};
  for (std::int64_t i = lo; i < hi; ++i) {
    float* __restrict__ yrow = py + i * d;
    if constexpr (Overwrite) {
      for (std::int64_t j = 0; j < dv; j += 8) {
        _mm256_storeu_ps(yrow + j, _mm256_setzero_ps());
      }
      for (std::int64_t j = dv; j < d; ++j) yrow[j] = 0.0f;
    }
    for (std::int64_t e = indptr[i]; e < indptr[i + 1]; ++e) {
      const float wv = values[e];
      const __m256 w = _mm256_set1_ps(wv);
      const std::uint16_t* __restrict__ xrow =
          px + static_cast<std::int64_t>(indices[e]) * d;
      for (std::int64_t j = 0; j < dv; j += 8) {
        _mm256_storeu_ps(
            yrow + j, fma8(_mm256_loadu_ps(yrow + j), w, widen8<P>(xrow + j)));
      }
      for (std::int64_t j = dv; j < d; ++j) {
        yrow[j] = fma1(yrow[j], wv, half::widen_one(xrow[j], P));
      }
    }
  }
}

template <Precision P, bool Overwrite, typename Idx>
void rows_dispatch(const std::int64_t* indptr, const Idx* indices,
                   const float* values, const std::uint16_t* px, float* py,
                   std::int64_t d, std::int64_t num_edges, std::int64_t lo,
                   std::int64_t hi) {
  switch (d) {
    case 8:
      rows_fixed<8, P, Overwrite, Idx>(indptr, indices, values, px, py,
                                       num_edges, lo, hi);
      return;
    case 16:
      rows_fixed<16, P, Overwrite, Idx>(indptr, indices, values, px, py,
                                        num_edges, lo, hi);
      return;
    case 32:
      rows_fixed<32, P, Overwrite, Idx>(indptr, indices, values, px, py,
                                        num_edges, lo, hi);
      return;
    case 64:
      rows_fixed<64, P, Overwrite, Idx>(indptr, indices, values, px, py,
                                        num_edges, lo, hi);
      return;
    case 128:
      rows_fixed<128, P, Overwrite, Idx>(indptr, indices, values, px, py,
                                         num_edges, lo, hi);
      return;
    default:
      rows_generic<P, Overwrite, Idx>(indptr, indices, values, px, py, d, lo,
                                      hi);
  }
}

template <typename Idx>
void rows_entry(const std::int64_t* indptr, const Idx* indices,
                const float* values, const std::uint16_t* px, float* py,
                std::int64_t d, std::int64_t num_edges, std::int64_t lo,
                std::int64_t hi, Precision prec, bool overwrite) {
  if (prec == Precision::kFp16) {
    if (overwrite) {
      rows_dispatch<Precision::kFp16, true, Idx>(indptr, indices, values, px,
                                                 py, d, num_edges, lo, hi);
    } else {
      rows_dispatch<Precision::kFp16, false, Idx>(indptr, indices, values, px,
                                                  py, d, num_edges, lo, hi);
    }
  } else {
    if (overwrite) {
      rows_dispatch<Precision::kBf16, true, Idx>(indptr, indices, values, px,
                                                 py, d, num_edges, lo, hi);
    } else {
      rows_dispatch<Precision::kBf16, false, Idx>(indptr, indices, values, px,
                                                  py, d, num_edges, lo, hi);
    }
  }
}

}  // namespace

bool available() {
  static const bool ok = __builtin_cpu_supports("avx2") &&
                         __builtin_cpu_supports("f16c");
  return ok;
}

void spmm_rows_half(const std::int64_t* indptr, const std::int32_t* indices,
                    const float* values, const std::uint16_t* px, float* py,
                    std::int64_t d, std::int64_t num_edges, std::int64_t lo,
                    std::int64_t hi, Precision prec, bool overwrite) {
  rows_entry(indptr, indices, values, px, py, d, num_edges, lo, hi, prec,
             overwrite);
}

void spmm_rows_half(const std::int64_t* indptr, const std::uint16_t* indices,
                    const float* values, const std::uint16_t* px, float* py,
                    std::int64_t d, std::int64_t num_edges, std::int64_t lo,
                    std::int64_t hi, Precision prec, bool overwrite) {
  rows_entry(indptr, indices, values, px, py, d, num_edges, lo, hi, prec,
             overwrite);
}

}  // namespace gsoup::ag::halfsimd

#else  // !(__AVX2__ && __F16C__): non-x86 target or flags not applied.

namespace gsoup::ag::halfsimd {

bool available() { return false; }

void spmm_rows_half(const std::int64_t*, const std::int32_t*, const float*,
                    const std::uint16_t*, float*, std::int64_t, std::int64_t,
                    std::int64_t, std::int64_t, Precision, bool) {
  GSOUP_CHECK_MSG(false, "halfsimd kernels not compiled into this binary");
}

void spmm_rows_half(const std::int64_t*, const std::uint16_t*, const float*,
                    const std::uint16_t*, float*, std::int64_t, std::int64_t,
                    std::int64_t, std::int64_t, Precision, bool) {
  GSOUP_CHECK_MSG(false, "halfsimd kernels not compiled into this binary");
}

}  // namespace gsoup::ag::halfsimd

#endif
