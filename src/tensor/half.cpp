#include "tensor/half.hpp"

#include <sstream>

#include "util/check.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define GSOUP_HALF_F16C_DISPATCH 1
#include <immintrin.h>
#else
#define GSOUP_HALF_F16C_DISPATCH 0
#endif

namespace gsoup {

const char* precision_name(Precision p) {
  switch (p) {
    case Precision::kFp32: return "fp32";
    case Precision::kFp16: return "fp16";
    case Precision::kBf16: return "bf16";
  }
  return "?";
}

Precision parse_precision(const std::string& name) {
  if (name == "fp32") return Precision::kFp32;
  if (name == "fp16") return Precision::kFp16;
  if (name == "bf16") return Precision::kBf16;
  GSOUP_CHECK_MSG(false, "unknown precision '" << name
                                               << "' (fp32|fp16|bf16)");
  return Precision::kFp32;
}

namespace half {

namespace {

void check_half_precision(Precision p) {
  GSOUP_CHECK_MSG(p == Precision::kFp16 || p == Precision::kBf16,
                  "half codec called with precision "
                      << precision_name(p));
}

#if GSOUP_HALF_F16C_DISPATCH
// F16C bulk kernels, compiled with a per-function target so the portable
// (-DGSOUP_NATIVE=OFF) build still carries them; half::widen/quantize
// select them at runtime via __builtin_cpu_supports. Tails fall back to
// the scalar codecs, which are bit-identical to the instructions.
__attribute__((target("f16c,avx")))
void widen_fp16_f16c(const std::uint16_t* src, float* dst, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i h =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm256_storeu_ps(dst + i, _mm256_cvtph_ps(h));
  }
  for (; i < n; ++i) dst[i] = widen_fp16(src[i]);
}

__attribute__((target("f16c,avx")))
void quantize_fp16_f16c(const float* src, std::uint16_t* dst,
                        std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(src + i);
    const __m128i h =
        _mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), h);
  }
  for (; i < n; ++i) dst[i] = quantize_fp16(src[i]);
}
#endif  // GSOUP_HALF_F16C_DISPATCH

}  // namespace

bool f16c_available() {
#if GSOUP_HALF_F16C_DISPATCH
  static const bool has = __builtin_cpu_supports("f16c") &&
                          __builtin_cpu_supports("avx");
  return has;
#else
  return false;
#endif
}

void widen_portable(const std::uint16_t* src, float* dst, std::int64_t n,
                    Precision p) {
  check_half_precision(p);
  if (p == Precision::kFp16) {
    for (std::int64_t i = 0; i < n; ++i) dst[i] = widen_fp16(src[i]);
  } else {
    for (std::int64_t i = 0; i < n; ++i) dst[i] = widen_bf16(src[i]);
  }
}

void quantize_portable(const float* src, std::uint16_t* dst, std::int64_t n,
                       Precision p) {
  check_half_precision(p);
  if (p == Precision::kFp16) {
    for (std::int64_t i = 0; i < n; ++i) dst[i] = quantize_fp16(src[i]);
  } else {
    for (std::int64_t i = 0; i < n; ++i) dst[i] = quantize_bf16(src[i]);
  }
}

void widen(const std::uint16_t* src, float* dst, std::int64_t n,
           Precision p) {
#if GSOUP_HALF_F16C_DISPATCH
  if (p == Precision::kFp16 && f16c_available()) {
    widen_fp16_f16c(src, dst, n);
    return;
  }
#endif
  widen_portable(src, dst, n, p);
}

void quantize(const float* src, std::uint16_t* dst, std::int64_t n,
              Precision p) {
#if GSOUP_HALF_F16C_DISPATCH
  if (p == Precision::kFp16 && f16c_available()) {
    quantize_fp16_f16c(src, dst, n);
    return;
  }
#endif
  quantize_portable(src, dst, n, p);
}

}  // namespace half

HalfBuffer::HalfBuffer(std::shared_ptr<StorageBlock> storage, Shape shape,
                       Precision precision)
    : storage_(std::move(storage)),
      shape_(std::move(shape)),
      numel_(shape_numel(shape_)),
      precision_(precision) {}

HalfBuffer HalfBuffer::empty(Shape shape, Precision precision) {
  GSOUP_CHECK_MSG(precision == Precision::kFp16 ||
                      precision == Precision::kBf16,
                  "HalfBuffer stores 16-bit elements; asked for "
                      << precision_name(precision));
  const std::int64_t numel = shape_numel(shape);
  auto storage = std::make_shared<StorageBlock>(
      static_cast<std::size_t>(numel) * 2);
  return HalfBuffer(std::move(storage), std::move(shape), precision);
}

HalfBuffer HalfBuffer::quantize(const Tensor& src, Precision precision) {
  HalfBuffer out = empty(src.shape(), precision);
  half::quantize(src.data(), out.data(), src.numel(), precision);
  return out;
}

std::int64_t HalfBuffer::shape(std::int64_t d) const {
  GSOUP_CHECK_MSG(d >= 0 && d < rank(),
                  "HalfBuffer shape dim " << d << " out of range for "
                                          << shape_str());
  return shape_[static_cast<std::size_t>(d)];
}

std::string HalfBuffer::shape_str() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i != 0) os << ", ";
    os << shape_[i];
  }
  os << ']';
  return os.str();
}

std::uint16_t* HalfBuffer::data() {
  GSOUP_CHECK_MSG(defined(), "data() on undefined HalfBuffer");
  return static_cast<std::uint16_t*>(storage_->data());
}

const std::uint16_t* HalfBuffer::data() const {
  GSOUP_CHECK_MSG(defined(), "data() on undefined HalfBuffer");
  return static_cast<std::uint16_t*>(storage_->data());
}

void HalfBuffer::quantize_from(const Tensor& src) {
  GSOUP_CHECK_MSG(src.numel() == numel_,
                  "quantize_from numel mismatch: " << src.shape_str()
                                                   << " vs " << shape_str());
  half::quantize(src.data(), data(), numel_, precision_);
}

void HalfBuffer::widen_into(Tensor& dst) const {
  GSOUP_CHECK_MSG(dst.numel() == numel_,
                  "widen_into numel mismatch: " << dst.shape_str() << " vs "
                                                << shape_str());
  half::widen(data(), dst.data(), numel_, precision_);
}

Tensor HalfBuffer::widen() const {
  Tensor out = Tensor::empty(shape_);
  widen_into(out);
  return out;
}

HalfBuffer HalfBuffer::view_prefix(Shape shape) const {
  const std::int64_t need = shape_numel(shape);
  GSOUP_CHECK_MSG(defined(), "view_prefix on undefined HalfBuffer");
  GSOUP_CHECK_MSG(need <= numel_, "view_prefix wants "
                                      << need << " elements, buffer has "
                                      << numel_);
  return HalfBuffer(storage_, std::move(shape), precision_);
}

}  // namespace gsoup
