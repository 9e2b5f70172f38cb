// Reduced-precision storage: fp16/bf16 element codecs and a tracked
// 16-bit buffer.
//
// Serving is gather-bandwidth-bound (every measured kernel since PR 3),
// so halving bytes per element buys more than any further instruction
// scheduling. This header is the storage half of that trade: values are
// STORED at 16 bits and WIDENED to fp32 in registers inside the kernel
// inner loops — accumulation is always fp32, so the blocked-GEMM schedule
// and the SpMM accumulation order are unchanged and half-mode results are
// bit-equal to "run the fp32 kernel over quantize-widened inputs".
//
// Two storage formats:
//  - kFp16 (IEEE binary16): 10-bit mantissa, the precise choice. The
//    scalar codecs here are bit-exact to the F16C instructions
//    (vcvtph2ps / vcvtps2ph round-to-nearest-even) for every finite
//    value, +-inf and zero — asserted exhaustively by tests — so a
//    portable build and a -march=native build produce identical numbers.
//  - kBf16 (bfloat16): fp32 with the low 16 mantissa bits dropped
//    (round-to-nearest-even). Full fp32 range, 8-bit mantissa; the
//    conversion is two integer ops each way, so it is the cheap fallback
//    when fp16's codec cost matters more than the extra mantissa bits.
//
// Bulk conversions (half::widen / half::quantize) runtime-dispatch to
// F16C when the CPU has it, independent of compile flags; the in-kernel
// scalar widen is the portable code path and agrees bit-for-bit.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <variant>

#include "tensor/tensor.hpp"

namespace gsoup {

/// Storage precision for inference-path tensors. fp32 accumulate always;
/// this only selects how inter-layer activations, features, weight panels
/// and cached logits are STORED.
enum class Precision : std::uint8_t {
  kFp32 = 0,
  kFp16 = 1,
  kBf16 = 2,
};

const char* precision_name(Precision p);
/// "fp32" | "fp16" | "bf16" (throws CheckError on anything else).
Precision parse_precision(const std::string& name);

namespace half {

/// Widen one fp16 bit pattern to fp32 (exact; every half value is
/// representable). Branch-free apart from the inf/NaN select so the
/// autovectorizer can keep it in SIMD registers inside kernel loops.
inline float widen_fp16(std::uint16_t h) {
  const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
  const std::uint32_t em = static_cast<std::uint32_t>(h & 0x7fffu);
  // Shift exponent+mantissa into fp32 position, then fix the bias gap
  // (2^112) with one FP multiply — normals scale exactly, fp16 subnormals
  // renormalise for free.
  const float magic = std::bit_cast<float>(em << 13) * 0x1p112f;
  // Inf/NaN: shift the payload up and, for NaN, set the quiet bit — F16C
  // (vcvtph2ps) quiets signaling NaNs on widen and so do we.
  const std::uint32_t quiet = em > 0x7c00u ? 0x00400000u : 0u;
  const std::uint32_t bits = em >= 0x7c00u
                                 ? ((em << 13) | 0x7f800000u | quiet)
                                 : std::bit_cast<std::uint32_t>(magic);
  return std::bit_cast<float>(bits | sign);
}

/// Round one fp32 value to fp16 (round-to-nearest-even, matching
/// vcvtps2ph). Overflow goes to +-inf, underflow through the subnormal
/// range to +-0, NaN stays NaN (quieted, payload truncated to 9 bits).
inline std::uint16_t quantize_fp16(float f) {
  std::uint32_t x = std::bit_cast<std::uint32_t>(f);
  const std::uint16_t sign = static_cast<std::uint16_t>((x >> 16) & 0x8000u);
  x &= 0x7fffffffu;
  if (x >= 0x7f800000u) {  // inf or NaN
    const std::uint16_t nan_bits =
        x > 0x7f800000u
            ? static_cast<std::uint16_t>(0x7c00u | 0x200u | ((x >> 13) & 0x1ffu))
            : static_cast<std::uint16_t>(0x7c00u);
    return static_cast<std::uint16_t>(sign | nan_bits);
  }
  if (x < (113u << 23)) {  // |f| < 2^-14: fp16 subnormal or zero
    // The FP add aligns f's value into the low mantissa bits of the
    // magic constant with hardware round-to-nearest-even.
    const float magic = std::bit_cast<float>(126u << 23);  // 0.5f
    const std::uint32_t rounded =
        std::bit_cast<std::uint32_t>(std::bit_cast<float>(x) + magic) -
        (126u << 23);
    return static_cast<std::uint16_t>(sign | rounded);
  }
  if (x >= (143u << 23)) {  // |f| >= 2^16: past fp16 range -> inf.
    // Must clamp BEFORE the rebias arithmetic: larger exponents would
    // carry past the 5-bit result exponent and alias NaN or even finite
    // patterns (e.g. 1e6 would wrap into the sign bit).
    return static_cast<std::uint16_t>(sign | 0x7c00u);
  }
  // Normal range: rebias the exponent and round the dropped 13 mantissa
  // bits to nearest-even; a mantissa carry ripples into the exponent and
  // values in [65520, 65536) overflow to inf exactly as the hardware does.
  const std::uint32_t mant_odd = (x >> 13) & 1u;
  x += (static_cast<std::uint32_t>(15 - 127) << 23) + 0xfffu + mant_odd;
  return static_cast<std::uint16_t>(sign | static_cast<std::uint16_t>(x >> 13));
}

/// Widen one bf16 bit pattern to fp32 (exact: bf16 is a truncated fp32).
inline float widen_bf16(std::uint16_t h) {
  return std::bit_cast<float>(static_cast<std::uint32_t>(h) << 16);
}

/// Round one fp32 value to bf16 (round-to-nearest-even).
inline std::uint16_t quantize_bf16(float f) {
  std::uint32_t x = std::bit_cast<std::uint32_t>(f);
  if ((x & 0x7fffffffu) > 0x7f800000u) {
    // NaN: truncation alone could zero the mantissa and turn it into inf.
    return static_cast<std::uint16_t>((x >> 16) | 0x0040u);
  }
  x += 0x7fffu + ((x >> 16) & 1u);
  return static_cast<std::uint16_t>(x >> 16);
}

inline float widen_one(std::uint16_t h, Precision p) {
  return p == Precision::kFp16 ? widen_fp16(h) : widen_bf16(h);
}
inline std::uint16_t quantize_one(float f, Precision p) {
  return p == Precision::kFp16 ? quantize_fp16(f) : quantize_bf16(f);
}

/// True if the CPU executing this process has F16C (checked once).
bool f16c_available();

/// Bulk conversions. dst/src must not overlap. `p` must be kFp16 or
/// kBf16. These runtime-dispatch to F16C for fp16 when available and are
/// bit-identical to the scalar codecs above either way.
void widen(const std::uint16_t* src, float* dst, std::int64_t n, Precision p);
void quantize(const float* src, std::uint16_t* dst, std::int64_t n,
              Precision p);

/// Portable-only twins, exposed so tests can assert F16C-vs-portable bit
/// parity on the machine running them.
void widen_portable(const std::uint16_t* src, float* dst, std::int64_t n,
                    Precision p);
void quantize_portable(const float* src, std::uint16_t* dst, std::int64_t n,
                       Precision p);

}  // namespace half

/// Dense row-major 16-bit tensor with tracked allocation: the storage
/// counterpart of Tensor for the reduced-precision serving path. Same
/// semantics — copies are cheap shallow copies sharing storage (how
/// sharded replicas share one half-width feature slice), view_prefix
/// carves allocation-free working views, and every byte reports through
/// MemoryTracker. It is storage only: kernels widen on read and quantize
/// on write; there is no half arithmetic anywhere.
class HalfBuffer {
 public:
  HalfBuffer() = default;

  static HalfBuffer empty(Shape shape, Precision precision);
  /// Quantize a whole fp32 tensor (round-to-nearest-even per element).
  static HalfBuffer quantize(const Tensor& src, Precision precision);

  bool defined() const { return storage_ != nullptr; }
  Precision precision() const { return precision_; }
  std::int64_t rank() const {
    return static_cast<std::int64_t>(shape_.size());
  }
  const Shape& shape() const { return shape_; }
  std::int64_t shape(std::int64_t d) const;
  std::int64_t numel() const { return numel_; }
  std::size_t bytes() const { return static_cast<std::size_t>(numel_) * 2; }
  std::string shape_str() const;

  std::uint16_t* data();
  const std::uint16_t* data() const;

  /// Overwrite from an equal-shaped fp32 tensor (quantize in place).
  void quantize_from(const Tensor& src);
  /// Widen into an equal-shaped preallocated fp32 tensor.
  void widen_into(Tensor& dst) const;
  /// Widen into a fresh fp32 tensor.
  Tensor widen() const;

  /// Same storage viewed as the leading shape_numel(shape) elements (the
  /// serving workspaces' per-layer view carving, half edition).
  HalfBuffer view_prefix(Shape shape) const;

  bool shares_storage_with(const HalfBuffer& other) const {
    return storage_ != nullptr && storage_ == other.storage_;
  }

 private:
  HalfBuffer(std::shared_ptr<StorageBlock> storage, Shape shape,
             Precision precision);

  std::shared_ptr<StorageBlock> storage_;
  Shape shape_;
  std::int64_t numel_ = 0;
  Precision precision_ = Precision::kFp16;
};

/// A matrix at its storage precision. The serving layer holds its feature
/// slices and answer tables as one of these and visits it into the
/// kernel overload for its type.
using StoredMatrix = std::variant<Tensor, HalfBuffer>;

}  // namespace gsoup
