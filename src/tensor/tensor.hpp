// Dense row-major float32 tensor with tracked allocation.
//
// The library's numeric workhorse. Semantics follow the PyTorch model the
// paper's reference implementation uses: copying a Tensor is a cheap
// shallow copy sharing storage; `clone()` makes an independent deep copy.
// Storage is a StorageBlock drawn from the process-wide block pool
// (tensor/storage.hpp); every block reports its requested bytes to
// MemoryTracker so souping strategies can be compared on peak resident
// bytes (Fig. 4b).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "tensor/storage.hpp"
#include "util/check.hpp"

namespace gsoup {

/// Shape type: dimensions in row-major order. GNN workloads are almost
/// exclusively rank-1/rank-2; higher ranks are supported but unoptimised.
using Shape = std::vector<std::int64_t>;

/// Tensor storage alignment in bytes: one cache line, wide enough for
/// aligned AVX-512 loads. Kernels may rely on data() being aligned to this.
inline constexpr std::size_t kTensorAlignment = 64;

/// Flat element count below which elementwise kernels (in tensor.cpp and
/// tensor/ops.cpp) stay serial: spawning an OpenMP team costs more than
/// the loop.
inline constexpr std::int64_t kParallelNumelThreshold = 1 << 15;

class Tensor {
 public:
  /// Default-constructed tensor is "undefined" (no storage, rank 0).
  Tensor() = default;

  // ---- Factories -------------------------------------------------------
  static Tensor empty(Shape shape);
  static Tensor zeros(Shape shape);
  static Tensor full(Shape shape, float value);
  /// Deep copy of `values` interpreted with the given shape.
  static Tensor from_span(std::span<const float> values, Shape shape);
  static Tensor from_vector(const std::vector<float>& values, Shape shape);
  /// Rank-1 tensor from an initializer list (test convenience).
  static Tensor of(std::initializer_list<float> values);

  // ---- Introspection ---------------------------------------------------
  bool defined() const { return storage_ != nullptr; }
  std::int64_t rank() const { return static_cast<std::int64_t>(shape_.size()); }
  const Shape& shape() const { return shape_; }
  std::int64_t shape(std::int64_t d) const;
  std::int64_t numel() const { return numel_; }
  /// Rows/cols for rank-2 tensors; rank-1 tensors are treated as a single
  /// row so bias vectors can flow through matrix helpers.
  std::int64_t rows() const;
  std::int64_t cols() const;
  std::size_t bytes() const { return static_cast<std::size_t>(numel_) * 4; }
  std::string shape_str() const;

  // ---- Data access -----------------------------------------------------
  float* data();
  const float* data() const;
  std::span<float> span();
  std::span<const float> span() const;
  float& at(std::int64_t i);
  float at(std::int64_t i) const;
  float& at(std::int64_t i, std::int64_t j);
  float at(std::int64_t i, std::int64_t j) const;

  // ---- Value ops (in place, return *this for chaining) -----------------
  Tensor& fill_(float value);
  Tensor& zero_();
  /// this += alpha * other (shapes must match).
  Tensor& add_(const Tensor& other, float alpha = 1.0f);
  Tensor& mul_(float scalar);
  /// Overwrite contents with other's (deep copy into existing storage).
  Tensor& copy_(const Tensor& other);

  /// Independent deep copy.
  Tensor clone() const;
  /// Same storage viewed with a different (equal-numel) shape.
  Tensor reshape(Shape new_shape) const;
  /// Same storage viewed as a (possibly smaller) tensor occupying the
  /// leading shape_numel(shape) elements. No copy, no allocation — this is
  /// how the serving engine carves per-layer working views out of its
  /// preallocated workspaces without touching the heap per request.
  Tensor view_prefix(Shape shape) const;

  /// True if the two tensors share the same underlying buffer.
  bool shares_storage_with(const Tensor& other) const {
    return storage_ != nullptr && storage_ == other.storage_;
  }

 private:
  Tensor(std::shared_ptr<StorageBlock> storage, Shape shape);

  std::shared_ptr<StorageBlock> storage_;
  Shape shape_;
  std::int64_t numel_ = 0;
};

/// Total element count implied by a shape.
std::int64_t shape_numel(const Shape& shape);

/// True if shapes are identical dimension-by-dimension.
bool same_shape(const Tensor& a, const Tensor& b);

}  // namespace gsoup
