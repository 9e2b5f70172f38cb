// Named, ordered parameter storage.
//
// A ParamStore is "one model's weights" — an ingredient in souping terms.
// Every entry carries the index of the layer it belongs to, which is the
// grouping Learned Souping uses for its per-layer interpolation ratios
// (Eq. 3: one alpha per ingredient per layer).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "ag/value.hpp"
#include "tensor/tensor.hpp"

namespace gsoup {

struct ParamEntry {
  std::string name;   ///< e.g. "layers.0.weight"
  Tensor tensor;
  std::int32_t layer; ///< owning layer index (alpha grouping for LS)
};

class ParamStore {
 public:
  void add(std::string name, Tensor tensor, std::int32_t layer);

  bool contains(const std::string& name) const;
  const Tensor& get(const std::string& name) const;
  Tensor& get_mutable(const std::string& name);
  std::int32_t layer_of(const std::string& name) const;

  std::span<const ParamEntry> entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }
  /// Number of distinct layer indices.
  std::int32_t num_layers() const;
  /// Total scalar parameter count.
  std::int64_t total_params() const;
  std::size_t bytes() const;

  /// Deep copy (independent tensors).
  ParamStore clone() const;

  /// True if the two stores have identical names/shapes/layers in order.
  static bool compatible(const ParamStore& a, const ParamStore& b);

  /// Element-wise average of compatible stores (uniform souping, Alg. 1's
  /// `average`). `models` must be non-empty.
  static ParamStore average(std::span<const ParamStore* const> models);

  /// average() written into `out`'s existing tensors (compatible with the
  /// models, sharing storage with none of them): no allocation, and any
  /// consumer bound to `out`'s tensors sees the new weights.
  static void average_into(ParamStore& out,
                           std::span<const ParamStore* const> models);

  /// (1-alpha)·a + alpha·b — GIS's `interpolate(soup, M_i, alpha)`.
  static ParamStore interpolate(const ParamStore& a, const ParamStore& b,
                                float alpha);

  /// interpolate() written into `out`'s existing tensors, with the same
  /// arithmetic (copy a, scale by 1-alpha, add alpha·b). `out` may be `a`
  /// itself (an in-place commit) but must not share storage with `b`.
  static void interpolate_into(ParamStore& out, const ParamStore& a,
                               const ParamStore& b, float alpha);

 private:
  std::vector<ParamEntry> entries_;
  std::map<std::string, std::size_t> index_;
};

/// Ordered name -> autodiff Value map consumed by model forwards.
using ParamMap = std::map<std::string, ag::Value>;

/// Wrap every tensor of a store as an autodiff leaf. The leaves SHARE the
/// store's storage, so an optimiser stepping the leaves updates the store
/// in place (exactly how ingredient training persists its weights).
ParamMap as_leaves(const ParamStore& store, bool requires_grad);

}  // namespace gsoup
