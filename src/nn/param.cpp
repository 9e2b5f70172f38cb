#include "nn/param.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace gsoup {

void ParamStore::add(std::string name, Tensor tensor, std::int32_t layer) {
  GSOUP_CHECK_MSG(index_.find(name) == index_.end(),
                  "duplicate parameter name " << name);
  GSOUP_CHECK_MSG(tensor.defined(), "parameter " << name << " is undefined");
  index_.emplace(name, entries_.size());
  entries_.push_back({std::move(name), std::move(tensor), layer});
}

bool ParamStore::contains(const std::string& name) const {
  return index_.find(name) != index_.end();
}

const Tensor& ParamStore::get(const std::string& name) const {
  const auto it = index_.find(name);
  GSOUP_CHECK_MSG(it != index_.end(), "unknown parameter " << name);
  return entries_[it->second].tensor;
}

Tensor& ParamStore::get_mutable(const std::string& name) {
  const auto it = index_.find(name);
  GSOUP_CHECK_MSG(it != index_.end(), "unknown parameter " << name);
  return entries_[it->second].tensor;
}

std::int32_t ParamStore::layer_of(const std::string& name) const {
  const auto it = index_.find(name);
  GSOUP_CHECK_MSG(it != index_.end(), "unknown parameter " << name);
  return entries_[it->second].layer;
}

std::int32_t ParamStore::num_layers() const {
  std::int32_t mx = -1;
  for (const auto& e : entries_) mx = std::max(mx, e.layer);
  return mx + 1;
}

std::int64_t ParamStore::total_params() const {
  std::int64_t n = 0;
  for (const auto& e : entries_) n += e.tensor.numel();
  return n;
}

std::size_t ParamStore::bytes() const {
  std::size_t n = 0;
  for (const auto& e : entries_) n += e.tensor.bytes();
  return n;
}

ParamStore ParamStore::clone() const {
  ParamStore out;
  for (const auto& e : entries_) {
    out.add(e.name, e.tensor.clone(), e.layer);
  }
  return out;
}

bool ParamStore::compatible(const ParamStore& a, const ParamStore& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.entries_.size(); ++i) {
    const auto& ea = a.entries_[i];
    const auto& eb = b.entries_[i];
    if (ea.name != eb.name || ea.layer != eb.layer ||
        ea.tensor.shape() != eb.tensor.shape()) {
      return false;
    }
  }
  return true;
}

ParamStore ParamStore::average(std::span<const ParamStore* const> models) {
  GSOUP_CHECK_MSG(!models.empty(), "average needs at least one model");
  ParamStore out = models.front()->clone();
  average_into(out, models);
  return out;
}

void ParamStore::average_into(ParamStore& out,
                              std::span<const ParamStore* const> models) {
  GSOUP_CHECK_MSG(!models.empty(), "average needs at least one model");
  for (const auto* m : models) {
    GSOUP_CHECK_MSG(m != nullptr && compatible(out, *m),
                    "averaging incompatible parameter stores");
  }
  const float w = 1.0f / static_cast<float>(models.size());
  for (auto& e : out.entries_) {
    for (const auto* m : models) {
      GSOUP_CHECK_MSG(!e.tensor.shares_storage_with(m->get(e.name)),
                      "average_into: output aliases an input " << e.name);
    }
    e.tensor.zero_();
    for (const auto* m : models) e.tensor.add_(m->get(e.name), w);
  }
}

ParamStore ParamStore::interpolate(const ParamStore& a, const ParamStore& b,
                                   float alpha) {
  ParamStore out = a.clone();
  interpolate_into(out, out, b, alpha);
  return out;
}

void ParamStore::interpolate_into(ParamStore& out, const ParamStore& a,
                                  const ParamStore& b, float alpha) {
  GSOUP_CHECK_MSG(compatible(a, b) && compatible(out, a),
                  "interpolating incompatible stores");
  for (std::size_t i = 0; i < out.entries_.size(); ++i) {
    Tensor& mixed = out.entries_[i].tensor;
    const Tensor& from = a.entries_[i].tensor;
    const Tensor& to = b.entries_[i].tensor;
    GSOUP_CHECK_MSG(!mixed.shares_storage_with(to),
                    "interpolate_into: output aliases b at "
                        << out.entries_[i].name);
    if (!mixed.shares_storage_with(from)) mixed.copy_(from);
    mixed.mul_(1.0f - alpha);
    mixed.add_(to, alpha);
  }
}

ParamMap as_leaves(const ParamStore& store, bool requires_grad) {
  ParamMap map;
  for (const auto& e : store.entries()) {
    map.emplace(e.name, ag::make_leaf(e.tensor, requires_grad));
  }
  return map;
}

}  // namespace gsoup
