#include "tensor/tensor.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

namespace gsoup {

Tensor::Tensor(std::shared_ptr<StorageBlock> storage, Shape shape)
    : storage_(std::move(storage)),
      shape_(std::move(shape)),
      numel_(shape_numel(shape_)) {}

std::int64_t shape_numel(const Shape& shape) {
  std::int64_t n = 1;
  for (const auto d : shape) {
    GSOUP_CHECK_MSG(d >= 0, "negative dimension in shape");
    n *= d;
  }
  return n;
}

bool same_shape(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape();
}

Tensor Tensor::empty(Shape shape) {
  const std::int64_t n = shape_numel(shape);
  auto storage =
      std::make_shared<StorageBlock>(static_cast<std::size_t>(n) * 4);
  return Tensor(std::move(storage), std::move(shape));
}

Tensor Tensor::zeros(Shape shape) {
  Tensor t = empty(std::move(shape));
  t.zero_();
  return t;
}

Tensor Tensor::full(Shape shape, float value) {
  Tensor t = empty(std::move(shape));
  t.fill_(value);
  return t;
}

Tensor Tensor::from_span(std::span<const float> values, Shape shape) {
  const std::int64_t n = shape_numel(shape);
  GSOUP_CHECK_MSG(static_cast<std::size_t>(n) == values.size(),
                  "value count " << values.size() << " != shape numel " << n);
  Tensor t = empty(std::move(shape));
  if (n > 0) std::memcpy(t.data(), values.data(), values.size() * 4);
  return t;
}

Tensor Tensor::from_vector(const std::vector<float>& values, Shape shape) {
  return from_span(std::span<const float>(values.data(), values.size()),
                   std::move(shape));
}

Tensor Tensor::of(std::initializer_list<float> values) {
  std::vector<float> v(values);
  return from_vector(v, {static_cast<std::int64_t>(v.size())});
}

std::int64_t Tensor::shape(std::int64_t d) const {
  GSOUP_CHECK_MSG(d >= 0 && d < rank(), "dim " << d << " out of range for "
                                                << shape_str());
  return shape_[static_cast<std::size_t>(d)];
}

std::int64_t Tensor::rows() const {
  GSOUP_CHECK_MSG(rank() >= 1 && rank() <= 2,
                  "rows() needs rank 1-2, got " << shape_str());
  return rank() == 2 ? shape_[0] : 1;
}

std::int64_t Tensor::cols() const {
  GSOUP_CHECK_MSG(rank() >= 1 && rank() <= 2,
                  "cols() needs rank 1-2, got " << shape_str());
  return rank() == 2 ? shape_[1] : shape_[0];
}

std::string Tensor::shape_str() const {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i > 0) os << ", ";
    os << shape_[i];
  }
  os << "]";
  return os.str();
}

float* Tensor::data() {
  GSOUP_CHECK_MSG(defined(), "accessing undefined tensor");
  return static_cast<float*>(storage_->data());
}

const float* Tensor::data() const {
  GSOUP_CHECK_MSG(defined(), "accessing undefined tensor");
  return static_cast<float*>(storage_->data());
}

std::span<float> Tensor::span() {
  return {data(), static_cast<std::size_t>(numel_)};
}

std::span<const float> Tensor::span() const {
  return {data(), static_cast<std::size_t>(numel_)};
}

float& Tensor::at(std::int64_t i) {
  GSOUP_DCHECK(i >= 0 && i < numel_);
  return data()[i];
}

float Tensor::at(std::int64_t i) const {
  GSOUP_DCHECK(i >= 0 && i < numel_);
  return data()[i];
}

float& Tensor::at(std::int64_t i, std::int64_t j) {
  GSOUP_DCHECK(rank() == 2 && i >= 0 && i < shape_[0] && j >= 0 &&
               j < shape_[1]);
  return data()[i * shape_[1] + j];
}

float Tensor::at(std::int64_t i, std::int64_t j) const {
  GSOUP_DCHECK(rank() == 2 && i >= 0 && i < shape_[0] && j >= 0 &&
               j < shape_[1]);
  return data()[i * shape_[1] + j];
}

Tensor& Tensor::fill_(float value) {
  std::fill_n(data(), numel_, value);
  return *this;
}

Tensor& Tensor::zero_() {
  if (numel_ > 0) std::memset(data(), 0, bytes());
  return *this;
}

Tensor& Tensor::add_(const Tensor& other, float alpha) {
  GSOUP_CHECK_MSG(same_shape(*this, other), "add_: shape mismatch "
                                                << shape_str() << " vs "
                                                << other.shape_str());
  float* __restrict__ dst = data();
  const float* __restrict__ src = other.data();
  const std::int64_t n = numel_;
#pragma omp parallel for simd schedule(static) if (n >= kParallelNumelThreshold)
  for (std::int64_t i = 0; i < n; ++i) dst[i] += alpha * src[i];
  return *this;
}

Tensor& Tensor::mul_(float scalar) {
  float* __restrict__ dst = data();
  const std::int64_t n = numel_;
#pragma omp parallel for simd schedule(static) if (n >= kParallelNumelThreshold)
  for (std::int64_t i = 0; i < n; ++i) dst[i] *= scalar;
  return *this;
}

Tensor& Tensor::copy_(const Tensor& other) {
  GSOUP_CHECK_MSG(same_shape(*this, other), "copy_: shape mismatch "
                                                << shape_str() << " vs "
                                                << other.shape_str());
  if (numel_ > 0) std::memcpy(data(), other.data(), bytes());
  return *this;
}

Tensor Tensor::clone() const {
  if (!defined()) return {};
  Tensor t = empty(shape_);
  if (numel_ > 0) std::memcpy(t.data(), data(), bytes());
  return t;
}

Tensor Tensor::reshape(Shape new_shape) const {
  GSOUP_CHECK_MSG(shape_numel(new_shape) == numel_,
                  "reshape: numel mismatch");
  Tensor t = *this;
  t.shape_ = std::move(new_shape);
  return t;
}

Tensor Tensor::view_prefix(Shape shape) const {
  const std::int64_t wanted = shape_numel(shape);
  GSOUP_CHECK_MSG(defined(), "view_prefix on undefined tensor");
  GSOUP_CHECK_MSG(wanted <= numel_, "view_prefix: " << wanted
                                        << " elements requested from a "
                                        << numel_ << "-element tensor");
  Tensor t = *this;
  t.shape_ = std::move(shape);
  t.numel_ = wanted;
  return t;
}

}  // namespace gsoup
