#include "tensor/storage.hpp"

#include <algorithm>
#include <bit>
#include <mutex>
#include <new>
#include <tuple>
#include <utility>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/memory_tracker.hpp"

#if __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>  // no-op macros without ASan
#endif
#ifndef ASAN_POISON_MEMORY_REGION
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace gsoup {
namespace {

constexpr int kMinShift = std::countr_zero(storage_pool::kMinPooledBytes);
constexpr std::size_t kClassesPerOctave = 8;
// Every request a 64-bit size can hold, plus the top octave's closing
// class.
constexpr std::size_t kNumClasses =
    static_cast<std::size_t>(64 - kMinShift) * kClassesPerOctave + 1;

/// Requests in [2^k, 2^(k+1)) round up to a multiple of 2^k / 8; one that
/// rounds up to 2^(k+1) lands on the next octave's first class.
std::size_t class_index(std::size_t bytes) noexcept {
  const int k = std::bit_width(bytes) - 1;
  const std::size_t granules = ((bytes - 1) >> (k - 3)) + 1;  // 8..16
  return static_cast<std::size_t>(k - kMinShift) * kClassesPerOctave +
         granules - kClassesPerOctave;
}

std::size_t class_capacity(std::size_t index) noexcept {
  const auto k = static_cast<int>(index / kClassesPerOctave) + kMinShift;
  return (index % kClassesPerOctave + kClassesPerOctave) << (k - 3);
}

void* allocate(std::size_t bytes) {
  return ::operator new(bytes, std::align_val_t(kTensorAlignment));
}

void deallocate(void* p, std::size_t capacity) noexcept {
  ASAN_UNPOISON_MEMORY_REGION(p, capacity);
  ::operator delete(p, std::align_val_t(kTensorAlignment));
}

using Blocks = std::vector<std::pair<void*, std::size_t>>;

class Pool {
 public:
  /// A block of at least `bytes` (>= kMinPooledBytes); returns the block
  /// and its capacity.
  std::pair<void*, std::size_t> acquire(std::size_t bytes) {
    const std::size_t cls = class_index(bytes);
    std::size_t capacity = class_capacity(cls);
    void* p = nullptr;
    Blocks victims;
    {
      std::lock_guard<std::mutex> lock(mu_);
      std::size_t from = cls;
      const std::size_t fresh_live = live_ + capacity;
      if (stacks_[cls].empty() &&
          pooled_ + fresh_live > std::max(high_water_, fresh_live)) {
        // A fresh block would pass the bound: take the smallest larger
        // parked block instead, if there is one.
        while (from < kNumClasses && stacks_[from].empty()) ++from;
      }
      if (from < kNumClasses && !stacks_[from].empty()) {
        capacity = class_capacity(from);
        p = stacks_[from].back();
        stacks_[from].pop_back();
        pooled_ -= capacity;
        live_ += capacity;
      } else {
        live_ = fresh_live;
        high_water_ = std::max(high_water_, live_);
        // Every parked block is smaller than this one: evict from the
        // largest class down until the fresh block fits the bound.
        for (std::size_t i = cls; i-- > 0 && pooled_ + live_ > high_water_;) {
          while (!stacks_[i].empty() && pooled_ + live_ > high_water_) {
            pop_into(victims, i);
          }
        }
      }
    }
    free_all(victims);
    if (p != nullptr) {
      ASAN_UNPOISON_MEMORY_REGION(p, bytes);
      return {p, capacity};
    }
    try {
      p = allocate(capacity);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      live_ -= capacity;
      throw;
    }
    ASAN_POISON_MEMORY_REGION(static_cast<char*>(p) + bytes, capacity - bytes);
    return {p, capacity};
  }

  /// Parks a block; it always fits, since it leaves the in-use bytes.
  void release(void* p, std::size_t capacity) noexcept {
    ASAN_POISON_MEMORY_REGION(p, capacity);
    std::lock_guard<std::mutex> lock(mu_);
    live_ -= capacity;
    try {
      stacks_[class_index(capacity)].push_back(p);
      pooled_ += capacity;
    } catch (const std::bad_alloc&) {
      deallocate(p, capacity);  // no room to record it: free it instead
    }
  }

  std::size_t pooled() {
    std::lock_guard<std::mutex> lock(mu_);
    return pooled_;
  }
  std::size_t live() {
    std::lock_guard<std::mutex> lock(mu_);
    return live_;
  }
  std::size_t high_water() {
    std::lock_guard<std::mutex> lock(mu_);
    return high_water_;
  }

  void drain() noexcept {
    Blocks victims;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (std::size_t i = 0; i < kNumClasses; ++i) {
        while (!stacks_[i].empty()) pop_into(victims, i);
      }
    }
    free_all(victims);
  }

 private:
  /// Moves class i's top block to `victims`; the caller holds mu_.
  void pop_into(Blocks& victims, std::size_t i) {
    const std::size_t capacity = class_capacity(i);
    victims.emplace_back(stacks_[i].back(), capacity);
    stacks_[i].pop_back();
    pooled_ -= capacity;
  }

  static void free_all(const Blocks& blocks) noexcept {
    for (const auto& [p, capacity] : blocks) deallocate(p, capacity);
  }

  std::mutex mu_;
  std::vector<void*> stacks_[kNumClasses];
  std::size_t pooled_ = 0;
  std::size_t live_ = 0;
  std::size_t high_water_ = 0;
};

/// Never destroyed: tensors with static storage duration release into it
/// during exit.
Pool& pool() {
  static Pool* const p = new Pool;
  return *p;
}

}  // namespace

StorageBlock::StorageBlock(std::size_t bytes, Accounting accounting)
    : bytes_(bytes), accounting_(accounting) {
  if (bytes_ == 0) return;
  if (bytes_ < storage_pool::kMinPooledBytes) {
    ptr_ = allocate(bytes_);
    capacity_ = bytes_;
  } else {
    std::tie(ptr_, capacity_) = pool().acquire(bytes_);
  }
  if (accounting_ == Accounting::kTracked) MemoryTracker::record_alloc(bytes_);
}

StorageBlock::~StorageBlock() {
  if (ptr_ == nullptr) return;
  if (accounting_ == Accounting::kTracked) MemoryTracker::record_free(bytes_);
  if (capacity_ < storage_pool::kMinPooledBytes) {
    deallocate(ptr_, capacity_);
  } else {
    pool().release(ptr_, capacity_);
  }
}

namespace storage_pool {

std::size_t class_bytes(std::size_t bytes) noexcept {
  return bytes < kMinPooledBytes ? bytes : class_capacity(class_index(bytes));
}

std::size_t pooled_bytes() noexcept { return pool().pooled(); }
std::size_t live_bytes() noexcept { return pool().live(); }
std::size_t high_water_bytes() noexcept { return pool().high_water(); }

void drain() noexcept { pool().drain(); }

}  // namespace storage_pool

}  // namespace gsoup
