// Recycled tensor storage: one process-wide block pool behind every tensor
// allocation.
//
// A training or souping epoch frees its whole tape and the next epoch asks
// for the same shapes again. Handing those blocks back to glibc makes it
// trim or unmap them, so every epoch re-faults its tape page by page. The
// pool keeps released blocks instead and hands them to the next request of
// the same size class:
//
//   - Requests of kMinPooledBytes (64 KiB) and more are rounded up to one of
//     eight size classes per power of two (granule = 2^k / 8 for requests
//     in [2^k, 2^(k+1))), so the rounding slack is under 12.5%. Smaller
//     requests go straight to glibc, whose bins do not fault.
//   - A released block is parked on its class's stack and handed back last
//     in, first out; one mutex guards the stacks and the byte counts.
//   - No knob bounds the pool. Parked bytes plus the bytes of pool blocks in
//     use never exceed high_water_bytes(), the all-time peak of the bytes
//     in use, all counted at class capacity. A release therefore always
//     parks. A request whose class is empty takes a fresh block while that
//     keeps within the bound; otherwise it takes the smallest larger parked
//     block, and only when there is none does it evict parked blocks to
//     make room for a fresh one. So the pool holds at most memory the
//     process has already had in use at once.
//   - MemoryTracker records the requested bytes, not the class capacity, at
//     acquire and release, so peaks measured with PeakMemoryScope (Fig. 4b)
//     read the same whether a block came from the pool or from glibc.
//   - Parked blocks are poisoned for AddressSanitizer; a reused block has
//     only its requested bytes unpoisoned, so an overrun into the class
//     slack still reports.
#pragma once

#include <cstddef>

namespace gsoup {

/// A 64-byte-aligned storage block drawn from the pool: the one storage
/// type behind Tensor, HalfBuffer and the GEMM panel scratch. A zero-byte
/// block holds no memory and records nothing.
class StorageBlock {
 public:
  /// kTracked blocks report their bytes to MemoryTracker (tensor storage);
  /// kUntracked ones do not (scratch whose lifetime is one kernel call).
  enum class Accounting { kTracked, kUntracked };

  explicit StorageBlock(std::size_t bytes,
                        Accounting accounting = Accounting::kTracked);
  ~StorageBlock();
  StorageBlock(const StorageBlock&) = delete;
  StorageBlock& operator=(const StorageBlock&) = delete;

  void* data() const { return ptr_; }
  std::size_t bytes() const { return bytes_; }

 private:
  void* ptr_ = nullptr;
  std::size_t bytes_ = 0;
  std::size_t capacity_ = 0;
  Accounting accounting_;
};

namespace storage_pool {

/// Smallest request the pool serves; smaller ones stay with glibc.
inline constexpr std::size_t kMinPooledBytes = std::size_t{1} << 16;

/// Capacity of the size class a request of `bytes` rounds up to, or
/// `bytes` itself below kMinPooledBytes.
std::size_t class_bytes(std::size_t bytes) noexcept;

/// Capacity bytes parked in the pool right now.
std::size_t pooled_bytes() noexcept;
/// Capacity bytes of pool blocks in use right now.
std::size_t live_bytes() noexcept;
/// All-time peak of live_bytes() (monotone): the pool's bound.
std::size_t high_water_bytes() noexcept;

/// Frees every parked block (tests use it to start from a cold pool).
void drain() noexcept;

}  // namespace storage_pool

}  // namespace gsoup
