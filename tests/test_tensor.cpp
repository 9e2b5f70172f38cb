// Tensor semantics, the recycled storage pool, and dense-kernel correctness
// against naive references, including parameterised size sweeps for the
// OpenMP kernels.
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/half.hpp"
#include "tensor/init.hpp"
#include "tensor/ops.hpp"
#include "tensor/storage.hpp"
#include "tensor/tensor.hpp"
#include "util/memory_tracker.hpp"
#include "util/rng.hpp"

namespace gsoup {
namespace {

TEST(Tensor, FactoriesAndShape) {
  const Tensor z = Tensor::zeros({2, 3});
  EXPECT_EQ(z.rank(), 2);
  EXPECT_EQ(z.rows(), 2);
  EXPECT_EQ(z.cols(), 3);
  EXPECT_EQ(z.numel(), 6);
  for (std::int64_t i = 0; i < 6; ++i) EXPECT_FLOAT_EQ(z.at(i), 0.0f);

  const Tensor f = Tensor::full({4}, 2.5f);
  EXPECT_EQ(f.rank(), 1);
  EXPECT_FLOAT_EQ(f.at(3), 2.5f);

  EXPECT_FALSE(Tensor().defined());
  EXPECT_TRUE(z.defined());
}

TEST(Tensor, ShallowCopySharesStorageCloneDoesNot) {
  Tensor a = Tensor::full({2, 2}, 1.0f);
  Tensor b = a;            // shallow
  Tensor c = a.clone();    // deep
  EXPECT_TRUE(a.shares_storage_with(b));
  EXPECT_FALSE(a.shares_storage_with(c));
  b.at(0, 0) = 9.0f;
  EXPECT_FLOAT_EQ(a.at(0, 0), 9.0f);
  EXPECT_FLOAT_EQ(c.at(0, 0), 1.0f);
}

TEST(Tensor, InPlaceOps) {
  Tensor a = Tensor::full({3}, 2.0f);
  Tensor b = Tensor::of({1.0f, 2.0f, 3.0f});
  a.add_(b, 0.5f);
  EXPECT_FLOAT_EQ(a.at(0), 2.5f);
  EXPECT_FLOAT_EQ(a.at(2), 3.5f);
  a.mul_(2.0f);
  EXPECT_FLOAT_EQ(a.at(1), 6.0f);
  a.copy_(b);
  EXPECT_FLOAT_EQ(a.at(0), 1.0f);
}

TEST(Tensor, ShapeMismatchThrows) {
  Tensor a = Tensor::zeros({2, 2});
  Tensor b = Tensor::zeros({4});
  EXPECT_THROW(a.add_(b), CheckError);
  EXPECT_THROW(a.copy_(b), CheckError);
  EXPECT_THROW(Tensor::from_vector({1.0f, 2.0f}, {3}), CheckError);
  EXPECT_THROW(a.reshape({3, 3}), CheckError);
}

TEST(Tensor, ReshapeSharesStorage) {
  Tensor a = Tensor::of({1, 2, 3, 4, 5, 6});
  Tensor b = a.reshape({2, 3});
  EXPECT_TRUE(a.shares_storage_with(b));
  EXPECT_FLOAT_EQ(b.at(1, 2), 6.0f);
}

TEST(Tensor, AllocationsTracked) {
  const std::size_t before = MemoryTracker::current();
  {
    Tensor a = Tensor::zeros({128, 128});
    EXPECT_GE(MemoryTracker::current(), before + 128 * 128 * 4);
  }
  EXPECT_EQ(MemoryTracker::current(), before);
}

TEST(MemoryScope, MeasuresPeakAboveEntry) {
  Tensor keep = Tensor::zeros({64});
  PeakMemoryScope scope;
  {
    Tensor temp = Tensor::zeros({1024, 16});  // 64 KiB transient
  }
  EXPECT_GE(scope.peak_above_entry(), 1024u * 16 * 4);
  EXPECT_LT(scope.peak_above_entry(), 1024u * 16 * 4 + 4096);
}

TEST(Tensor, EmptyTensorRecordsNoAllocation) {
  const std::uint64_t allocs = MemoryTracker::alloc_count();
  const Tensor t = Tensor::empty({0, 5});
  EXPECT_TRUE(t.defined());
  EXPECT_EQ(t.numel(), 0);
  EXPECT_EQ(MemoryTracker::alloc_count(), allocs);
}

// ---- Storage pool ----------------------------------------------------------

bool pool_within_bound() {
  return storage_pool::pooled_bytes() + storage_pool::live_bytes() <=
         storage_pool::high_water_bytes();
}

TEST(TensorPool, SizeClassesRoundUpByLessThanAnEighth) {
  EXPECT_EQ(storage_pool::class_bytes(1000), 1000u);  // below the pool
  EXPECT_EQ(storage_pool::class_bytes(65536), 65536u);
  EXPECT_EQ(storage_pool::class_bytes(65537), 73728u);
  EXPECT_EQ(storage_pool::class_bytes(131071), 131072u);
  EXPECT_EQ(storage_pool::class_bytes(131072), 131072u);
  for (std::size_t b = storage_pool::kMinPooledBytes; b < (std::size_t{1} << 30);
       b = b * 9 / 8 + 7) {
    const std::size_t c = storage_pool::class_bytes(b);
    EXPECT_GE(c, b);
    EXPECT_LT((c - b) * 8, b) << b;
    EXPECT_EQ(c % kTensorAlignment, 0u) << b;
    EXPECT_EQ(storage_pool::class_bytes(c), c) << b;
  }
}

TEST(TensorPool, ReleasedBlockIsHandedToNextRequestOfItsClass) {
  storage_pool::drain();
  // 131,072 and 130,072 bytes share the 128 KiB class.
  Tensor a = Tensor::empty({32768});
  const float* block = a.data();
  a = Tensor();
  EXPECT_EQ(storage_pool::pooled_bytes(), 131072u);
  Tensor b = Tensor::empty({32518});
  EXPECT_EQ(b.data(), block);
  EXPECT_EQ(storage_pool::pooled_bytes(), 0u);
  // HalfBuffer storage draws from the same pool.
  const void* b_block = b.data();
  b = Tensor();
  const HalfBuffer h = HalfBuffer::empty({65536}, Precision::kFp16);
  EXPECT_EQ(static_cast<const void*>(h.data()), b_block);
}

TEST(TensorPool, ReusedBlockIs64ByteAligned) {
  storage_pool::drain();
  for (const std::int64_t n : {16387, 20001, 100003, 700001, 1048575}) {
    Tensor a = Tensor::empty({n});
    const float* block = a.data();
    a = Tensor();
    const Tensor b = Tensor::empty({n - 1});
    EXPECT_EQ(b.data(), block) << n;
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % kTensorAlignment,
              0u)
        << n;
  }
}

// With the pool full (parked + in use = the all-time high-water mark), a
// request whose class is empty takes the smallest larger parked block, and
// one larger than every parked block evicts to make room.
TEST(TensorPool, FullPoolBorrowsLargerBlockBeforeEvicting) {
  storage_pool::drain();
  std::vector<Tensor> fill;
  while (storage_pool::live_bytes() < storage_pool::high_water_bytes() ||
         fill.size() < 4) {
    fill.push_back(Tensor::empty({(1 << 20) / 4}));  // 1 MiB class
  }
  const std::size_t high_water = storage_pool::high_water_bytes();
  std::vector<const float*> blocks;
  for (const Tensor& t : fill) blocks.push_back(t.data());
  fill.clear();
  ASSERT_EQ(storage_pool::pooled_bytes() + storage_pool::live_bytes(),
            high_water);

  // 200 KB: its class is empty, a fresh block would pass the bound.
  const Tensor borrowed = Tensor::empty({50000});
  EXPECT_EQ(borrowed.data(), blocks.back());  // LIFO: the last released
  EXPECT_EQ(storage_pool::high_water_bytes(), high_water);
  EXPECT_EQ(storage_pool::pooled_bytes() + storage_pool::live_bytes(),
            high_water);

  // 2 MiB: larger than every parked block, so two 1 MiB blocks go.
  const std::size_t pooled = storage_pool::pooled_bytes();
  const Tensor fresh = Tensor::empty({(2 << 20) / 4});
  EXPECT_EQ(storage_pool::high_water_bytes(), high_water);
  EXPECT_EQ(storage_pool::pooled_bytes(), pooled - (2u << 20));
  EXPECT_TRUE(pool_within_bound());
}

TEST(TensorPool, PooledPlusLiveNeverPassesHighWater) {
  Rng rng(7);
  std::vector<Tensor> tensors;
  std::vector<HalfBuffer> halves;
  ASSERT_TRUE(pool_within_bound());
  for (int i = 0; i < 3000; ++i) {
    const double u = rng.uniform();
    // Sizes log-uniform over 256 B .. 4 MiB, crossing the 64 KiB floor.
    const auto n = static_cast<std::int64_t>(
        std::exp2(6.0 + 14.0 * rng.uniform()));
    if (u < 0.35 && !tensors.empty()) {
      tensors.erase(tensors.begin() +
                    static_cast<std::ptrdiff_t>(rng.uniform_int(tensors.size())));
    } else if (u < 0.45 && !halves.empty()) {
      halves.erase(halves.begin() +
                   static_cast<std::ptrdiff_t>(rng.uniform_int(halves.size())));
    } else if (u < 0.85) {
      if (tensors.size() < 16) tensors.push_back(Tensor::empty({n}));
    } else if (halves.size() < 8) {
      halves.push_back(HalfBuffer::empty({n}, Precision::kBf16));
    }
    if (i % 500 == 250) {
      tensors.clear();  // a tape teardown: many releases at once
    }
    ASSERT_TRUE(pool_within_bound()) << "step " << i;
  }
  tensors.clear();
  halves.clear();
  EXPECT_TRUE(pool_within_bound());
}

/// A small tape-like sequence: the peak and allocation count it records
/// must not depend on where its blocks come from.
std::pair<std::size_t, std::uint64_t> tape_like_sequence() {
  const std::uint64_t allocs = MemoryTracker::alloc_count();
  PeakMemoryScope scope;
  {
    Tensor x = Tensor::empty({4000, 80});
    Tensor h = Tensor::empty({4000, 64});
    const HalfBuffer q = HalfBuffer::empty({4000, 33}, Precision::kFp16);
    Tensor small = Tensor::empty({100});
    x = Tensor();
    Tensor logits = Tensor::empty({4000, 47});
    Tensor grad = Tensor::empty({4000, 64});
    h = Tensor();
    Tensor g2 = Tensor::empty({3999, 47});
  }
  return {scope.peak_above_entry(), MemoryTracker::alloc_count() - allocs};
}

TEST(TensorPool, PeakMemoryScopeReadsTheSameColdOrWarm) {
  storage_pool::drain();
  const auto cold = tape_like_sequence();
  EXPECT_GT(storage_pool::pooled_bytes(), 0u);
  const auto warm = tape_like_sequence();
  EXPECT_EQ(cold.first, warm.first);
  EXPECT_EQ(cold.second, warm.second);
  // Requested bytes, not class capacities: h, q, small, logits and grad
  // are live at the peak.
  EXPECT_EQ(cold.first,
            (4000u * 64 + 100 + 4000u * 47 + 4000u * 64) * 4 + 4000u * 33 * 2);
}

// Farm workers and serving workers allocate and free tensor storage from
// many threads at once; the pool's one mutex must keep the stacks and the
// byte counts consistent (a TSan target).
TEST(TensorPool, ConcurrentAcquireReleaseBalances) {
  const std::size_t base = MemoryTracker::current();
  const std::size_t base_live = storage_pool::live_bytes();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t] {
      Rng rng(100 + static_cast<std::uint64_t>(t));
      std::vector<Tensor> held;
      for (int i = 0; i < 600; ++i) {
        // 1 KiB .. 2 MiB: glibc-served and pooled classes alike.
        const auto n = static_cast<std::int64_t>(
            std::exp2(8.0 + 11.0 * rng.uniform()));
        Tensor x = Tensor::empty({n});
        x.data()[0] = static_cast<float>(i);
        x.data()[n - 1] = static_cast<float>(t);
        held.push_back(std::move(x));
        if (i % 7 == 3) {
          const StorageBlock scratch(
              static_cast<std::size_t>(n) * 4,
              StorageBlock::Accounting::kUntracked);
          static_cast<float*>(scratch.data())[n - 1] = 1.0f;
        }
        if (held.size() > 5) {
          held.erase(held.begin() +
                     static_cast<std::ptrdiff_t>(rng.uniform_int(held.size())));
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(MemoryTracker::current(), base);
  EXPECT_EQ(storage_pool::live_bytes(), base_live);
  EXPECT_TRUE(pool_within_bound());
}

// ---- Kernel correctness vs naive references -------------------------------

Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  const std::int64_t m = a.shape(0), k = a.shape(1), n = b.shape(1);
  Tensor c = Tensor::zeros({m, n});
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0;
      for (std::int64_t kk = 0; kk < k; ++kk)
        acc += static_cast<double>(a.at(i, kk)) * b.at(kk, j);
      c.at(i, j) = static_cast<float>(acc);
    }
  return c;
}

class MatmulSizes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatmulSizes, MatchesNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 10007 + k * 101 + n);
  Tensor a = Tensor::empty({m, k});
  Tensor b = Tensor::empty({k, n});
  init::normal(a, rng, 0.0f, 1.0f);
  init::normal(b, rng, 0.0f, 1.0f);
  const Tensor expect = naive_matmul(a, b);
  EXPECT_LT(ops::max_abs_diff(ops::matmul(a, b), expect),
            1e-3f * static_cast<float>(k));
  // Transposed variants against explicit transposes.
  EXPECT_LT(ops::max_abs_diff(ops::matmul_tn(ops::transpose(a), b), expect),
            1e-3f * static_cast<float>(k));
  EXPECT_LT(ops::max_abs_diff(ops::matmul_nt(a, ops::transpose(b)), expect),
            1e-3f * static_cast<float>(k));
}

INSTANTIATE_TEST_SUITE_P(
    SizeSweep, MatmulSizes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 2),
                      std::make_tuple(7, 3, 9), std::make_tuple(16, 16, 16),
                      std::make_tuple(65, 33, 17),
                      std::make_tuple(128, 64, 32),
                      std::make_tuple(200, 50, 75)));

TEST(Ops, TransposeRoundTrip) {
  Rng rng(3);
  Tensor a = Tensor::empty({5, 7});
  init::normal(a, rng, 0.0f, 1.0f);
  EXPECT_LT(ops::max_abs_diff(ops::transpose(ops::transpose(a)), a), 0.0f + 1e-9f);
}

TEST(Ops, ElementwiseActivations) {
  const Tensor x = Tensor::of({-2.0f, -0.5f, 0.0f, 1.5f});
  const Tensor r = ops::relu(x);
  EXPECT_FLOAT_EQ(r.at(0), 0.0f);
  EXPECT_FLOAT_EQ(r.at(3), 1.5f);
  const Tensor l = ops::leaky_relu(x, 0.1f);
  EXPECT_FLOAT_EQ(l.at(0), -0.2f);
  EXPECT_FLOAT_EQ(l.at(3), 1.5f);
  const Tensor e = ops::elu(x);
  EXPECT_NEAR(e.at(0), std::expm1(-2.0f), 1e-6f);
  EXPECT_FLOAT_EQ(e.at(3), 1.5f);
}

TEST(Ops, RowSoftmaxRowsSumToOne) {
  Rng rng(4);
  Tensor x = Tensor::empty({9, 11});
  init::normal(x, rng, 0.0f, 5.0f);
  const Tensor s = ops::row_softmax(x);
  for (std::int64_t i = 0; i < 9; ++i) {
    float total = 0.0f;
    for (std::int64_t j = 0; j < 11; ++j) {
      EXPECT_GT(s.at(i, j), 0.0f);
      total += s.at(i, j);
    }
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST(Ops, LogSoftmaxConsistentWithSoftmax) {
  Rng rng(5);
  Tensor x = Tensor::empty({6, 8});
  init::normal(x, rng, 0.0f, 3.0f);
  const Tensor s = ops::row_softmax(x);
  const Tensor ls = ops::row_log_softmax(x);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_NEAR(std::exp(ls.at(i)), s.at(i), 1e-5f);
  }
}

TEST(Ops, SoftmaxStableUnderLargeLogits) {
  const Tensor x = Tensor::from_vector({1000.0f, 1001.0f}, {1, 2});
  const Tensor s = ops::row_softmax(x);
  EXPECT_TRUE(ops::all_finite(s));
  EXPECT_NEAR(s.at(0, 0) + s.at(0, 1), 1.0f, 1e-6f);
  EXPECT_GT(s.at(0, 1), s.at(0, 0));
}

TEST(Ops, RowArgmax) {
  const Tensor x = Tensor::from_vector({0, 3, 1, 5, 2, 2}, {2, 3});
  const auto idx = ops::row_argmax(x);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);
}

TEST(Ops, SumAndDot) {
  const Tensor a = Tensor::of({1.0f, 2.0f, 3.0f});
  const Tensor b = Tensor::of({4.0f, -5.0f, 6.0f});
  EXPECT_FLOAT_EQ(ops::sum(a), 6.0f);
  EXPECT_FLOAT_EQ(ops::dot(a, b), 4.0f - 10.0f + 18.0f);
}

TEST(Ops, AddRowBroadcast) {
  const Tensor x = Tensor::from_vector({1, 2, 3, 4}, {2, 2});
  const Tensor bias = Tensor::of({10.0f, 20.0f});
  const Tensor y = ops::add_row_broadcast(x, bias);
  EXPECT_FLOAT_EQ(y.at(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(y.at(1, 1), 24.0f);
}

// ---- Initialisers ----------------------------------------------------------

TEST(Init, XavierUniformRespectsBound) {
  Rng rng(6);
  Tensor t = Tensor::empty({50, 30});
  init::xavier_uniform(t, rng);
  const float bound = std::sqrt(6.0f / (50 + 30));
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_LE(std::abs(t.at(i)), bound);
  }
}

TEST(Init, XavierNormalHasExpectedSpread) {
  Rng rng(7);
  Tensor t = Tensor::empty({64, 64});
  init::xavier_normal(t, rng);
  const float expected_std = std::sqrt(2.0f / (64 + 64));
  double sum = 0, sum_sq = 0;
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    sum += t.at(i);
    sum_sq += static_cast<double>(t.at(i)) * t.at(i);
  }
  const double n = static_cast<double>(t.numel());
  const double mean = sum / n;
  const double stddev = std::sqrt(sum_sq / n - mean * mean);
  EXPECT_NEAR(mean, 0.0, 0.01);
  EXPECT_NEAR(stddev, expected_std, 0.2 * expected_std);
}

TEST(Init, DeterministicForFixedSeed) {
  Rng rng_a(8), rng_b(8);
  Tensor a = Tensor::empty({16, 16});
  Tensor b = Tensor::empty({16, 16});
  init::xavier_uniform(a, rng_a);
  init::xavier_uniform(b, rng_b);
  EXPECT_FLOAT_EQ(ops::max_abs_diff(a, b), 0.0f);
}

}  // namespace
}  // namespace gsoup
