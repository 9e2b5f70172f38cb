// Kernel-equivalence suite: the blocked/fused/specialised compute kernels
// against their naive references on randomized shapes, including the
// degenerate cases (empty matrices, empty rows, single-node graphs) and
// shapes that exercise every edge-tile path of the blocked GEMM.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "ag/graph_ops.hpp"
#include "ag/ops.hpp"
#include "ag/value.hpp"
#include "graph/csr.hpp"
#include "tensor/half.hpp"
#include "tensor/init.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace gsoup {
namespace {

Tensor random_tensor(Shape shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t = Tensor::empty(std::move(shape));
  init::normal(t, rng, 0.0f, 1.0f);
  return t;
}

/// Tolerance for comparing two float kernels that sum k products in
/// different orders.
float gemm_tol(std::int64_t k) {
  return 1e-4f * std::sqrt(static_cast<float>(std::max<std::int64_t>(k, 1)));
}

// ---- Blocked GEMM vs naive ------------------------------------------------

TEST(Kernels, MatmulBlockedMatchesNaiveRandomShapes) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const std::int64_t m = 1 + static_cast<std::int64_t>(rng.uniform() * 150);
    const std::int64_t k = 1 + static_cast<std::int64_t>(rng.uniform() * 150);
    const std::int64_t n = 1 + static_cast<std::int64_t>(rng.uniform() * 150);
    const Tensor a = random_tensor({m, k}, 100 + trial);
    const Tensor b = random_tensor({k, n}, 200 + trial);
    Tensor c_naive = Tensor::zeros({m, n});
    ops::matmul_naive_acc(a, b, c_naive);
    const Tensor c = ops::matmul(a, b);
    EXPECT_LE(ops::max_abs_diff(c, c_naive), gemm_tol(k))
        << "m=" << m << " k=" << k << " n=" << n;
  }
}

TEST(Kernels, MatmulBlockedEdgeTiles) {
  // Shapes chosen to hit partial MR/NR/KC/NC tiles: primes and off-by-one
  // around the 4-or-8/16/256/128 tile geometry, all above the blocking
  // threshold.
  const std::int64_t shapes[][3] = {{67, 300, 129},  {4, 256, 128},
                                    {5, 257, 129},   {127, 127, 127},
                                    {129, 511, 17},  {257, 64, 255},
                                    {64, 1024, 16},  {300, 300, 8}};
  for (const auto& s : shapes) {
    const std::int64_t m = s[0], k = s[1], n = s[2];
    const Tensor a = random_tensor({m, k}, m * 7 + k);
    const Tensor b = random_tensor({k, n}, n * 13 + k);
    Tensor c_naive = Tensor::zeros({m, n});
    ops::matmul_naive_acc(a, b, c_naive);
    const Tensor c = ops::matmul(a, b);
    EXPECT_LE(ops::max_abs_diff(c, c_naive), gemm_tol(k))
        << "m=" << m << " k=" << k << " n=" << n;
  }
}

TEST(Kernels, MatmulDegenerateDims) {
  for (const auto& s :
       {Shape{0, 5}, Shape{5, 0}}) {
    const Tensor a = Tensor::zeros(s);
    const Tensor b = Tensor::zeros({s[1], 3});
    const Tensor c = ops::matmul(a, b);
    EXPECT_EQ(c.shape(0), s[0]);
    EXPECT_EQ(c.shape(1), 3);
    for (std::int64_t i = 0; i < c.numel(); ++i)
      EXPECT_FLOAT_EQ(c.at(i), 0.0f);
  }
  // k = 0: the contraction is empty, the output must be all zeros.
  const Tensor a = Tensor::zeros({4, 0});
  const Tensor b = Tensor::zeros({0, 6});
  const Tensor c = ops::matmul(a, b);
  EXPECT_EQ(c.shape(0), 4);
  EXPECT_EQ(c.shape(1), 6);
  for (std::int64_t i = 0; i < c.numel(); ++i) EXPECT_FLOAT_EQ(c.at(i), 0.0f);
}

TEST(Kernels, MatmulAccAccumulatesIntoExisting) {
  const Tensor a = random_tensor({80, 90}, 1);
  const Tensor b = random_tensor({90, 100}, 2);
  Tensor c = Tensor::full({80, 100}, 3.0f);
  Tensor c_ref = Tensor::full({80, 100}, 3.0f);
  ops::matmul_acc(a, b, c);
  ops::matmul_naive_acc(a, b, c_ref);
  EXPECT_LE(ops::max_abs_diff(c, c_ref), gemm_tol(90));
}

TEST(Kernels, MatmulTnBlockedMatchesNaive) {
  Rng rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    const std::int64_t k = 1 + static_cast<std::int64_t>(rng.uniform() * 200);
    const std::int64_t m = 1 + static_cast<std::int64_t>(rng.uniform() * 120);
    const std::int64_t n = 1 + static_cast<std::int64_t>(rng.uniform() * 120);
    const Tensor a = random_tensor({k, m}, 300 + trial);
    const Tensor b = random_tensor({k, n}, 400 + trial);
    EXPECT_LE(ops::max_abs_diff(ops::matmul_tn(a, b),
                                ops::matmul_tn_naive(a, b)),
              gemm_tol(k))
        << "k=" << k << " m=" << m << " n=" << n;
  }
}

TEST(Kernels, MatmulNtBlockedMatchesNaive) {
  Rng rng(13);
  for (int trial = 0; trial < 10; ++trial) {
    const std::int64_t m = 1 + static_cast<std::int64_t>(rng.uniform() * 120);
    const std::int64_t k = 1 + static_cast<std::int64_t>(rng.uniform() * 200);
    const std::int64_t n = 1 + static_cast<std::int64_t>(rng.uniform() * 120);
    const Tensor a = random_tensor({m, k}, 500 + trial);
    const Tensor b = random_tensor({n, k}, 600 + trial);
    EXPECT_LE(ops::max_abs_diff(ops::matmul_nt(a, b),
                                ops::matmul_nt_naive(a, b)),
              gemm_tol(k))
        << "m=" << m << " k=" << k << " n=" << n;
  }
}

// ---- Bitwise GEMM contract ------------------------------------------------
//
// Every GEMM entry point computes each element in one fixed order, whatever
// tile it lands in: blocked shapes sum each 256-deep k-panel from zero in p
// order and then add the panel into C (the combine form stores
// (acc + c) + bias over its single panel); shapes below the blocking
// threshold add each product straight into C. The oracle below spells that
// order out, so a kernel rewrite that moves any element to a different
// tile path (edge tiles, packing, transposed operands) must still match it
// bit for bit.

constexpr std::int64_t kOracleKC = 256;

/// One multiply-add rounded the way the kernels round it. Where the build
/// targets FMA the compiler contracts the kernels' `acc += a * b` into a
/// fused multiply-add (GCC's default -ffp-contract=fast); it does not
/// reliably contract this oracle's scalar loops, so spell the fusion out.
float madd(float acc, float a, float b) {
#if defined(__FMA__)
  return std::fma(a, b, acc);
#else
  return acc + a * b;
#endif
}

/// ops' blocked-GEMM threshold: 2·m·n·k >= 2·48³.
bool oracle_blocked(std::int64_t m, std::int64_t n, std::int64_t k) {
  return 2 * m * n * k >= 2ll * 48 * 48 * 48;
}

/// C ?= A·B (A [m,k], B [k,n], row-major) in the contract's order.
std::vector<float> gemm_oracle(const std::vector<float>& a,
                               const std::vector<float>& b,
                               std::vector<float> c, std::int64_t m,
                               std::int64_t n, std::int64_t k,
                               const float* bias = nullptr) {
  const bool blocked = oracle_blocked(m, n, k);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float cij = c[i * n + j];
      if (!blocked) {
        for (std::int64_t p = 0; p < k; ++p) {
          cij = madd(cij, a[i * k + p], b[p * n + j]);
        }
      } else {
        for (std::int64_t kk = 0; kk < k; kk += kOracleKC) {
          float acc = 0.0f;
          for (std::int64_t p = kk; p < std::min(k, kk + kOracleKC); ++p) {
            acc = madd(acc, a[i * k + p], b[p * n + j]);
          }
          cij = bias != nullptr ? (acc + cij) + bias[j] : cij + acc;
        }
      }
      c[i * n + j] = cij;
    }
  }
  return c;
}

std::vector<float> values_of(const Tensor& t) {
  return {t.data(), t.data() + t.numel()};
}

std::vector<float> transposed(const Tensor& t) {
  const std::int64_t r = t.shape(0), c = t.shape(1);
  std::vector<float> out(static_cast<std::size_t>(r * c));
  for (std::int64_t i = 0; i < r; ++i)
    for (std::int64_t j = 0; j < c; ++j) out[j * r + i] = t.at(i, j);
  return out;
}

bool bits_equal(const Tensor& got, const std::vector<float>& want) {
  return static_cast<std::size_t>(got.numel()) == want.size() &&
         std::memcmp(got.data(), want.data(), want.size() * sizeof(float)) ==
             0;
}

struct GemmShape {
  std::int64_t m, n, k;
};

/// n % 16 in 1..15, m % 4 in 1..3 (and m % 8, for the 8-row tiles of
/// AVX-512 builds, in 1..7) and k across the 256-deep panel edge,
/// on both sides of the blocking threshold; plus k = 1 at a blocked size
/// and a shape spanning two 128-wide column panels.
std::vector<GemmShape> tile_contract_shapes() {
  std::vector<GemmShape> shapes;
  for (const std::int64_t k : {1, 255, 256, 257, 600}) {
    for (std::int64_t r = 1; r < 16; ++r) {
      for (const std::int64_t m : {5, 38, 67}) shapes.push_back({m, 16 + r, k});
    }
  }
  shapes.push_back({4003, 31, 1});
  shapes.push_back({4002, 17, 1});
  shapes.push_back({67, 143, 257});
  shapes.push_back({129, 47, 64});
  shapes.push_back({44, 31, 257});
  shapes.push_back({7, 31, 600});
  return shapes;
}

TEST(GemmContract, Fp32EntryPointsMatchOracleBitwise) {
  int blocked = 0, naive = 0, combined = 0;
  for (const GemmShape& s : tile_contract_shapes()) {
    const std::int64_t m = s.m, n = s.n, k = s.k;
    SCOPED_TRACE(::testing::Message() << "m=" << m << " n=" << n << " k=" << k);
    (oracle_blocked(m, n, k) ? blocked : naive) += 1;
    const Tensor a = random_tensor({m, k}, 11 * m + k);
    const Tensor b = random_tensor({k, n}, 13 * n + k);
    const Tensor c0 = random_tensor({m, n}, 17 * m + n);
    const std::vector<float> av = values_of(a), bv = values_of(b);

    // matmul_acc accumulates into a nonzero C.
    Tensor c = c0.clone();
    ops::matmul_acc(a, b, c);
    EXPECT_TRUE(bits_equal(c, gemm_oracle(av, bv, values_of(c0), m, n, k)))
        << "matmul_acc";

    // matmul_tn(Aᵀ stored [k,m]) and matmul_nt(Bᵀ stored [n,k]).
    const std::vector<float> zeros(static_cast<std::size_t>(m * n), 0.0f);
    const Tensor at = Tensor::from_vector(transposed(a), {k, m});
    EXPECT_TRUE(bits_equal(ops::matmul_tn(at, b),
                           gemm_oracle(av, bv, zeros, m, n, k)))
        << "matmul_tn";
    // Below the threshold matmul_nt is a vectorised dot-product reduction
    // whose order the contract does not fix.
    if (oracle_blocked(m, n, k)) {
      const Tensor bt = Tensor::from_vector(transposed(b), {n, k});
      EXPECT_TRUE(bits_equal(ops::matmul_nt(a, bt),
                             gemm_oracle(av, bv, zeros, m, n, k)))
          << "matmul_nt";
    }

    if (ops::gemm_can_combine_bias(m, n, k)) {
      ++combined;
      const Tensor bias = random_tensor({n}, 19 * n);
      Tensor cb = c0.clone();
      ops::matmul_combine_bias(a, b, bias, cb);
      EXPECT_TRUE(bits_equal(cb, gemm_oracle(av, bv, values_of(c0), m, n, k,
                                             bias.data())))
          << "matmul_combine_bias";
    }
  }
  EXPECT_GT(blocked, 0);
  EXPECT_GT(naive, 0);
  EXPECT_GT(combined, 0);
}

TEST(GemmContract, HalfOverloadsMatchOracleOverWidenedOperandsBitwise) {
  for (const Precision p : {Precision::kFp16, Precision::kBf16}) {
    for (const GemmShape& s : tile_contract_shapes()) {
      const std::int64_t m = s.m, n = s.n, k = s.k;
      SCOPED_TRACE(::testing::Message() << precision_name(p) << " m=" << m
                                        << " n=" << n << " k=" << k);
      const HalfBuffer ha = HalfBuffer::quantize(
          random_tensor({m, k}, 23 * m + k), p);
      const HalfBuffer hb = HalfBuffer::quantize(
          random_tensor({k, n}, 29 * n + k), p);
      const Tensor wa = ha.widen(), wb = hb.widen();
      const Tensor c0 = random_tensor({m, n}, 31 * m + n);
      const std::vector<float> av = values_of(wa), bv = values_of(wb);
      const std::vector<float> want =
          gemm_oracle(av, bv, values_of(c0), m, n, k);

      Tensor c = c0.clone();
      ops::matmul_acc(ha, hb, c);
      EXPECT_TRUE(bits_equal(c, want)) << "half A, half B";
      c = c0.clone();
      ops::matmul_acc(ha, wb, c);
      EXPECT_TRUE(bits_equal(c, want)) << "half A, fp32 B";
      c = c0.clone();
      ops::matmul_acc(wa, hb, c);
      EXPECT_TRUE(bits_equal(c, want)) << "fp32 A, half B";

      if (ops::gemm_can_combine_bias(m, n, k)) {
        const Tensor bias = random_tensor({n}, 37 * n);
        c = c0.clone();
        ops::matmul_combine_bias(ha, hb, bias, c);
        EXPECT_TRUE(bits_equal(c, gemm_oracle(av, bv, values_of(c0), m, n, k,
                                              bias.data())))
            << "half combine";
      }
    }
  }
}

// ---- Transpose ------------------------------------------------------------

TEST(Kernels, TransposeTiledMatchesElementwise) {
  for (const auto& s : {Shape{1, 77}, Shape{77, 1}, Shape{33, 65},
                        Shape{128, 128}, Shape{100, 3}, Shape{201, 129}}) {
    const Tensor a = random_tensor(s, s[0] * 1000 + s[1]);
    const Tensor t = ops::transpose(a);
    ASSERT_EQ(t.shape(0), s[1]);
    ASSERT_EQ(t.shape(1), s[0]);
    for (std::int64_t i = 0; i < s[0]; ++i)
      for (std::int64_t j = 0; j < s[1]; ++j)
        ASSERT_FLOAT_EQ(t.at(j, i), a.at(i, j));
  }
}

// ---- Reductions -----------------------------------------------------------

TEST(Kernels, SumMatchesDoubleReference) {
  // Sizes straddling the 4096-element reduction chunk and the parallel
  // threshold.
  for (const std::int64_t n : {0ll, 1ll, 4095ll, 4096ll, 4097ll, 12305ll,
                               (1ll << 15) + 17}) {
    const Tensor a = n > 0 ? random_tensor({n}, 40 + n) : Tensor::zeros({0});
    double ref = 0.0;
    for (std::int64_t i = 0; i < n; ++i) ref += a.at(i);
    EXPECT_NEAR(ops::sum(a), static_cast<float>(ref),
                1e-5 * std::max(1.0, std::abs(ref)) + 1e-4)
        << "n=" << n;
  }
}

TEST(Kernels, SumCompensationBeatsNaiveFloat) {
  // 1 + many tiny values: a plain float accumulator loses the tail
  // entirely; the chunked-double + Kahan reduction must not.
  const std::int64_t n = 1 << 16;
  Tensor a = Tensor::full({n}, 1e-7f);
  a.at(0) = 1.0f;
  const double expected = 1.0 + (n - 1) * static_cast<double>(1e-7f);
  EXPECT_NEAR(ops::sum(a), expected, 1e-6);
}

TEST(Kernels, DotMatchesDoubleReference) {
  for (const std::int64_t n : {1ll, 4097ll, (1ll << 15) + 3}) {
    const Tensor a = random_tensor({n}, 50 + n);
    const Tensor b = random_tensor({n}, 60 + n);
    double ref = 0.0;
    for (std::int64_t i = 0; i < n; ++i)
      ref += static_cast<double>(a.at(i)) * b.at(i);
    EXPECT_NEAR(ops::dot(a, b), static_cast<float>(ref),
                1e-5 * std::max(1.0, std::abs(ref)) + 1e-4)
        << "n=" << n;
  }
}

// ---- Balanced row chunks --------------------------------------------------

void check_chunk_invariants(const std::vector<std::int64_t>& bounds,
                            std::int64_t n) {
  ASSERT_GE(bounds.size(), 2u);
  EXPECT_EQ(bounds.front(), 0);
  EXPECT_EQ(bounds.back(), n);
  for (std::size_t c = 1; c < bounds.size(); ++c)
    EXPECT_LE(bounds[c - 1], bounds[c]);
}

TEST(Kernels, BalancedRowChunksUniform) {
  std::vector<std::int64_t> indptr(101);
  for (std::int64_t i = 0; i <= 100; ++i) indptr[i] = i * 5;
  const auto bounds = balanced_row_chunks(indptr, 4);
  check_chunk_invariants(bounds, 100);
  ASSERT_EQ(bounds.size(), 5u);
  // Uniform degrees: splits land on equal row counts.
  for (std::size_t c = 1; c + 1 < bounds.size(); ++c)
    EXPECT_EQ(bounds[c], static_cast<std::int64_t>(c) * 25);
}

TEST(Kernels, BalancedRowChunksSkewed) {
  // One hub row holding 90% of the edges: it must land alone in a chunk
  // and the remaining rows spread over the others.
  std::vector<std::int64_t> indptr = {0, 1, 2, 902, 903, 904, 905};
  const auto bounds = balanced_row_chunks(indptr, 3);
  check_chunk_invariants(bounds, 6);
  std::int64_t max_nnz = 0;
  std::int64_t nonempty = 0;
  for (std::size_t c = 0; c + 1 < bounds.size(); ++c) {
    const std::int64_t nnz = indptr[bounds[c + 1]] - indptr[bounds[c]];
    max_nnz = std::max(max_nnz, nnz);
    if (bounds[c + 1] > bounds[c]) ++nonempty;
  }
  EXPECT_GE(nonempty, 2);  // the hub did not swallow everything
  // The hub chunk holds the hub row plus at most the two single-edge rows
  // before it; the light tail rows split off into their own chunk.
  EXPECT_GE(max_nnz, 900);
  EXPECT_LE(max_nnz, 902);
}

TEST(Kernels, BalancedRowChunksDegenerate) {
  // Empty graph.
  std::vector<std::int64_t> empty = {0};
  const auto b0 = balanced_row_chunks(empty, 4);
  EXPECT_EQ(b0.front(), 0);
  EXPECT_EQ(b0.back(), 0);
  // All-empty rows.
  std::vector<std::int64_t> zeros(11, 0);
  const auto b1 = balanced_row_chunks(zeros, 4);
  check_chunk_invariants(b1, 10);
  // More chunks than rows.
  std::vector<std::int64_t> small = {0, 2, 4};
  const auto b2 = balanced_row_chunks(small, 16);
  check_chunk_invariants(b2, 2);
  EXPECT_EQ(b2.size(), 3u);  // clamped to row count
}

// ---- SpMM -----------------------------------------------------------------

/// Random weighted CSR with lognormal-ish degree skew and some empty rows.
Csr random_csr(std::int64_t n, double avg_degree, std::uint64_t seed) {
  Rng rng(seed);
  Csr g;
  g.num_nodes = n;
  g.indptr.resize(static_cast<std::size_t>(n) + 1, 0);
  for (std::int64_t i = 0; i < n; ++i) {
    double deg = 0;
    const double u = rng.uniform();
    if (u < 0.15) {
      deg = 0;  // empty row
    } else if (u > 0.97) {
      deg = avg_degree * 20;  // hub
    } else {
      deg = rng.uniform() * 2 * avg_degree;
    }
    g.indptr[static_cast<std::size_t>(i) + 1] =
        g.indptr[static_cast<std::size_t>(i)] +
        static_cast<std::int64_t>(deg);
  }
  const std::int64_t e = g.indptr.back();
  g.indices.resize(static_cast<std::size_t>(e));
  g.values.resize(static_cast<std::size_t>(e));
  for (std::int64_t i = 0; i < e; ++i) {
    g.indices[static_cast<std::size_t>(i)] =
        static_cast<std::int32_t>(rng.uniform() * static_cast<double>(n));
    g.values[static_cast<std::size_t>(i)] =
        static_cast<float>(rng.uniform() * 2 - 1);
  }
  return g;
}

/// Double-precision dense reference for Y = A · X.
Tensor spmm_dense_reference(const Csr& a, const Tensor& x) {
  const std::int64_t n = a.num_nodes, d = x.shape(1);
  Tensor y = Tensor::zeros({n, d});
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < d; ++j) {
      double acc = 0.0;
      for (std::int64_t e = a.indptr[i]; e < a.indptr[i + 1]; ++e)
        acc += static_cast<double>(a.values[e]) * x.at(a.indices[e], j);
      y.at(i, j) = static_cast<float>(acc);
    }
  }
  return y;
}

TEST(Kernels, SpmmVariantsMatchReferenceAcrossWidths) {
  // Widths cover every fixed specialisation (8/16/32/64/128), the generic
  // fallback (1/3/40/72) and the sub-vector case.
  const Csr g = random_csr(311, 6.0, 77);
  for (const std::int64_t d : {1, 3, 8, 16, 32, 40, 64, 72, 128}) {
    const Tensor x = random_tensor({g.num_nodes, d}, 700 + d);
    const Tensor expected = spmm_dense_reference(g, x);
    const float tol = 1e-4f * std::sqrt(64.0f);

    Tensor y_naive = Tensor::zeros({g.num_nodes, d});
    ag::spmm_reference(g, x, y_naive);
    EXPECT_LE(ops::max_abs_diff(y_naive, expected), tol) << "d=" << d;

    Tensor y_acc = Tensor::zeros({g.num_nodes, d});
    ag::spmm_accumulate(g, x, y_acc);
    EXPECT_LE(ops::max_abs_diff(y_acc, expected), tol) << "d=" << d;

    // Overwrite must fully define the output, including empty rows —
    // poison the buffer first.
    Tensor y_ow = Tensor::full({g.num_nodes, d}, 123.0f);
    ag::spmm_overwrite(g, x, y_ow);
    EXPECT_LE(ops::max_abs_diff(y_ow, expected), tol) << "d=" << d;
  }
}

TEST(Kernels, SpmmAccumulateAddsToExisting) {
  const Csr g = random_csr(100, 4.0, 78);
  const Tensor x = random_tensor({g.num_nodes, 16}, 81);
  Tensor y = Tensor::full({g.num_nodes, 16}, 2.0f);
  ag::spmm_accumulate(g, x, y);
  Tensor expected = spmm_dense_reference(g, x);
  expected.add_(Tensor::full({g.num_nodes, 16}, 2.0f));
  EXPECT_LE(ops::max_abs_diff(y, expected), 1e-3f);
}

TEST(Kernels, SpmmSingleNodeAndEmptyGraph) {
  // Single node with a self loop.
  Csr g;
  g.num_nodes = 1;
  g.indptr = {0, 1};
  g.indices = {0};
  g.values = {0.5f};
  const Tensor x = random_tensor({1, 8}, 90);
  Tensor y = Tensor::full({1, 8}, -7.0f);
  ag::spmm_overwrite(g, x, y);
  for (std::int64_t j = 0; j < 8; ++j)
    EXPECT_FLOAT_EQ(y.at(0, j), 0.5f * x.at(0, j));

  // Edge-free graph: overwrite must zero the output.
  Csr e;
  e.num_nodes = 3;
  e.indptr = {0, 0, 0, 0};
  Tensor y2 = Tensor::full({3, 16}, 9.0f);
  ag::spmm_overwrite(e, random_tensor({3, 16}, 91), y2);
  for (std::int64_t i = 0; i < y2.numel(); ++i)
    EXPECT_FLOAT_EQ(y2.at(i), 0.0f);
}

TEST(Kernels, AgSpmmForwardBackwardMatchesReference) {
  // End-to-end through the autograd op: forward uses the fused overwrite
  // path, backward the accumulate path over the transpose.
  Csr g = random_csr(73, 5.0, 95);
  const CsrTranspose gt = g.transpose();
  auto x = ag::make_leaf(random_tensor({g.num_nodes, 32}, 96), true);
  auto out = ag::spmm(g, gt.graph, x);
  EXPECT_LE(
      ops::max_abs_diff(out->value, spmm_dense_reference(g, x->value)),
      1e-3f);
  auto loss = ag::sum(out);
  ag::backward(loss);
  // dX = Aᵀ · dOut with dOut = 1.
  Tensor ones = Tensor::full({g.num_nodes, 32}, 1.0f);
  const Tensor expected_grad = spmm_dense_reference(gt.graph, ones);
  EXPECT_LE(ops::max_abs_diff(x->grad, expected_grad), 1e-3f);
}

}  // namespace
}  // namespace gsoup
