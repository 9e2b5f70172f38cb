// Kernel-equivalence suite: the blocked/fused/specialised compute kernels
// against their naive references on randomized shapes, including the
// degenerate cases (empty matrices, empty rows, single-node graphs) and
// shapes that exercise every edge-tile path of the blocked GEMM.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "ag/graph_ops.hpp"
#include "ag/ops.hpp"
#include "ag/value.hpp"
#include "graph/csr.hpp"
#include "graph/locality.hpp"
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

// ---- Row-sparse backward GEMMs ---------------------------------------------
//
// matmul_tn / matmul_nt with a gradient's row list skip its zero rows and
// must still match the dense contract above bit for bit: each k-panel keeps
// its rows, and a dropped a·(±0) term never moves an accumulator that
// starts at +0.

/// A k-row gradient-like operand whose listed rows hold random values and
/// whose other rows hold `zero` (+0 or −0).
struct RowSparseCase {
  const char* name;
  std::int64_t k;
  std::vector<std::int64_t> live;
  float zero = 0.0f;
};

std::vector<RowSparseCase> row_sparse_cases() {
  std::vector<RowSparseCase> cases;
  const auto random_rows = [](std::int64_t k, double density,
                              std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::int64_t> rows;
    for (std::int64_t i = 0; i < k; ++i) {
      if (rng.uniform() < density) rows.push_back(i);
    }
    return rows;
  };
  cases.push_back({"2% rows", 1500, random_rows(1500, 0.02, 1)});
  cases.push_back({"30% rows", 1500, random_rows(1500, 0.30, 2)});
  // Above skip_pays' 3/4 the dense call runs; the bits are the same.
  cases.push_back({"90% rows", 1500, random_rows(1500, 0.90, 5)});
  cases.push_back({"100% rows", 1500, random_rows(1500, 1.0, 3)});
  cases.push_back({"30% rows of -0", 1500, random_rows(1500, 0.30, 4), -0.0f});
  // Rows 256-511 (one whole k-panel) are zero.
  std::vector<std::int64_t> hole;
  for (std::int64_t i = 0; i < 700; ++i) {
    if (i < 256 || i >= 512) hole.push_back(i);
  }
  cases.push_back({"zero panel", 700, hole});
  cases.push_back({"all zero", 600, {}});
  cases.push_back({"all -0", 600, {}, -0.0f});
  for (const std::int64_t r : {255, 256, 257}) {
    cases.push_back({"one row", 600, {r}});
  }
  return cases;
}

Tensor row_sparse_operand(const RowSparseCase& c, std::int64_t width,
                          std::uint64_t seed) {
  Tensor t = Tensor::full({c.k, width}, c.zero);
  const Tensor v = random_tensor({c.k, width}, seed);
  for (const std::int64_t r : c.live) {
    std::copy_n(v.data() + r * width, width, t.data() + r * width);
  }
  return t;
}

TEST(GemmContract, RowSparseTnAndNtMatchDenseOracleBitwise) {
  for (const RowSparseCase& c : row_sparse_cases()) {
    SCOPED_TRACE(::testing::Message() << c.name << " k=" << c.k << " live="
                                      << c.live.size());
    // dW = Xᵀ·dY: X [k, m], dY [k, n], at an odd m and n.
    const std::int64_t m = 37, n = 47;
    const Tensor x = random_tensor({c.k, m}, 41 * c.k + 1);
    const Tensor dy = row_sparse_operand(c, n, 43 * c.k + 2);
    const ops::RowSupport support = ops::row_support(dy);
    EXPECT_EQ(support.rows, c.live);
    ASSERT_TRUE(oracle_blocked(m, n, c.k));
    const std::vector<float> zeros(static_cast<std::size_t>(m * n), 0.0f);
    const std::vector<float> want_tn =
        gemm_oracle(transposed(x), values_of(dy), zeros, m, n, c.k);
    EXPECT_TRUE(bits_equal(ops::matmul_tn(x, dy, support.rows), want_tn))
        << "matmul_tn";

    // dX = dY·Wᵀ: dY [k, kd], W [n, kd].
    const std::int64_t kd = 64;
    const Tensor g = row_sparse_operand(c, kd, 47 * c.k + 3);
    const Tensor w = random_tensor({n, kd}, 53 * c.k + 4);
    const std::vector<std::int64_t> g_rows = ops::row_support(g).rows;
    const std::vector<float> zeros_nt(static_cast<std::size_t>(c.k * n),
                                      0.0f);
    const std::vector<float> want_nt =
        gemm_oracle(values_of(g), transposed(w), zeros_nt, c.k, n, kd);
    EXPECT_TRUE(bits_equal(ops::matmul_nt(g, w, g_rows), want_nt))
        << "matmul_nt";
    EXPECT_TRUE(bits_equal(ops::matmul_nt(g, w), want_nt))
        << "dense matmul_nt";
  }
}

TEST(GemmContract, RowSparseSkipsNonFiniteValuesMeetingZeroRows) {
  // The one intended divergence from the dense call: a non-finite value
  // whose partner gradient row is zero meets no multiply, so it no longer
  // turns the result into NaN (∞·0).
  // Every even row of the gradients is zero, so the row-sparse path runs.
  const std::int64_t k = 600, m = 37, n = 47;
  const auto zero_even_rows = [](Tensor& t) {
    const std::int64_t w = t.shape(1);
    for (std::int64_t i = 0; i < t.shape(0); i += 2) {
      std::fill(t.data() + i * w, t.data() + (i + 1) * w, 0.0f);
    }
  };
  Tensor x = random_tensor({k, m}, 61);
  Tensor dy = random_tensor({k, n}, 62);
  zero_even_rows(dy);
  x.at(300, 5) = std::numeric_limits<float>::infinity();
  const std::vector<std::int64_t> rows = ops::row_support(dy).rows;
  ASSERT_EQ(rows.size(), static_cast<std::size_t>(k / 2));
  EXPECT_TRUE(ops::all_finite(ops::matmul_tn(x, dy, rows)));
  EXPECT_FALSE(ops::all_finite(ops::matmul_tn(x, dy)));
  // With the ∞ replaced by a finite value the sparse result is unchanged
  // and equals the dense one.
  const Tensor sparse = ops::matmul_tn(x, dy, rows);
  x.at(300, 5) = 1.0f;
  EXPECT_TRUE(bits_equal(sparse, values_of(ops::matmul_tn(x, dy))));

  // dX = dY·Wᵀ with a NaN in W: the zero row of dY stays +0.
  Tensor w = random_tensor({n, 64}, 63);
  Tensor g = random_tensor({k, 64}, 64);
  zero_even_rows(g);
  w.at(3, 7) = std::numeric_limits<float>::quiet_NaN();
  const Tensor dx = ops::matmul_nt(g, w, ops::row_support(g).rows);
  for (std::int64_t j = 0; j < n; ++j) {
    EXPECT_EQ(std::signbit(dx.at(10, j)), false);
    EXPECT_EQ(dx.at(10, j), 0.0f);
  }
  EXPECT_TRUE(std::isnan(ops::matmul_nt(g, w).at(10, 3)));
}

TEST(GemmContract, RowSupportTreatsSignedZeroAsZeroAndNanAsNonzero) {
  Tensor t = Tensor::zeros({5, 3});
  t.at(1, 2) = -0.0f;
  t.at(2, 0) = 1e-30f;
  t.at(4, 1) = std::numeric_limits<float>::quiet_NaN();
  const ops::RowSupport s = ops::row_support(t);
  EXPECT_EQ(s.rows, (std::vector<std::int64_t>{2, 4}));
  EXPECT_EQ(s.mask, (std::vector<std::uint8_t>{0, 0, 1, 0, 1}));
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
  // Widths cover every fixed dual-accumulator body (8/16/32/64/128) and the
  // register row accumulator's window-only (1/3) and prefix-plus-window
  // (40/72) blocks.
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


// ---- SpMM and GAT summation-order contracts ------------------------------
//
// Every width without a fixed dual-accumulator body (8/16/32/64/128) runs
// the register row accumulator, whose contract is the per-edge order: each
// output element starts from 0 (overwrite) or from y (accumulate) and adds
// w·x once per edge in edge order, with the build's FMA contraction. The
// oracles below spell that order out, so a kernel rewrite that reorders,
// splits or re-contracts any element's sum fails here bit for bit.

/// Widths on both sides of every 16-column boundary, the window-only
/// blocks (< 16), a multiple of 16 with no fixed body (96), the widest
/// single block (143) and the 128-column slabs (144, 200).
const std::vector<std::int64_t>& spmm_contract_widths() {
  static const std::vector<std::int64_t> widths = {
      1, 3, 7, 15, 17, 41, 47, 63, 65, 80, 96, 100, 127, 143, 144, 200};
  return widths;
}

/// Y (?)= A·X in the contract's order, starting from `y`.
std::vector<float> spmm_oracle(const Csr& a, const std::vector<float>& x,
                               std::vector<float> y, std::int64_t d) {
  for (std::int64_t i = 0; i < a.num_nodes; ++i) {
    for (std::int64_t j = 0; j < d; ++j) {
      float acc = y[i * d + j];
      for (std::int64_t e = a.indptr[i]; e < a.indptr[i + 1]; ++e) {
        acc = madd(acc, a.values[e], x[a.indices[e] * d + j]);
      }
      y[i * d + j] = acc;
    }
  }
  return y;
}

TEST(SpmmContract, OverwriteAndAccumulateMatchOracleBitwise) {
  // 15% empty rows and 3% hub rows (120 edges against a mean of ~6), so
  // the edge-balanced split cuts across hubs at 2 and 4 threads.
  const Csr g = random_csr(400, 6.0, 91);
  const graph::BlockedCsr narrow = graph::build_blocked_csr(g);
  const graph::BlockedCsr wide =
      graph::build_blocked_csr(g, /*force_wide=*/true);
  ASSERT_TRUE(narrow.narrow());
  ASSERT_FALSE(wide.narrow());
  const std::int64_t n = g.num_nodes;
  for (const std::int64_t d : spmm_contract_widths()) {
    SCOPED_TRACE(::testing::Message() << "d=" << d);
    const Tensor x = random_tensor({n, d}, 900 + d);
    const Tensor y0 = random_tensor({n, d}, 950 + d);
    const std::vector<float> xv = values_of(x);
    const std::vector<float> want_ow = spmm_oracle(
        g, xv, std::vector<float>(static_cast<std::size_t>(n * d), 0.0f), d);
    const std::vector<float> want_acc = spmm_oracle(g, xv, values_of(y0), d);

    // Overwrite must define every element, empty rows included: poison.
    const float poison = std::numeric_limits<float>::quiet_NaN();
    Tensor y = Tensor::full({n, d}, poison);
    ag::spmm_overwrite(g, x, y);
    EXPECT_TRUE(bits_equal(y, want_ow)) << "csr overwrite";
    y = Tensor::full({n, d}, poison);
    ag::spmm_spans_overwrite(g.indptr, g.indices, g.values, x, y);
    EXPECT_TRUE(bits_equal(y, want_ow)) << "span overwrite";
    for (const graph::BlockedCsr* layout : {&narrow, &wide}) {
      const char* idx = layout->narrow() ? "16-bit" : "32-bit";
      y = Tensor::full({n, d}, poison);
      ag::spmm_blocked_overwrite(*layout, x, y);
      EXPECT_TRUE(bits_equal(y, want_ow)) << idx << " layout overwrite";
      y = y0.clone();
      ag::spmm_blocked_accumulate(*layout, x, y);
      EXPECT_TRUE(bits_equal(y, want_acc)) << idx << " layout accumulate";
    }
    y = y0.clone();
    ag::spmm_accumulate(g, x, y);
    EXPECT_TRUE(bits_equal(y, want_acc)) << "csr accumulate";
  }
}

TEST(SpmmContract, BackwardSkipsZeroGradientRowsBitwise) {
  // ag::spmm's backward skips each dX row whose in-edges all read zero rows
  // of dY, over the transpose CSR and over the cached transpose layouts.
  // Every row it still computes, and every row it leaves at its existing
  // value, must equal today's dense accumulate bit for bit.
  const Csr g = random_csr(400, 6.0, 93);
  const CsrTranspose gt = g.transpose();
  const graph::BlockedCsr narrow_t = graph::build_blocked_transpose(
      g, /*force_wide=*/false, /*with_epos=*/false);
  const graph::BlockedCsr wide_t = graph::build_blocked_transpose(
      g, /*force_wide=*/true, /*with_epos=*/false);
  ASSERT_TRUE(narrow_t.narrow());
  ASSERT_FALSE(wide_t.narrow());
  const std::int64_t n = g.num_nodes;
  for (const std::int64_t d : {64, 80}) {
    for (const double density : {0.0, 0.02, 0.3, 0.9, 1.0}) {
      SCOPED_TRACE(::testing::Message() << "d=" << d << " rows=" << density);
      Rng rng(static_cast<std::uint64_t>(d * 100 + density * 100));
      Tensor dy = random_tensor({n, d}, 960 + d);
      for (std::int64_t i = 0; i < n; ++i) {
        if (rng.uniform() >= density) {
          std::fill(dy.data() + i * d, dy.data() + (i + 1) * d, 0.0f);
        }
      }
      const Tensor x0 = random_tensor({n, d}, 970 + d);
      const Tensor grad0 = random_tensor({n, d}, 975 + d);
      for (const graph::BlockedCsr* layout_t :
           {static_cast<const graph::BlockedCsr*>(nullptr), &narrow_t,
            &wide_t}) {
        const char* path = layout_t == nullptr     ? "csr"
                           : layout_t->narrow() ? "16-bit layout"
                                                : "32-bit layout";
        // A fresh gradient (ensure_grad's +0) and an existing one.
        for (const bool existing : {false, true}) {
          const Tensor start = existing ? grad0 : Tensor::zeros({n, d});
          Tensor want = start.clone();
          if (layout_t == nullptr) {
            ag::spmm_accumulate(gt.graph, dy, want);
          } else {
            ag::spmm_blocked_accumulate(*layout_t, dy, want);
          }
          auto x = ag::make_leaf(x0, true);
          const ag::Value y = ag::spmm(g, gt.graph, x, nullptr, layout_t);
          if (existing) x->grad = grad0.clone();
          y->grad = dy;
          y->backward_fn(*y);
          EXPECT_TRUE(bits_equal(x->grad, values_of(want)))
              << path << (existing ? ", existing gradient" : ", fresh");
        }
      }
    }
  }
}

TEST(SpmmContract, HalfStoredXMatchesOracleOverWidenedXBitwise) {
  const Csr g = random_csr(300, 5.0, 92);
  const graph::BlockedCsr narrow = graph::build_blocked_csr(g);
  const graph::BlockedCsr wide =
      graph::build_blocked_csr(g, /*force_wide=*/true);
  const std::int64_t n = g.num_nodes;
  for (const Precision p : {Precision::kFp16, Precision::kBf16}) {
    for (const std::int64_t d : spmm_contract_widths()) {
      SCOPED_TRACE(::testing::Message() << precision_name(p) << " d=" << d);
      const HalfBuffer hx =
          HalfBuffer::quantize(random_tensor({n, d}, 980 + d), p);
      const std::vector<float> want = spmm_oracle(
          g, values_of(hx.widen()),
          std::vector<float>(static_cast<std::size_t>(n * d), 0.0f), d);
      Tensor y = Tensor::full({n, d}, std::numeric_limits<float>::quiet_NaN());
      ag::spmm_spans_overwrite(g.indptr, g.indices, g.values, hx, y);
      EXPECT_TRUE(bits_equal(y, want)) << "span";
      for (const graph::BlockedCsr* layout : {&narrow, &wide}) {
        y = Tensor::full({n, d}, std::numeric_limits<float>::quiet_NaN());
        ag::spmm_blocked_overwrite(*layout, hx, y);
        EXPECT_TRUE(bits_equal(y, want))
            << (layout->narrow() ? "16-bit" : "32-bit") << " layout";
      }
    }
  }
}

/// GAT forward in the contract's order, head by head: LeakyReLU as
/// max(z, slope·z), the running max, p = exp(act − max) with the
/// denominator summed in edge order, the aggregate Σ p·H[src] in edge
/// order from 0, then scaled by 1/denominator; alpha = p·(1/denominator).
struct GatForwardOracle {
  std::vector<float> out, alpha;
};

GatForwardOracle gat_forward_oracle(const Csr& g, const Tensor& h,
                                    const Tensor& sl, const Tensor& sr,
                                    float slope) {
  const std::int64_t n = g.num_nodes, heads = sl.shape(1);
  const std::int64_t hd = h.shape(1), d = hd / heads;
  GatForwardOracle o;
  o.out.assign(static_cast<std::size_t>(n * hd), 0.0f);
  o.alpha.assign(g.indices.size() * static_cast<std::size_t>(heads), 0.0f);
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t begin = g.indptr[i], end = g.indptr[i + 1];
    for (std::int64_t k = 0; k < heads; ++k) {
      float* a = o.alpha.data() + k;
      float mx = -std::numeric_limits<float>::infinity();
      for (std::int64_t e = begin; e < end; ++e) {
        const float z = sl.at(i, k) + sr.at(g.indices[e], k);
        a[e * heads] = std::max(z, slope * z);
        mx = std::max(mx, a[e * heads]);
      }
      float denom = 0.0f;
      for (std::int64_t e = begin; e < end; ++e) {
        a[e * heads] = std::exp(a[e * heads] - mx);
        denom += a[e * heads];
      }
      const float inv = denom > 0.0f ? 1.0f / denom : 0.0f;
      for (std::int64_t j = k * d; j < (k + 1) * d; ++j) {
        float acc = 0.0f;
        for (std::int64_t e = begin; e < end; ++e) {
          acc = madd(acc, a[e * heads], h.at(g.indices[e], j));
        }
        o.out[i * hd + j] = acc * inv;
      }
      for (std::int64_t e = begin; e < end; ++e) a[e * heads] *= inv;
    }
  }
  return o;
}

/// A transpose walk for the backward oracle: row j lists (destination,
/// forward edge position) pairs in the order the kernel visits them.
struct TransposeWalk {
  std::vector<std::int64_t> indptr, dst, epos;
};

TransposeWalk walk_of(const CsrTranspose& gt) {
  TransposeWalk w{gt.graph.indptr, {}, {}};
  for (std::size_t te = 0; te < gt.graph.indices.size(); ++te) {
    w.dst.push_back(gt.graph.indices[te]);
    w.epos.push_back(gt.edge_map[te]);
  }
  return w;
}

TransposeWalk walk_of(const graph::BlockedCsr& t) {
  TransposeWalk w{t.indptr, {}, {}};
  for (std::int64_t te = 0; te < t.num_edges(); ++te) {
    w.dst.push_back(t.narrow() ? t.idx16[te] : t.idx32[te]);
    w.epos.push_back(t.epos[te]);
  }
  return w;
}

/// GAT backward in the contract's order, head by head, accumulating into
/// dh / dsl / dsr. Pass 1's dot products are reductions whose lane order
/// is the vectoriser's, so the test feeds integer-valued H and dOut that
/// make every dot exact; everything downstream of them is pinned: inner =
/// Σ alpha·dot and dscore_dst in destination-edge order, dscore_src and
/// dH = Σ alpha·dOut[dst] in the transpose's order.
void gat_backward_oracle(const Csr& g, const TransposeWalk& t,
                         const Tensor& h, const Tensor& sl, const Tensor& sr,
                         const std::vector<float>& alpha, const Tensor& grad,
                         float slope, std::vector<float>& dh,
                         std::vector<float>& dsl, std::vector<float>& dsr) {
  const std::int64_t n = g.num_nodes, heads = sl.shape(1);
  const std::int64_t hd = h.shape(1), d = hd / heads;
  std::vector<float> dz(alpha.size(), 0.0f);
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t begin = g.indptr[i], end = g.indptr[i + 1];
    for (std::int64_t k = 0; k < heads; ++k) {
      float inner = 0.0f;
      for (std::int64_t e = begin; e < end; ++e) {
        double dot = 0.0;
        for (std::int64_t j = k * d; j < (k + 1) * d; ++j) {
          dot += static_cast<double>(grad.at(i, j)) * h.at(g.indices[e], j);
        }
        dz[e * heads + k] = static_cast<float>(dot);
        inner = madd(inner, alpha[e * heads + k], dz[e * heads + k]);
      }
      float dsl_acc = 0.0f;
      for (std::int64_t e = begin; e < end; ++e) {
        const float de = alpha[e * heads + k] * (dz[e * heads + k] - inner);
        const float z = sl.at(i, k) + sr.at(g.indices[e], k);
        dz[e * heads + k] = de * (z > 0.0f ? 1.0f : slope);
        dsl_acc += dz[e * heads + k];
      }
      dsl[i * heads + k] += dsl_acc;
    }
  }
  for (std::int64_t j = 0; j < n; ++j) {
    for (std::int64_t k = 0; k < heads; ++k) {
      for (std::int64_t te = t.indptr[j]; te < t.indptr[j + 1]; ++te) {
        dsr[j * heads + k] += dz[t.epos[te] * heads + k];
      }
    }
    for (std::int64_t c = 0; c < hd; ++c) {
      const std::int64_t k = c / d;
      float acc = dh[j * hd + c];
      for (std::int64_t te = t.indptr[j]; te < t.indptr[j + 1]; ++te) {
        acc = madd(acc, alpha[t.epos[te] * heads + k], grad.at(t.dst[te], c));
      }
      dh[j * hd + c] = acc;
    }
  }
}

/// Integer-valued [rows, cols] tensor in [-3, 3].
Tensor small_integer_tensor(std::int64_t rows, std::int64_t cols,
                            std::uint64_t seed) {
  Rng rng(seed);
  Tensor t = Tensor::empty({rows, cols});
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t.at(i) = std::floor(static_cast<float>(rng.uniform() * 7.0)) - 3.0f;
  }
  return t;
}

/// Shapes without a fixed attention body: one head at output-layer
/// widths, and several heads (3 × 41 and 2 × 24 in one head tile, 18 × 3
/// over two), whose aggregates run the register accumulator per head.
struct GatContractShape {
  std::int64_t heads, d;
};

const std::vector<GatContractShape>& gat_contract_shapes() {
  static const std::vector<GatContractShape> shapes = {
      {1, 41}, {1, 47}, {1, 80}, {3, 41}, {2, 24}, {18, 3}};
  return shapes;
}

TEST(GatContract, ForwardAndInferMatchOracleBitwise) {
  const Csr g = random_csr(350, 6.0, 93);
  const graph::BlockedCsr narrow = graph::build_blocked_csr(g);
  const graph::BlockedCsr wide =
      graph::build_blocked_csr(g, /*force_wide=*/true);
  const std::int64_t n = g.num_nodes, e = g.num_edges();
  const float slope = 0.2f;
  for (const auto [heads, d] : gat_contract_shapes()) {
    SCOPED_TRACE(::testing::Message() << "heads=" << heads << " d=" << d);
    const Tensor sl = random_tensor({n, heads}, 94 + heads);
    const Tensor sr = random_tensor({n, heads}, 95 + heads);
    const Tensor h = random_tensor({n, heads * d}, 960 + heads * d);
    const GatForwardOracle want = gat_forward_oracle(g, h, sl, sr, slope);
    const float poison = std::numeric_limits<float>::quiet_NaN();

    Tensor alpha = Tensor::full({e, heads}, poison);
    Tensor out = Tensor::full({n, heads * d}, poison);
    ag::gat_attention_forward(g.indptr, g.indices, h, sl, sr, heads, slope,
                              alpha, out);
    EXPECT_TRUE(bits_equal(out, want.out)) << "span forward";
    EXPECT_TRUE(bits_equal(alpha, want.alpha)) << "span alpha";
    out = Tensor::full({n, heads * d}, poison);
    ag::gat_attention_infer(g.indptr, g.indices, h, sl, sr, heads, slope,
                            out);
    EXPECT_TRUE(bits_equal(out, want.out)) << "span infer";
    for (const graph::BlockedCsr* layout : {&narrow, &wide}) {
      const char* idx = layout->narrow() ? "16-bit" : "32-bit";
      alpha = Tensor::full({e, heads}, poison);
      out = Tensor::full({n, heads * d}, poison);
      ag::gat_attention_forward(*layout, h, sl, sr, heads, slope, alpha,
                                out);
      EXPECT_TRUE(bits_equal(out, want.out)) << idx << " layout forward";
      EXPECT_TRUE(bits_equal(alpha, want.alpha)) << idx << " layout alpha";
      out = Tensor::full({n, heads * d}, poison);
      ag::gat_attention_infer(*layout, h, sl, sr, heads, slope, out);
      EXPECT_TRUE(bits_equal(out, want.out)) << idx << " layout infer";
    }
  }
}

TEST(GatContract, BackwardMatchesOracleBitwise) {
  const Csr g = random_csr(350, 6.0, 97);
  const CsrTranspose gt = g.transpose();
  const graph::BlockedCsr narrow = graph::build_blocked_csr(g);
  const graph::BlockedCsr narrow_t = graph::build_blocked_transpose(g);
  const graph::BlockedCsr wide =
      graph::build_blocked_csr(g, /*force_wide=*/true);
  const graph::BlockedCsr wide_t =
      graph::build_blocked_transpose(g, /*force_wide=*/true);
  ASSERT_TRUE(narrow_t.narrow());
  ASSERT_FALSE(wide_t.narrow());
  const std::int64_t n = g.num_nodes, e = g.num_edges();
  const float slope = 0.2f;
  for (const auto [heads, d] : gat_contract_shapes()) {
    SCOPED_TRACE(::testing::Message() << "heads=" << heads << " d=" << d);
    const std::int64_t hd = heads * d;
    const Tensor sl = random_tensor({n, heads}, 98 + heads);
    const Tensor sr = random_tensor({n, heads}, 99 + heads);
    const Tensor h = small_integer_tensor(n, hd, 970 + hd);
    const Tensor grad = small_integer_tensor(n, hd, 975 + hd);
    Tensor alpha = Tensor::empty({e, heads});
    Tensor out = Tensor::empty({n, hd});
    ag::gat_attention_forward(g.indptr, g.indices, h, sl, sr, heads, slope,
                              alpha, out);
    const std::vector<float> av = values_of(alpha);
    // Gradients accumulate into non-zero buffers, as on the tape.
    const Tensor dh0 = random_tensor({n, hd}, 985 + hd);
    const Tensor dsl0 = random_tensor({n, heads}, 986 + hd);
    const Tensor dsr0 = random_tensor({n, heads}, 987 + hd);

    const auto check = [&](const TransposeWalk& walk, const char* what,
                           const auto& run) {
      std::vector<float> want_dh = values_of(dh0), want_dsl = values_of(dsl0),
                         want_dsr = values_of(dsr0);
      gat_backward_oracle(g, walk, h, sl, sr, av, grad, slope, want_dh,
                          want_dsl, want_dsr);
      Tensor dh = dh0.clone(), dsl = dsl0.clone(), dsr = dsr0.clone();
      run(dh, dsl, dsr);
      EXPECT_TRUE(bits_equal(dh, want_dh)) << what << " dH";
      EXPECT_TRUE(bits_equal(dsl, want_dsl)) << what << " dscore_dst";
      EXPECT_TRUE(bits_equal(dsr, want_dsr)) << what << " dscore_src";
    };
    check(walk_of(gt), "span", [&](Tensor& dh, Tensor& dsl, Tensor& dsr) {
      ag::gat_attention_backward(g.indptr, g.indices, gt, h, sl, sr, alpha,
                                 grad, heads, slope, &dh, &dsl, &dsr);
    });
    check(walk_of(narrow_t), "16-bit layout",
          [&](Tensor& dh, Tensor& dsl, Tensor& dsr) {
            ag::gat_attention_backward(narrow, narrow_t, h, sl, sr, alpha,
                                       grad, heads, slope, &dh, &dsl, &dsr);
          });
    check(walk_of(wide_t), "32-bit layout",
          [&](Tensor& dh, Tensor& dsl, Tensor& dsr) {
            ag::gat_attention_backward(wide, wide_t, h, sl, sr, alpha, grad,
                                       heads, slope, &dh, &dsl, &dsr);
          });
  }
}

}  // namespace
}  // namespace gsoup
