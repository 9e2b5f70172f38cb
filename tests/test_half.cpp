// Reduced-precision (fp16/bf16) suite: the numerics contract the serving
// half-lowering rests on, end to end.
//
//  - Codec exactness: the portable scalar fp16 codec is the F16C
//    semantics (round-to-nearest-even, subnormals, inf/NaN), asserted
//    exhaustively over all 2^16 bit patterns; the bulk converters
//    (runtime F16C dispatch) are bit-identical to the portable twins on
//    whatever CPU runs the tests. quantize(widen(h)) == h — the identity
//    that lets a quantized snapshot re-quantize bit-identically.
//  - Kernel oracle parity, BIT-exact: every half kernel (row gathers,
//    the three half GEMM operand combinations, the fused combine+bias
//    store, span and blocked SpMM) equals its fp32 twin run over
//    quantize-widened copies of the half operands. Accumulation order is
//    unchanged by design; these tests pin it.
//  - Accuracy parity: fp16/bf16 x {GCN, SAGE, GAT} x {plain engine
//    (subgraph + cached-full), sharded k=2, replicated R=2} logits stay
//    inside a precision-scaled tolerance of the fp32 reference, and the
//    argmax matches on every decisive node (fp32 top-2 margin beyond the
//    tolerance band — a flip inside the band is quantisation, not a bug).
//  - Zero tracked allocation in the half steady state (engine full
//    passes, subgraph queries and cached-table lookups).
//  - Quantized snapshots (GSQ1): round-trip widening, the
//    re-quantize-bit-identical serving contract, crash-safe file save,
//    and a 1200-round corruption/truncation fuzz that must always raise
//    CheckError — never garbage weights.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ag/graph_ops.hpp"
#include "exec/executor.hpp"
#include "graph/generator.hpp"
#include "graph/locality.hpp"
#include "graph/normalize.hpp"
#include "nn/model.hpp"
#include "serve/engine.hpp"
#include "serve/server.hpp"
#include "serve/shard_server.hpp"
#include "serve/snapshot.hpp"
#include "tensor/half.hpp"
#include "tensor/init.hpp"
#include "tensor/ops.hpp"
#include "util/memory_tracker.hpp"
#include "util/rng.hpp"

namespace gsoup {
namespace {

Dataset half_dataset() {
  SyntheticSpec spec;
  spec.num_nodes = 220;
  spec.avg_degree = 8.0;
  spec.num_classes = 5;
  spec.feature_dim = 12;
  spec.degree_sigma = 1.2;
  spec.seed = 77;
  return generate_dataset(spec);
}

ModelConfig half_config(Arch arch, const Dataset& data) {
  ModelConfig cfg;
  cfg.arch = arch;
  cfg.in_dim = data.feature_dim();
  cfg.out_dim = data.num_classes;
  cfg.num_layers = 2;
  cfg.hidden_dim = arch == Arch::kGat ? 6 : 16;
  cfg.heads = 3;
  return cfg;
}

Tensor random_tensor(Shape shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t = Tensor::empty(std::move(shape));
  init::normal(t, rng, 0.0f, 1.0f);
  return t;
}

/// Quantize-widen an fp32 tensor: the oracle operand every half kernel
/// must be bit-equal against.
Tensor wq(const Tensor& t, Precision p) {
  return HalfBuffer::quantize(t, p).widen();
}

/// Precision-scaled logit tolerance: fp16 storage contributes ~2^-11
/// relative error per quantized tensor, bf16 ~2^-8; two layers of storage
/// round-trips stack to ~5e-4 / ~4e-3 relative (measured worst case over
/// the three archs on this dataset). The scales below carry ~4x headroom
/// on top of that — tight enough that a real kernel bug (which misses by
/// orders of magnitude, not fractions) cannot hide, loose enough to be
/// seed-robust.
double logit_tolerance(Precision p, const Tensor& ref) {
  double linf = 0.0;
  for (std::int64_t i = 0; i < ref.numel(); ++i) {
    linf = std::max(linf, static_cast<double>(std::fabs(ref.data()[i])));
  }
  return (p == Precision::kFp16 ? 2e-3 : 1.5e-2) * std::max(1.0, linf);
}

// ---- Codec exactness -----------------------------------------------------

TEST(HalfCodec, Fp16QuantizeWidenIdentityExhaustive) {
  // Every fp16 bit pattern must survive widen -> quantize unchanged
  // (NaNs keep NaN-ness; everything else round-trips bit-exactly). This
  // is the identity that makes loading a quantized snapshot and
  // re-quantizing it in the engine produce the exact on-disk weights.
  for (std::uint32_t h = 0; h <= 0xffffu; ++h) {
    const auto bits = static_cast<std::uint16_t>(h);
    const float f = half::widen_fp16(bits);
    if ((h & 0x7fffu) > 0x7c00u) {
      EXPECT_TRUE(std::isnan(f)) << "pattern " << h;
      EXPECT_GT(half::quantize_fp16(f) & 0x7fffu, 0x7c00u) << "pattern " << h;
    } else {
      EXPECT_EQ(half::quantize_fp16(f), bits) << "pattern " << h;
    }
  }
}

TEST(HalfCodec, Fp16QuantizeMatchesIeeeRounding) {
  EXPECT_EQ(half::quantize_fp16(0.0f), 0x0000u);
  EXPECT_EQ(half::quantize_fp16(-0.0f), 0x8000u);
  EXPECT_EQ(half::quantize_fp16(1.0f), 0x3c00u);
  EXPECT_EQ(half::quantize_fp16(-2.0f), 0xc000u);
  EXPECT_EQ(half::quantize_fp16(65504.0f), 0x7bffu);  // largest normal
  EXPECT_EQ(half::quantize_fp16(65520.0f), 0x7c00u);  // overflow -> inf
  EXPECT_EQ(half::quantize_fp16(-65520.0f), 0xfc00u);
  EXPECT_EQ(half::quantize_fp16(0x1p-24f), 0x0001u);  // smallest subnormal
  EXPECT_EQ(half::quantize_fp16(0x1p-25f), 0x0000u);  // tie to even: zero
  EXPECT_EQ(half::quantize_fp16(0x1.8p-24f), 0x0002u);  // tie to even: up
  // Normal-range ties-to-even: 1 + 2^-11 sits exactly between 0x3c00 and
  // 0x3c01 and must round to the even mantissa; 1 + 3*2^-11 rounds up.
  EXPECT_EQ(half::quantize_fp16(1.0f + 0x1p-11f), 0x3c00u);
  EXPECT_EQ(half::quantize_fp16(1.0f + 3 * 0x1p-11f), 0x3c02u);
  EXPECT_EQ(half::quantize_fp16(std::numeric_limits<float>::infinity()),
            0x7c00u);
  const std::uint16_t nan16 =
      half::quantize_fp16(std::numeric_limits<float>::quiet_NaN());
  EXPECT_GT(nan16 & 0x7fffu, 0x7c00u);
}

TEST(HalfCodec, Bf16QuantizeWidenIdentityExhaustive) {
  for (std::uint32_t h = 0; h <= 0xffffu; ++h) {
    const auto bits = static_cast<std::uint16_t>(h);
    const float f = half::widen_bf16(bits);
    if ((h & 0x7fffu) > 0x7f80u) {
      EXPECT_TRUE(std::isnan(f)) << "pattern " << h;
      EXPECT_GT(half::quantize_bf16(f) & 0x7fffu, 0x7f80u) << "pattern " << h;
    } else {
      EXPECT_EQ(half::quantize_bf16(f), bits) << "pattern " << h;
    }
  }
}

TEST(HalfCodec, Bf16QuantizeMatchesRoundToNearestEven) {
  EXPECT_EQ(half::quantize_bf16(1.0f), 0x3f80u);
  EXPECT_EQ(half::quantize_bf16(-1.0f), 0xbf80u);
  // 1 + 2^-8 is the halfway point between 0x3f80 and 0x3f81.
  EXPECT_EQ(half::quantize_bf16(1.0f + 0x1p-8f), 0x3f80u);
  EXPECT_EQ(half::quantize_bf16(1.0f + 3 * 0x1p-8f), 0x3f82u);
  EXPECT_EQ(half::quantize_bf16(std::numeric_limits<float>::infinity()),
            0x7f80u);
  EXPECT_GT(half::quantize_bf16(std::numeric_limits<float>::quiet_NaN()) &
                0x7fffu,
            0x7f80u);
}

TEST(HalfCodec, BulkConvertersMatchPortableBitExact) {
  // The bulk converters runtime-dispatch to F16C when the CPU has it; the
  // portable twins are always scalar. Whatever this machine is, the two
  // must agree bit-for-bit — this is the test that makes "portable build
  // and -march=native build produce identical numbers" a checked claim
  // rather than a comment. (Without F16C both sides run the scalar code
  // and the test degenerates to a tautology — that is the graceful skip.)
  std::vector<std::uint16_t> patterns(1u << 16);
  for (std::uint32_t h = 0; h <= 0xffffu; ++h) {
    patterns[h] = static_cast<std::uint16_t>(h);
  }
  for (const Precision p : {Precision::kFp16, Precision::kBf16}) {
    std::vector<float> dispatched(patterns.size());
    std::vector<float> portable(patterns.size());
    half::widen(patterns.data(), dispatched.data(),
                static_cast<std::int64_t>(patterns.size()), p);
    half::widen_portable(patterns.data(), portable.data(),
                         static_cast<std::int64_t>(patterns.size()), p);
    EXPECT_EQ(std::memcmp(dispatched.data(), portable.data(),
                          dispatched.size() * sizeof(float)),
              0)
        << precision_name(p) << (half::f16c_available() ? " (F16C)" : "");
  }

  const Tensor floats = random_tensor({4099}, 5);  // odd count: tail lanes
  std::vector<float> specials(floats.data(), floats.data() + floats.numel());
  specials.push_back(0.0f);
  specials.push_back(-0.0f);
  specials.push_back(65504.0f);
  specials.push_back(1e6f);     // fp16 overflow
  specials.push_back(0x1p-24f); // fp16 subnormal
  specials.push_back(0x1p-25f); // fp16 subnormal tie
  specials.push_back(std::numeric_limits<float>::infinity());
  specials.push_back(-std::numeric_limits<float>::infinity());
  for (const Precision p : {Precision::kFp16, Precision::kBf16}) {
    std::vector<std::uint16_t> dispatched(specials.size());
    std::vector<std::uint16_t> portable(specials.size());
    half::quantize(specials.data(), dispatched.data(),
                   static_cast<std::int64_t>(specials.size()), p);
    half::quantize_portable(specials.data(), portable.data(),
                            static_cast<std::int64_t>(specials.size()), p);
    EXPECT_EQ(std::memcmp(dispatched.data(), portable.data(),
                          dispatched.size() * sizeof(std::uint16_t)),
              0)
        << precision_name(p);
  }
}

TEST(HalfCodec, PrecisionNamesParse) {
  EXPECT_EQ(parse_precision("fp32"), Precision::kFp32);
  EXPECT_EQ(parse_precision("fp16"), Precision::kFp16);
  EXPECT_EQ(parse_precision("bf16"), Precision::kBf16);
  EXPECT_STREQ(precision_name(Precision::kFp16), "fp16");
  EXPECT_STREQ(precision_name(Precision::kBf16), "bf16");
  EXPECT_STREQ(precision_name(Precision::kFp32), "fp32");
  EXPECT_THROW(parse_precision("int8"), CheckError);
}

// ---- HalfBuffer storage semantics ----------------------------------------

TEST(HalfBufferTest, QuantizeWidenRoundTripAndSharing) {
  const Tensor src = random_tensor({9, 7}, 11);
  for (const Precision p : {Precision::kFp16, Precision::kBf16}) {
    const HalfBuffer hb = HalfBuffer::quantize(src, p);
    EXPECT_TRUE(hb.defined());
    EXPECT_EQ(hb.precision(), p);
    EXPECT_EQ(hb.numel(), src.numel());
    EXPECT_EQ(hb.bytes(), static_cast<std::size_t>(src.numel()) * 2);

    // Widen matches the scalar codec element-wise.
    const Tensor wide = hb.widen();
    for (std::int64_t i = 0; i < src.numel(); ++i) {
      EXPECT_EQ(wide.data()[i], half::widen_one(hb.data()[i], p));
    }
    // Re-quantizing the widened copy is the identity on the bit patterns.
    const HalfBuffer again = HalfBuffer::quantize(wide, p);
    EXPECT_EQ(std::memcmp(again.data(), hb.data(), hb.bytes()), 0);

    // Shallow copies share storage (the replica-sharing mechanism).
    const HalfBuffer alias = hb;
    EXPECT_TRUE(alias.shares_storage_with(hb));
    const HalfBuffer view = hb.view_prefix({3, 7});
    EXPECT_TRUE(view.shares_storage_with(hb));
    EXPECT_EQ(view.numel(), 21);
    EXPECT_EQ(view.data(), hb.data());
  }
}

TEST(HalfBufferTest, EmptyBufferRecordsNoAllocation) {
  const std::uint64_t allocs = MemoryTracker::alloc_count();
  const std::size_t live = MemoryTracker::current();
  const HalfBuffer hb = HalfBuffer::empty({0}, Precision::kFp16);
  EXPECT_TRUE(hb.defined());
  EXPECT_EQ(hb.numel(), 0);
  EXPECT_EQ(hb.bytes(), 0u);
  EXPECT_EQ(MemoryTracker::alloc_count(), allocs);
  EXPECT_EQ(MemoryTracker::current(), live);
}

// ---- Kernel oracle parity (bit-exact) ------------------------------------

TEST(HalfKernels, GatherRowsMatchesWidenedOracle) {
  const Tensor src = random_tensor({50, 13}, 21);
  std::vector<std::int64_t> ids{0, 49, 7, 7, 31, 2, 48, 7};
  for (const Precision p : {Precision::kFp16, Precision::kBf16}) {
    const HalfBuffer hsrc = HalfBuffer::quantize(src, p);
    const Tensor oracle_src = hsrc.widen();
    const auto rows = static_cast<std::int64_t>(ids.size());

    Tensor out = Tensor::empty({rows, 13});
    Tensor expected = Tensor::empty({rows, 13});
    ops::gather_rows_into(hsrc, std::span<const std::int64_t>(ids), out);
    ops::gather_rows_into(oracle_src, std::span<const std::int64_t>(ids),
                          expected);
    EXPECT_EQ(ops::max_abs_diff(out, expected), 0.0f) << precision_name(p);

    // Half-to-half gather is a 16-bit row copy.
    HalfBuffer hout = HalfBuffer::empty({rows, 13}, p);
    ops::gather_rows_into(hsrc, std::span<const std::int64_t>(ids), hout);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(std::memcmp(hout.data() + static_cast<std::int64_t>(i) * 13,
                            hsrc.data() + ids[i] * 13,
                            13 * sizeof(std::uint16_t)),
                0)
          << precision_name(p) << " row " << i;
    }
  }
}

TEST(HalfKernels, MatmulAccMatchesWidenedOracle) {
  // Shapes straddle the blocked-path thresholds and the k-panel size
  // (k=300 crosses the 256-wide panel boundary), plus deliberately odd
  // dims for the tail micro-kernels.
  struct Dims { std::int64_t m, k, n; };
  for (const Dims d : {Dims{64, 64, 64}, Dims{33, 300, 17}, Dims{5, 3, 2},
                       Dims{128, 256, 96}}) {
    const Tensor a = random_tensor({d.m, d.k}, 31);
    const Tensor b = random_tensor({d.k, d.n}, 32);
    for (const Precision p : {Precision::kFp16, Precision::kBf16}) {
      const HalfBuffer ha = HalfBuffer::quantize(a, p);
      const HalfBuffer hb = HalfBuffer::quantize(b, p);
      const Tensor wa = ha.widen();
      const Tensor wb = hb.widen();
      const std::string tag = std::string(precision_name(p)) + " m=" +
                              std::to_string(d.m) + ",k=" +
                              std::to_string(d.k) + ",n=" +
                              std::to_string(d.n);

      Tensor expected = Tensor::zeros({d.m, d.n});
      ops::matmul_acc(wa, wb, expected);

      Tensor c = Tensor::zeros({d.m, d.n});
      ops::matmul_acc(ha, hb, c);
      EXPECT_EQ(ops::max_abs_diff(c, expected), 0.0f) << tag << " half A+B";

      Tensor expected_ab = Tensor::zeros({d.m, d.n});
      ops::matmul_acc(wa, b, expected_ab);
      c.zero_();
      ops::matmul_acc(ha, b, c);
      EXPECT_EQ(ops::max_abs_diff(c, expected_ab), 0.0f) << tag << " half A";

      Tensor expected_b = Tensor::zeros({d.m, d.n});
      ops::matmul_acc(a, wb, expected_b);
      c.zero_();
      ops::matmul_acc(a, hb, c);
      EXPECT_EQ(ops::max_abs_diff(c, expected_b), 0.0f) << tag << " half B";
    }
  }
}

TEST(HalfKernels, MatmulCombineBiasMatchesWidenedOracle) {
  // Inside the fusable regime: big enough for the blocked path, k within
  // a single k-panel.
  const std::int64_t m = 96, k = 64, n = 32;
  ASSERT_TRUE(ops::gemm_can_combine_bias(m, n, k));
  const Tensor a = random_tensor({m, k}, 41);
  const Tensor b = random_tensor({k, n}, 42);
  const Tensor bias = random_tensor({n}, 43);
  const Tensor base = random_tensor({m, n}, 44);  // the "self" term
  for (const Precision p : {Precision::kFp16, Precision::kBf16}) {
    const HalfBuffer ha = HalfBuffer::quantize(a, p);
    const HalfBuffer hb = HalfBuffer::quantize(b, p);

    Tensor expected = base.clone();
    ops::matmul_combine_bias(ha.widen(), hb.widen(), bias, expected);

    Tensor c = base.clone();
    ops::matmul_combine_bias(ha, hb, bias, c);
    EXPECT_EQ(ops::max_abs_diff(c, expected), 0.0f) << precision_name(p);
  }
}

TEST(HalfKernels, SpmmMatchesWidenedOracle) {
  const Dataset data = half_dataset();
  const Csr norm = gcn_normalize(data.graph);
  const graph::BlockedCsr layout = graph::build_blocked_csr(norm);
  const Tensor x = random_tensor({data.num_nodes(), 12}, 51);
  for (const Precision p : {Precision::kFp16, Precision::kBf16}) {
    const HalfBuffer hx = HalfBuffer::quantize(x, p);
    const Tensor wx = hx.widen();

    Tensor expected = Tensor::empty({data.num_nodes(), 12});
    ag::spmm_blocked_overwrite(layout, wx, expected);
    Tensor y = Tensor::empty({data.num_nodes(), 12});
    ag::spmm_blocked_overwrite(layout, hx, y);
    EXPECT_EQ(ops::max_abs_diff(y, expected), 0.0f)
        << precision_name(p) << " blocked";

    Tensor expected_spans = Tensor::empty({data.num_nodes(), 12});
    ag::spmm_spans_overwrite(norm.indptr, norm.indices, norm.values, wx,
                             expected_spans);
    Tensor y_spans = Tensor::empty({data.num_nodes(), 12});
    ag::spmm_spans_overwrite(norm.indptr, norm.indices, norm.values, hx,
                             y_spans);
    EXPECT_EQ(ops::max_abs_diff(y_spans, expected_spans), 0.0f)
        << precision_name(p) << " spans";
  }
}

// ---- Accuracy parity: engine and servers vs the fp32 reference -----------

struct ParityCheck {
  std::int64_t decisive = 0;
  std::int64_t flipped = 0;
};

/// Compare one half-served logit row against the fp32 reference row:
/// every class inside `tol`, and on decisive nodes (fp32 top-2 margin
/// beyond 2*tol — outside the band where quantisation can legally flip a
/// tie) the argmax must match exactly.
void check_row(const float* ref, const float* got, std::int64_t d,
               double tol, const std::string& tag, ParityCheck& pc) {
  for (std::int64_t j = 0; j < d; ++j) {
    EXPECT_NEAR(got[j], ref[j], tol) << tag << " class " << j;
  }
  const std::int64_t best = ops::argmax_row(ref, d);
  float second = -std::numeric_limits<float>::infinity();
  for (std::int64_t j = 0; j < d; ++j) {
    if (j != best) second = std::max(second, ref[j]);
  }
  if (static_cast<double>(ref[best] - second) <= 2.0 * tol) return;
  ++pc.decisive;
  if (ops::argmax_row(got, d) != best) {
    ++pc.flipped;
    ADD_FAILURE() << tag << ": decisive argmax flipped (margin "
                  << ref[best] - second << ", tol " << tol << ")";
  }
}

class HalfParity
    : public ::testing::TestWithParam<std::tuple<Arch, Precision>> {};

TEST_P(HalfParity, EngineLogitsMatchFp32WithinTolerance) {
  const Arch arch = std::get<0>(GetParam());
  const Precision p = std::get<1>(GetParam());
  const Dataset data = half_dataset();
  const ModelConfig cfg = half_config(arch, data);
  const GnnModel model(cfg);
  Rng rng(61);
  const ParamStore params = model.init_params(rng);
  auto ctx = std::make_shared<const GraphContext>(data.graph, arch);

  serve::InferenceEngine ref_engine(cfg, params, ctx, data.features);
  const Tensor ref = ref_engine.full_logits().clone();
  const double tol = logit_tolerance(p, ref);
  ParityCheck pc;

  // Full pass (the executor's half lowering end to end).
  serve::InferenceEngine engine(cfg, params, ctx, data.features,
                                serve::QueryMode::kSubgraph,
                                serve::FeatureSpace::kOriginal, p);
  EXPECT_EQ(engine.precision(), p);
  const Tensor& full = engine.full_logits();
  for (std::int64_t i = 0; i < data.num_nodes(); ++i) {
    check_row(ref.data() + i * cfg.out_dim, full.data() + i * cfg.out_dim,
              cfg.out_dim, tol,
              std::string(arch_name(arch)) + " full node " + std::to_string(i),
              pc);
  }

  // Subgraph batch queries (half input-row gather + half layers).
  std::vector<std::int64_t> nodes{0, 5, 3, 5, 17, data.num_nodes() - 1};
  Tensor out = Tensor::empty({static_cast<std::int64_t>(nodes.size()),
                              cfg.out_dim});
  engine.query(nodes, out);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    check_row(ref.data() + nodes[i] * cfg.out_dim,
              out.data() + static_cast<std::int64_t>(i) * cfg.out_dim,
              cfg.out_dim, tol,
              std::string(arch_name(arch)) + " subgraph node " +
                  std::to_string(nodes[i]),
              pc);
  }

  // Cached-full mode: answers come out of the half logits table
  // (quantize + widen adds one more storage round-trip, inside tol).
  serve::InferenceEngine cached(cfg, params, ctx, data.features,
                                serve::QueryMode::kCachedFull,
                                serve::FeatureSpace::kOriginal, p);
  cached.query(nodes, out);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    check_row(ref.data() + nodes[i] * cfg.out_dim,
              out.data() + static_cast<std::int64_t>(i) * cfg.out_dim,
              cfg.out_dim, tol,
              std::string(arch_name(arch)) + " cached node " +
                  std::to_string(nodes[i]),
              pc);
  }

  // The argmax check must not be vacuous: on this graph and seed the
  // overwhelming majority of nodes are decisive at tol.
  EXPECT_GT(pc.decisive, data.num_nodes() / 2) << "parity check is vacuous";
  EXPECT_EQ(pc.flipped, 0);
}

TEST_P(HalfParity, ShardedAndReplicatedServersMatchFp32) {
  const Arch arch = std::get<0>(GetParam());
  const Precision p = std::get<1>(GetParam());
  const Dataset data = half_dataset();
  const ModelConfig cfg = half_config(arch, data);
  const GnnModel model(cfg);
  Rng rng(61);
  const ParamStore params = model.init_params(rng);
  auto ctx = std::make_shared<const GraphContext>(data.graph, arch);
  serve::InferenceEngine ref_engine(cfg, params, ctx, data.features);
  const Tensor ref = ref_engine.full_logits().clone();
  const double tol = logit_tolerance(p, ref);
  const serve::Snapshot snap =
      serve::make_snapshot(cfg, params, data, "half-parity");

  std::vector<std::int64_t> nodes;
  for (std::int64_t i = 0; i < data.num_nodes(); i += 7) nodes.push_back(i);

  for (const std::int64_t replicas : {1LL, 2LL}) {
    serve::ShardServerOptions sopt;
    sopt.num_shards = 2;
    sopt.partitioner = "multilevel";
    sopt.replication_factor = replicas;
    sopt.server.workers = 2;
    sopt.server.precision = p;
    const ShardSet shards = serve::make_serving_shards(data.graph, cfg, sopt);
    serve::ShardedServer server(snap, shards, data.features, sopt);
    const std::vector<serve::QueryResult> results = server.query(nodes);
    ASSERT_EQ(results.size(), nodes.size());
    ParityCheck pc;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      ASSERT_TRUE(results[i].ok())
          << arch_name(arch) << " R=" << replicas << " node " << nodes[i]
          << ": " << results[i].error().message;
      const serve::Prediction& pred = results[i].value();
      const float* ref_row = ref.data() + nodes[i] * cfg.out_dim;
      // The returned score is the logit at the served label; it must
      // agree with the fp32 logit at that same label.
      EXPECT_NEAR(pred.score, ref_row[pred.label], tol)
          << arch_name(arch) << " R=" << replicas << " node " << nodes[i];
      const std::int64_t best = ops::argmax_row(ref_row, cfg.out_dim);
      float second = -std::numeric_limits<float>::infinity();
      for (std::int64_t j = 0; j < cfg.out_dim; ++j) {
        if (j != best) second = std::max(second, ref_row[j]);
      }
      if (static_cast<double>(ref_row[best] - second) <= 2.0 * tol) continue;
      ++pc.decisive;
      EXPECT_EQ(pred.label, best)
          << arch_name(arch) << " R=" << replicas << " node " << nodes[i]
          << ": decisive argmax flipped";
    }
    EXPECT_GT(pc.decisive, static_cast<std::int64_t>(nodes.size()) / 2)
        << "parity check is vacuous";
  }
}

INSTANTIATE_TEST_SUITE_P(
    ArchByPrecision, HalfParity,
    ::testing::Combine(::testing::Values(Arch::kGcn, Arch::kSage,
                                         Arch::kGat),
                       ::testing::Values(Precision::kFp16,
                                         Precision::kBf16)));

// ---- Zero tracked allocation in the half steady state --------------------

TEST(HalfEngine, SteadyStateDoesNotAllocate) {
  const Dataset data = half_dataset();
  for (const Arch arch : {Arch::kGcn, Arch::kSage, Arch::kGat}) {
    const ModelConfig cfg = half_config(arch, data);
    const GnnModel model(cfg);
    Rng rng(55);
    const ParamStore params = model.init_params(rng);
    const auto plan = std::make_shared<const graph::GraphPlan>(
        data.graph, graph::Reorder::kRcm);
    const auto ctx = std::make_shared<const GraphContext>(plan, arch);

    serve::InferenceEngine engine(cfg, params, ctx, data.features,
                                  serve::QueryMode::kSubgraph,
                                  serve::FeatureSpace::kOriginal,
                                  Precision::kFp16);
    std::vector<std::int64_t> nodes{1, 4, 9, 4};
    Tensor out = Tensor::empty({static_cast<std::int64_t>(nodes.size()),
                                cfg.out_dim});
    engine.full_logits();
    engine.query(nodes, out);
    engine.predict(2);

    const std::uint64_t allocs = MemoryTracker::alloc_count();
    engine.invalidate();
    engine.full_logits();
    engine.query(nodes, out);
    engine.predict(7);
    EXPECT_EQ(MemoryTracker::alloc_count(), allocs)
        << arch_name(arch)
        << ": half steady-state infer must not allocate tracked memory";

    // Cached-full half mode: warm table, then pure half-table gathers.
    serve::InferenceEngine cached(cfg, params, ctx, data.features,
                                  serve::QueryMode::kCachedFull,
                                  serve::FeatureSpace::kOriginal,
                                  Precision::kFp16);
    cached.query(nodes, out);
    const std::uint64_t cached_allocs = MemoryTracker::alloc_count();
    cached.query(nodes, out);
    cached.invalidate();
    cached.query(nodes, out);
    EXPECT_EQ(MemoryTracker::alloc_count(), cached_allocs)
        << arch_name(arch)
        << ": half cached-table lookups must not allocate tracked memory";
  }
}

// ---- Quantized snapshots (GSQ1) ------------------------------------------

serve::Snapshot quick_half_snapshot(const Dataset& data,
                                    const ModelConfig& cfg,
                                    std::uint64_t seed) {
  const GnnModel model(cfg);
  Rng rng(seed);
  return serve::make_snapshot(cfg, model.init_params(rng), data, "quantized");
}

TEST(QuantizedSnapshot, RoundTripWidensExactly) {
  const Dataset data = half_dataset();
  for (const Arch arch : {Arch::kGcn, Arch::kSage, Arch::kGat}) {
    const serve::Snapshot snap =
        quick_half_snapshot(data, half_config(arch, data), 71);
    for (const Precision p : {Precision::kFp16, Precision::kBf16}) {
      std::stringstream ss;
      serve::write_quantized_snapshot(ss, snap, p);
      const serve::Snapshot back = serve::read_snapshot(ss);

      EXPECT_EQ(back.config.arch, snap.config.arch);
      EXPECT_EQ(back.method, snap.method);
      EXPECT_EQ(back.graph.num_nodes, snap.graph.num_nodes);
      ASSERT_TRUE(ParamStore::compatible(snap.params, back.params));
      for (const auto& e : snap.params.entries()) {
        // Loaded tensors are exactly widen(quantize(original)) ...
        EXPECT_EQ(ops::max_abs_diff(back.params.get(e.name),
                                    wq(e.tensor, p)),
                  0.0f)
            << arch_name(arch) << " " << precision_name(p) << " " << e.name;
        // ... so re-quantizing them reproduces the on-disk bit patterns.
        const HalfBuffer original = HalfBuffer::quantize(e.tensor, p);
        const HalfBuffer reloaded =
            HalfBuffer::quantize(back.params.get(e.name), p);
        EXPECT_EQ(std::memcmp(original.data(), reloaded.data(),
                              original.bytes()),
                  0)
            << arch_name(arch) << " " << precision_name(p) << " " << e.name;
      }

      // The version-agnostic sharded reader loads the same file with zero
      // shards (serve_cli and every serving entry point use this path).
      std::stringstream ss2;
      serve::write_quantized_snapshot(ss2, snap, p);
      const serve::ShardedSnapshot any = serve::read_sharded_snapshot(ss2);
      EXPECT_FALSE(any.sharded());
      EXPECT_TRUE(ParamStore::compatible(snap.params, any.snapshot.params));
    }
  }
}

TEST(QuantizedSnapshot, HalfServingFromQuantizedFileIsBitExact) {
  // The deployment contract: quantize a snapshot to disk, load it (params
  // widen to fp32), serve it at the matching half precision — the engine
  // re-quantizes the widened weights bit-identically (quantize-of-widen
  // is the identity), so logits equal serving the ORIGINAL weights at
  // that precision, bit for bit.
  const Dataset data = half_dataset();
  const ModelConfig cfg = half_config(Arch::kSage, data);
  const serve::Snapshot snap = quick_half_snapshot(data, cfg, 73);
  auto ctx = std::make_shared<const GraphContext>(data.graph, Arch::kSage);
  for (const Precision p : {Precision::kFp16, Precision::kBf16}) {
    std::stringstream ss;
    serve::write_quantized_snapshot(ss, snap, p);
    const serve::Snapshot loaded = serve::read_snapshot(ss);

    serve::InferenceEngine original(cfg, snap.params, ctx, data.features,
                                    serve::QueryMode::kSubgraph,
                                    serve::FeatureSpace::kOriginal, p);
    serve::InferenceEngine quantized(cfg, loaded.params, ctx, data.features,
                                     serve::QueryMode::kSubgraph,
                                     serve::FeatureSpace::kOriginal, p);
    EXPECT_EQ(ops::max_abs_diff(original.full_logits(),
                                quantized.full_logits()),
              0.0f)
        << precision_name(p);
  }
}

TEST(QuantizedSnapshot, FileSaveLoadRoundTrip) {
  const Dataset data = half_dataset();
  const serve::Snapshot snap =
      quick_half_snapshot(data, half_config(Arch::kGcn, data), 79);
  const std::string path = "test_quantized_snapshot.gsnp";
  serve::save_quantized_snapshot(path, snap, Precision::kFp16);
  const serve::Snapshot back = serve::load_snapshot(path);
  ASSERT_TRUE(ParamStore::compatible(snap.params, back.params));
  for (const auto& e : snap.params.entries()) {
    EXPECT_EQ(ops::max_abs_diff(back.params.get(e.name),
                                wq(e.tensor, Precision::kFp16)),
              0.0f)
        << e.name;
  }
  back.validate();  // a loaded quantized snapshot is a servable snapshot
  std::remove(path.c_str());
}

TEST(QuantizedSnapshot, RejectsFp32Precision) {
  const Dataset data = half_dataset();
  const serve::Snapshot snap =
      quick_half_snapshot(data, half_config(Arch::kGcn, data), 81);
  std::stringstream ss;
  EXPECT_THROW(serve::write_quantized_snapshot(ss, snap, Precision::kFp32),
               CheckError);
}

TEST(QuantizedSnapshot, FuzzedCorruptionAlwaysThrowsCheckError) {
  // Same acceptance bar as the fp32 v2 fuzz in test_serve.cpp: ANY
  // single-byte corruption or truncation of a quantized snapshot must
  // raise CheckError — never a crash, never silently-deserialised
  // garbage weights (the GSQ1 section adds the per-tensor max-abs check
  // on top of the CRC framing; this fuzz exercises both layers).
  const Dataset data = half_dataset();
  const serve::Snapshot snap =
      quick_half_snapshot(data, half_config(Arch::kGcn, data), 83);
  std::stringstream ss;
  serve::write_quantized_snapshot(ss, snap, Precision::kFp16);
  const std::string bytes = ss.str();
  ASSERT_GT(bytes.size(), 64u);

  Rng rng(4321);
  constexpr int kRounds = 1200;
  for (int round = 0; round < kRounds; ++round) {
    std::string bad = bytes;
    if (round % 3 == 0) {
      bad.resize(static_cast<std::size_t>(rng.uniform_int(bytes.size())));
    } else {
      const auto pos =
          static_cast<std::size_t>(rng.uniform_int(bytes.size()));
      const auto mask = static_cast<char>(1 + rng.uniform_int(255));
      bad[pos] = static_cast<char>(bad[pos] ^ mask);
    }
    std::stringstream is(bad);
    EXPECT_THROW(serve::read_snapshot(is), CheckError)
        << "corruption round " << round << " was not detected";
  }
}

}  // namespace
}  // namespace gsoup
