// Executor / LayerPlan suite: the contracts the one-compiled-forward
// refactor rests on.
//
//  - Train-vs-infer logits parity, BIT-exact: the tape forward
//    (exec::run_train via GnnModel::forward) and the infer-mode Executor
//    (via serve::InferenceEngine and directly) execute the same compiled
//    LayerPlan through the same kernels, so their logits must be
//    identical to the last bit — across arch {GCN, SAGE, GAT} x context
//    {plain, GraphPlan none/degree/rcm} (plain contexts run the int32
//    span kernels, GraphPlan contexts the cached narrow-index layouts,
//    so both index widths are covered end to end).
//  - The GAT alpha-skip infer kernel is bit-identical to the training
//    forward at both layout index widths, and the heads=1 backward span
//    routing is a plan-compile decision (LayerStep.attn_layout_backward).
//  - Full pass == exact subgraph rows at every storage precision (fp32,
//    fp16, bf16) x context {plain, RCM}: bit-equal for GCN and SAGE, the
//    latter with the full pass on the fused combine-bias GEMM and the
//    batches on the fallback epilogue.
//  - Zero-alloc steady state in infer mode: full passes and subgraph
//    queries perform no tracked allocation once warm.
//  - Gradcheck through the train-mode plan path (plan-aware layouts on),
//    so the compiled backward routing optimises the true objective.
//  - Minibatch blocks sampled with BlockTranspose::kBuild carry the
//    cached backward transpose, and block_spmm gradients through it match
//    the seed scatter.
//  - The block forward over an exact field (SplitEvaluator::field()) is
//    bit-equal to the full tape forward's rows for SAGE.
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ag/graph_ops.hpp"
#include "ag/loss.hpp"
#include "ag/ops.hpp"
#include "exec/executor.hpp"
#include "exec/layer_plan.hpp"
#include "graph/generator.hpp"
#include "graph/locality.hpp"
#include "nn/model.hpp"
#include "serve/engine.hpp"
#include "tensor/init.hpp"
#include "tensor/ops.hpp"
#include "test_helpers.hpp"
#include "train/metrics.hpp"
#include "util/memory_tracker.hpp"
#include "util/rng.hpp"

namespace gsoup {
namespace {

Dataset exec_dataset() {
  SyntheticSpec spec;
  spec.num_nodes = 180;
  spec.avg_degree = 7.0;
  spec.num_classes = 4;
  spec.feature_dim = 10;
  spec.degree_sigma = 1.4;
  spec.seed = 23;
  return generate_dataset(spec);
}

ModelConfig exec_config(Arch arch, const Dataset& data) {
  ModelConfig cfg;
  cfg.arch = arch;
  cfg.in_dim = data.feature_dim();
  cfg.out_dim = data.num_classes;
  cfg.num_layers = 2;
  cfg.hidden_dim = arch == Arch::kGat ? 8 : 12;
  cfg.heads = 2;
  return cfg;
}

std::vector<Arch> all_archs() {
  return {Arch::kGcn, Arch::kSage, Arch::kGat};
}

/// Logits through the tape (exec::run_train via the model shim), in the
/// caller's original numbering.
Tensor tape_logits(const ModelConfig& cfg, const GraphContext& ctx,
                   const Dataset& plan_data, const ParamStore& params,
                   const graph::GraphPlan* plan) {
  ag::NoGradGuard guard;
  const GnnModel model(cfg);
  const ag::Value features = ag::constant(plan_data.features);
  const ParamMap pm = as_leaves(params, /*requires_grad=*/false);
  Tensor out = model.forward(ctx, features, pm)->value;
  if (plan != nullptr && plan->active()) out = plan->unpermute_rows(out);
  return out.clone();
}

// ---- Plan compilation ----------------------------------------------------

TEST(LayerPlan, CompiledOncePerGeometryAndSharesLayouts) {
  const Dataset data = exec_dataset();
  for (const Arch arch : all_archs()) {
    const ModelConfig cfg = exec_config(arch, data);
    const auto plan = std::make_shared<const graph::GraphPlan>(
        data.graph, graph::Reorder::kDegree);
    const GraphContext ctx(plan, arch);
    const exec::LayerPlan& a = ctx.layer_plan(cfg);
    const exec::LayerPlan& b = ctx.layer_plan(cfg);
    EXPECT_EQ(&a, &b) << "same geometry must return the memoised plan";
    EXPECT_EQ(a.num_layers(), cfg.num_layers);
    for (const auto& step : a.steps()) {
      if (arch == Arch::kGat) {
        EXPECT_EQ(step.attn_layout, ctx.attn_layout());
        // Span routing for single-head steps is a compile decision: the
        // last GAT layer has 1 head and must not request the transpose.
        EXPECT_EQ(step.attn_layout_backward, step.heads > 1);
      } else {
        EXPECT_EQ(step.spmm_layout, ctx.spmm_layout());
      }
    }
    // A different geometry compiles a different plan.
    ModelConfig other = cfg;
    other.hidden_dim += 4;
    EXPECT_NE(&ctx.layer_plan(other), &a);
  }
}

TEST(LayerPlan, RejectsArchMismatch) {
  const Dataset data = exec_dataset();
  const GraphContext ctx(data.graph, Arch::kGcn);
  EXPECT_THROW(ctx.layer_plan(exec_config(Arch::kGat, data)), CheckError);
}

// ---- Bit-exact train-vs-infer parity ------------------------------------

class ExecParity
    : public ::testing::TestWithParam<std::tuple<Arch, int>> {};

TEST_P(ExecParity, TrainAndInferLogitsBitExact) {
  const Arch arch = std::get<0>(GetParam());
  const int mode = std::get<1>(GetParam());  // 0=plain, 1..3=GraphPlan
  const Dataset data = exec_dataset();
  const ModelConfig cfg = exec_config(arch, data);
  const GnnModel model(cfg);
  Rng rng(101);
  const ParamStore params = model.init_params(rng);

  std::shared_ptr<const GraphContext> ctx;
  std::shared_ptr<const graph::GraphPlan> plan;
  Dataset plan_data = data;
  if (mode == 0) {
    ctx = std::make_shared<const GraphContext>(data.graph, arch);
  } else {
    const graph::Reorder reorder =
        mode == 1 ? graph::Reorder::kNone
                  : (mode == 2 ? graph::Reorder::kDegree
                               : graph::Reorder::kRcm);
    plan = std::make_shared<const graph::GraphPlan>(data.graph, reorder);
    plan_data = plan->apply(data);
    ctx = std::make_shared<const GraphContext>(plan, arch);
  }

  const Tensor expected =
      tape_logits(cfg, *ctx, plan_data, params, plan.get());

  // Infer mode through the serving engine (full pass + cached rows).
  serve::InferenceEngine engine(cfg, params, ctx, data.features,
                                serve::QueryMode::kSubgraph);
  const Tensor& full = engine.full_logits();
  EXPECT_EQ(ops::max_abs_diff(full, expected), 0.0f)
      << arch_name(arch) << " mode " << mode
      << ": infer full pass must be bit-identical to the tape";

  // Exact subgraph queries agree with the full pass to the bit as well
  // for GCN/SAGE (identical per-row op order over the same full-fanout
  // neighbourhood). GAT subgraph blocks renumber rows (softmax over the
  // same edge set but gathered in block-local order), which reorders
  // float accumulation — exact equality is not guaranteed there, so a
  // tight tolerance stands in.
  std::vector<std::int64_t> nodes{0, 5, 3, 5,
                                  data.num_nodes() - 1};  // dup included
  Tensor out = Tensor::empty({static_cast<std::int64_t>(nodes.size()),
                              cfg.out_dim});
  engine.query(nodes, out);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::int64_t j = 0; j < cfg.out_dim; ++j) {
      EXPECT_NEAR(out.at(static_cast<std::int64_t>(i), j),
                  expected.at(nodes[i], j), 1e-5f)
          << arch_name(arch) << " node " << nodes[i];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ArchByContext, ExecParity,
    ::testing::Combine(::testing::Values(Arch::kGcn, Arch::kSage,
                                         Arch::kGat),
                       ::testing::Values(0, 1, 2, 3)));

// ---- Full pass == subgraph rows at every storage precision ---------------

/// Sized so that SAGE's full-pass GEMMs clear the blocked-GEMM threshold
/// (ops::gemm_can_combine_bias holds at both layers, so the executor takes
/// the fused ops::matmul_combine_bias branch) while 16-seed subgraph
/// batches stay below it and take the separate-GEMM fallback combine.
Dataset fused_combine_dataset() {
  SyntheticSpec spec;
  spec.num_nodes = 1200;
  spec.avg_degree = 5.0;
  spec.num_classes = 5;
  spec.feature_dim = 24;
  spec.seed = 29;
  return generate_dataset(spec);
}

class StorageParity
    : public ::testing::TestWithParam<std::tuple<Arch, Precision, bool>> {};

// The full pass and exact subgraph batches run the same layer body at
// every storage precision, so their rows are bit-equal for GCN and SAGE —
// for SAGE across the fused and fallback combine branches. GAT subgraph
// blocks renumber rows, which reorders the softmax accumulation, so the
// ExecParity tolerance stands in there.
TEST_P(StorageParity, FullPassRowsEqualSubgraphRows) {
  const auto [arch, precision, rcm] = GetParam();
  const Dataset data = fused_combine_dataset();
  ModelConfig cfg = exec_config(arch, data);
  if (arch != Arch::kGat) cfg.hidden_dim = 32;
  const GnnModel model(cfg);
  Rng rng(59);
  ParamStore params = model.init_params(rng);
  // Non-zero biases: with the zero init, (self + neigh) + bias could not
  // tell a reordered combine from the tape's.
  for (const ParamEntry& e : params.entries()) {
    if (e.name.ends_with("bias")) {
      init::normal(params.get_mutable(e.name), rng, 0.0f, 0.5f);
    }
  }
  const auto ctx =
      rcm ? std::make_shared<const GraphContext>(
                std::make_shared<const graph::GraphPlan>(
                    data.graph, graph::Reorder::kRcm),
                arch)
          : std::make_shared<const GraphContext>(data.graph, arch);
  const std::string tag = std::string(arch_name(arch)) + " " +
                          precision_name(precision) +
                          (rcm ? " rcm" : " plain");

  serve::InferenceEngine engine(cfg, params, ctx, data.features,
                                serve::QueryMode::kSubgraph,
                                serve::FeatureSpace::kOriginal, precision);
  const Tensor& full = engine.full_logits();
  const auto steps = ctx->layer_plan(cfg, precision).steps();
  const auto fused = [&](std::int64_t rows, const exec::LayerStep& step) {
    return ops::gemm_can_combine_bias(rows, step.out_width, step.in_dim);
  };
  if (arch == Arch::kSage) {
    for (const exec::LayerStep& step : steps) {
      EXPECT_TRUE(fused(data.num_nodes(), step))
          << tag << ": full-pass layer " << step.index
          << " must take the fused combine";
    }
  }

  // Batches of 16 strided seeds that together cover every node.
  const std::int64_t batch = 16;
  const std::int64_t stride = data.num_nodes() / batch;
  std::int64_t fallback_batches = 0;
  std::int64_t mismatched_rows = 0;
  Tensor out = Tensor::empty({batch, cfg.out_dim});
  for (std::int64_t b = 0; b < stride; ++b) {
    std::vector<std::int64_t> nodes;
    for (std::int64_t i = 0; i < batch; ++i) nodes.push_back(b + i * stride);
    const auto sp = engine.compile_query_plan(nodes);
    bool all_fallback = true;
    for (std::size_t l = 0; l < steps.size(); ++l) {
      all_fallback = all_fallback && !fused(sp->layers[l].num_dst, steps[l]);
    }
    fallback_batches += all_fallback ? 1 : 0;
    engine.query(nodes, out);
    for (std::int64_t i = 0; i < batch; ++i) {
      const float* got = out.data() + i * cfg.out_dim;
      const float* want = full.data() + nodes[static_cast<std::size_t>(i)] *
                                            cfg.out_dim;
      if (arch == Arch::kGat) {
        for (std::int64_t j = 0; j < cfg.out_dim; ++j) {
          EXPECT_NEAR(got[j], want[j], 1e-5f)
              << tag << " node " << nodes[static_cast<std::size_t>(i)];
        }
      } else if (std::memcmp(got, want, sizeof(float) * cfg.out_dim) != 0) {
        ++mismatched_rows;
      }
    }
  }
  EXPECT_EQ(mismatched_rows, 0)
      << tag << ": subgraph rows must be bit-equal to the full pass";
  if (arch == Arch::kSage) {
    EXPECT_GT(fallback_batches, stride / 2)
        << tag << ": most batches must take the fallback combine";
  }
}

INSTANTIATE_TEST_SUITE_P(
    ArchByPrecisionByContext, StorageParity,
    ::testing::Combine(::testing::Values(Arch::kGcn, Arch::kSage,
                                         Arch::kGat),
                       ::testing::Values(Precision::kFp32, Precision::kFp16,
                                         Precision::kBf16),
                       ::testing::Bool()));

// ---- Alpha-skip kernel parity at both index widths -----------------------

TEST(GatInfer, BitExactAtBothIndexWidths) {
  const Dataset data = exec_dataset();
  const Csr& g = data.graph;
  const std::int64_t n = g.num_nodes;
  const std::int64_t e = g.num_edges();
  Rng rng(7);
  for (const std::int64_t heads : {1LL, 2LL, 4LL, 3LL}) {
    const std::int64_t d = heads == 3 ? 5 : 8;  // 3x5 exercises the
                                                // generic fallback
    Tensor h = Tensor::empty({n, heads * d});
    Tensor sd = Tensor::empty({n, heads});
    Tensor ss = Tensor::empty({n, heads});
    init::normal(h, rng, 0.0f, 1.0f);
    init::normal(sd, rng, 0.0f, 1.0f);
    init::normal(ss, rng, 0.0f, 1.0f);
    Tensor alpha = Tensor::empty({e, heads});
    Tensor want = Tensor::empty({n, heads * d});
    ag::gat_attention_forward(g.indptr, g.indices, h, sd, ss, heads, 0.2f,
                              alpha, want);

    Tensor got = Tensor::empty({n, heads * d});
    ag::gat_attention_infer(g.indptr, g.indices, h, sd, ss, heads, 0.2f,
                            got);
    EXPECT_EQ(ops::max_abs_diff(got, want), 0.0f) << "spans, heads=" << heads;

    for (const bool wide : {false, true}) {
      const graph::BlockedCsr layout = graph::build_blocked_csr(g, wide);
      got.zero_();
      ag::gat_attention_infer(layout, h, sd, ss, heads, 0.2f, got);
      EXPECT_EQ(ops::max_abs_diff(got, want), 0.0f)
          << (wide ? "wide" : "narrow") << " layout, heads=" << heads;
    }
  }
}

TEST(GatInfer, ZeroEdgeAndIsolatedRows) {
  // Rows with no in-edges must produce zero rows (denom == 0 guard),
  // matching the training kernel.
  BuildOptions opts;
  opts.symmetrize = false;
  opts.add_self_loops = false;
  const Csr g = build_csr(3, {{0, 1}}, opts);
  const std::int64_t heads = 2, d = 8;
  Rng rng(9);
  Tensor h = Tensor::empty({3, heads * d});
  Tensor sd = Tensor::empty({3, heads});
  Tensor ss = Tensor::empty({3, heads});
  init::normal(h, rng, 0.0f, 1.0f);
  init::normal(sd, rng, 0.0f, 1.0f);
  init::normal(ss, rng, 0.0f, 1.0f);
  Tensor alpha = Tensor::empty({g.num_edges(), heads});
  Tensor want = Tensor::empty({3, heads * d});
  ag::gat_attention_forward(g.indptr, g.indices, h, sd, ss, heads, 0.2f,
                            alpha, want);
  Tensor got = Tensor::empty({3, heads * d});
  ag::gat_attention_infer(g.indptr, g.indices, h, sd, ss, heads, 0.2f, got);
  EXPECT_EQ(ops::max_abs_diff(got, want), 0.0f);
}

// ---- Zero-alloc steady state ---------------------------------------------

TEST(Executor, InferModeAllocatesNothingOnceWarm) {
  const Dataset data = exec_dataset();
  for (const Arch arch : all_archs()) {
    const ModelConfig cfg = exec_config(arch, data);
    const GnnModel model(cfg);
    Rng rng(55);
    const ParamStore params = model.init_params(rng);
    const auto plan = std::make_shared<const graph::GraphPlan>(
        data.graph, graph::Reorder::kRcm);
    const auto ctx = std::make_shared<const GraphContext>(plan, arch);
    serve::InferenceEngine engine(cfg, params, ctx, data.features);
    EXPECT_GT(engine.workspace_bytes(), 0u);

    // Warm up every path once (full pass, batch query, single query).
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
        << ": steady-state infer must not allocate tracked memory";
  }
}

// ---- Gradcheck through the compiled train path ---------------------------

class PlanGradCheck : public ::testing::TestWithParam<Arch> {};

TEST_P(PlanGradCheck, GradientsThroughPlanPathMatchFiniteDifferences) {
  const Arch arch = GetParam();
  const Dataset base = testing::tiny_dataset();
  ModelConfig cfg;
  cfg.arch = arch;
  cfg.in_dim = base.feature_dim();
  cfg.hidden_dim = 3;
  cfg.out_dim = base.num_classes;
  cfg.num_layers = 2;
  cfg.heads = 2;
  cfg.dropout = 0.0f;  // deterministic forward for finite differences
  const GnnModel model(cfg);
  // A reordering plan, so the train-mode executor runs the cached-layout
  // kernels and the compile-time backward routing (incl. the heads=1
  // span decision on the GAT output layer).
  const auto plan = std::make_shared<const graph::GraphPlan>(
      base.graph, graph::Reorder::kDegree);
  const Dataset data = plan->apply(base);
  const GraphContext ctx(plan, arch);
  // Seed 11 matches tests/test_model_gradcheck.cpp: central differences
  // with eps=2e-2 straddle a ReLU kink for some inits (e.g. seed 31
  // breaks one hidden column's numeric gradient), and the analytic
  // gradient is the same object under test there.
  Rng rng(11);
  ParamStore params = model.init_params(rng);
  ParamMap leaves = as_leaves(params, /*requires_grad=*/true);
  std::vector<ag::Value> leaf_list;
  for (auto& [name, leaf] : leaves) leaf_list.push_back(leaf);

  const auto train_nodes = data.split_nodes(Split::kTrain);
  testing::check_gradients(
      [&] {
        const ag::Value x = ag::constant(data.features);
        const ag::Value logits = model.forward(ctx, x, leaves);
        return ag::cross_entropy(logits, data.labels, train_nodes);
      },
      leaf_list, /*eps=*/2e-2f, /*atol=*/3e-3f, /*rtol=*/4e-2f);
}

INSTANTIATE_TEST_SUITE_P(AllArchs, PlanGradCheck,
                         ::testing::Values(Arch::kGcn, Arch::kSage,
                                           Arch::kGat));

// ---- Minibatch blocks with sample-time transposes ------------------------

TEST(BlockTransposeAtSampleTime, CarriedAndGradExact) {
  const Dataset data = exec_dataset();
  Rng rng(77);
  std::vector<std::int64_t> seeds{0, 3, 8, 15, 22};
  const std::vector<std::int64_t> fanouts{4, 3};
  const auto blocks = sample_blocks(data.graph, seeds, fanouts, rng,
                                    BlockTranspose::kBuild);
  ASSERT_EQ(blocks.size(), 2u);
  for (const Block& b : blocks) {
    ASSERT_NE(b.transpose, nullptr);
    EXPECT_EQ(b.transpose->num_rows, b.num_src());
    EXPECT_EQ(b.transpose->num_edges(), b.num_edges());
    EXPECT_TRUE(b.transpose->epos.empty());  // SpMM gather never reads it

    // Gradient through the carried transpose == the seed scatter.
    const std::int64_t dim = 6;
    Tensor xt = Tensor::empty({b.num_src(), dim});
    init::normal(xt, rng, 0.0f, 1.0f);
    ag::Value x = ag::make_leaf(xt.clone(), /*requires_grad=*/true);
    ag::Value y = ag::block_spmm(b, x);
    ag::backward(ag::sum(y));

    Tensor want = Tensor::zeros({b.num_src(), dim});
    Tensor grad_ones = Tensor::empty({b.num_dst, dim});
    grad_ones.fill_(1.0f);
    ag::block_spmm_backward_scatter(b, grad_ones, want);
    EXPECT_LE(ops::max_abs_diff(x->grad, want), 1e-5f);
  }

  // Default sampling still carries no transpose.
  Rng rng2(77);
  const auto plain = sample_blocks(data.graph, seeds, fanouts, rng2);
  for (const Block& b : plain) EXPECT_EQ(b.transpose, nullptr);
}

// ---- Standalone subgraph plans (server LRU building block) ---------------

// An exact field is a Block stack, so the tape's block forward runs over
// a SplitEvaluator's receptive field as it is, with no copy: its rows must
// equal the full-graph tape forward's val rows to the bit.
TEST(BlockForward, ExactFieldRowsEqualFullTapeRows) {
  const Dataset data = exec_dataset();
  const ModelConfig cfg = exec_config(Arch::kSage, data);
  const GnnModel model(cfg);
  Rng rng(61);
  ParamStore params = model.init_params(rng);
  for (const ParamEntry& e : params.entries()) {
    if (e.name.ends_with("bias")) {
      init::normal(params.get_mutable(e.name), rng, 0.0f, 0.5f);
    }
  }
  const GraphContext ctx(data.graph, Arch::kSage);
  const SplitEvaluator eval(model, ctx, data, params, Split::kVal);
  const std::vector<Block>& field = eval.field().layers;
  for (const Block& b : field) EXPECT_EQ(b.transpose, nullptr);

  const Tensor full = tape_logits(cfg, ctx, data, params, nullptr);
  ag::NoGradGuard guard;
  const ag::Value x = ag::gather_rows(ag::constant(data.features),
                                      field.front().src_nodes);
  const Tensor rows =
      model.forward_blocks(field, x, as_leaves(params, false))->value;

  const auto val = data.split_nodes(Split::kVal);
  ASSERT_EQ(rows.shape(0), static_cast<std::int64_t>(val.size()));
  for (std::size_t i = 0; i < val.size(); ++i) {
    EXPECT_EQ(std::memcmp(rows.data() + static_cast<std::int64_t>(i) *
                                            cfg.out_dim,
                          full.data() + val[i] * cfg.out_dim,
                          sizeof(float) * cfg.out_dim),
              0)
        << "val node " << val[i];
  }
}

TEST(SubgraphPlans, CompiledPlanMatchesDirectQuery) {
  const Dataset data = exec_dataset();
  const ModelConfig cfg = exec_config(Arch::kSage, data);
  const GnnModel model(cfg);
  Rng rng(5);
  const ParamStore params = model.init_params(rng);
  const auto ctx =
      std::make_shared<const GraphContext>(data.graph, Arch::kSage);
  serve::InferenceEngine engine(cfg, params, ctx, data.features);

  std::vector<std::int64_t> nodes{2, 11, 2, 40};
  const auto n = static_cast<std::int64_t>(nodes.size());
  Tensor direct = Tensor::empty({n, cfg.out_dim});
  engine.query(nodes, direct);

  const auto plan = engine.compile_query_plan(nodes);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->num_queries(), n);
  EXPECT_GT(plan->bytes(), 0u);
  Tensor cached = Tensor::empty({n, cfg.out_dim});
  engine.query(*plan, cached);
  EXPECT_EQ(ops::max_abs_diff(cached, direct), 0.0f);

  // A second engine over the same context executes the shared plan too.
  serve::InferenceEngine other(cfg, params, ctx, data.features);
  Tensor shared = Tensor::empty({n, cfg.out_dim});
  other.query(*plan, shared);
  EXPECT_EQ(ops::max_abs_diff(shared, direct), 0.0f);
}

}  // namespace
}  // namespace gsoup
