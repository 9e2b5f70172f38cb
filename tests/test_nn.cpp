// ParamStore semantics and GNN model tests (init shapes, forward shapes,
// gradient flow to every parameter, architecture-specific behaviour).
#include <cstring>
#include <utility>

#include <gtest/gtest.h>

#include "ag/graph_ops.hpp"
#include "ag/loss.hpp"
#include "ag/ops.hpp"
#include "nn/graph_context.hpp"
#include "nn/model.hpp"
#include "nn/param.hpp"
#include "tensor/init.hpp"
#include "tensor/ops.hpp"
#include "test_helpers.hpp"

namespace gsoup {
namespace {

using testing::tiny_dataset;

ParamStore two_entry_store(float w_fill, float b_fill) {
  ParamStore s;
  s.add("layers.0.weight", Tensor::full({2, 3}, w_fill), 0);
  s.add("layers.1.weight", Tensor::full({3, 2}, b_fill), 1);
  return s;
}

TEST(ParamStore, AddGetAndLayerGrouping) {
  const ParamStore s = two_entry_store(1.0f, 2.0f);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.num_layers(), 2);
  EXPECT_EQ(s.layer_of("layers.1.weight"), 1);
  EXPECT_EQ(s.total_params(), 6 + 6);
  EXPECT_FLOAT_EQ(s.get("layers.0.weight").at(0), 1.0f);
  EXPECT_THROW(s.get("nope"), CheckError);
}

TEST(ParamStore, DuplicateNameThrows) {
  ParamStore s;
  s.add("w", Tensor::zeros({1}), 0);
  EXPECT_THROW(s.add("w", Tensor::zeros({1}), 0), CheckError);
}

TEST(ParamStore, CloneIsDeep) {
  ParamStore a = two_entry_store(1.0f, 2.0f);
  ParamStore b = a.clone();
  b.get_mutable("layers.0.weight").fill_(9.0f);
  EXPECT_FLOAT_EQ(a.get("layers.0.weight").at(0), 1.0f);
}

TEST(ParamStore, AverageAndInterpolate) {
  const ParamStore a = two_entry_store(1.0f, 10.0f);
  const ParamStore b = two_entry_store(3.0f, 20.0f);
  const std::vector<const ParamStore*> models{&a, &b};
  const ParamStore avg = ParamStore::average(models);
  EXPECT_FLOAT_EQ(avg.get("layers.0.weight").at(0), 2.0f);
  EXPECT_FLOAT_EQ(avg.get("layers.1.weight").at(0), 15.0f);

  const ParamStore mixed = ParamStore::interpolate(a, b, 0.25f);
  EXPECT_FLOAT_EQ(mixed.get("layers.0.weight").at(0), 1.5f);
  EXPECT_FLOAT_EQ(mixed.get("layers.1.weight").at(0), 12.5f);
}

/// Two stores of random values; the wide entry crosses the elementwise
/// ops' parallel threshold.
std::pair<ParamStore, ParamStore> random_store_pair() {
  Rng rng(13);
  ParamStore a, b;
  for (ParamStore* s : {&a, &b}) {
    Tensor w = Tensor::empty({300, 300});
    Tensor bias = Tensor::empty({7});
    init::normal(w, rng, 0.0f, 1.0f);
    init::normal(bias, rng, 0.0f, 1.0f);
    s->add("layers.0.weight", std::move(w), 0);
    s->add("layers.0.bias", std::move(bias), 0);
  }
  return {std::move(a), std::move(b)};
}

bool bitwise_equal(const Tensor& x, const Tensor& y) {
  return same_shape(x, y) &&
         std::memcmp(x.data(), y.data(), x.bytes()) == 0;
}

TEST(ParamStore, InterpolateIntoIsBitwiseTheAllocatingArithmetic) {
  const auto [a, b] = random_store_pair();
  for (const float alpha : {0.0f, 0.3f, 1.0f / 3.0f, 1.0f}) {
    ParamStore out = b.clone();  // stale contents must not leak through
    ParamStore::interpolate_into(out, a, b.clone(), alpha);
    ParamStore aliased = a.clone();
    ParamStore::interpolate_into(aliased, aliased, b, alpha);
    const ParamStore mixed = ParamStore::interpolate(a, b, alpha);
    for (const ParamEntry& e : a.entries()) {
      // The arithmetic interpolate has always used.
      Tensor want = e.tensor.clone();
      want.mul_(1.0f - alpha);
      want.add_(b.get(e.name), alpha);
      EXPECT_TRUE(bitwise_equal(out.get(e.name), want))
          << e.name << " alpha " << alpha;
      EXPECT_TRUE(bitwise_equal(aliased.get(e.name), want))
          << "aliased " << e.name << " alpha " << alpha;
      EXPECT_TRUE(bitwise_equal(mixed.get(e.name), want))
          << "interpolate " << e.name << " alpha " << alpha;
    }
  }
  ParamStore onto_b = b.clone();
  EXPECT_THROW(ParamStore::interpolate_into(onto_b, a, onto_b, 0.5f),
               CheckError);
}

TEST(ParamStore, AverageIntoIsBitwiseTheAllocatingArithmetic) {
  const auto [a, b] = random_store_pair();
  const ParamStore c = a.clone();
  const std::vector<const ParamStore*> models{&a, &b, &c};
  ParamStore out = b.clone();
  ParamStore::average_into(out, models);
  const ParamStore avg = ParamStore::average(models);
  for (const ParamEntry& e : a.entries()) {
    Tensor want = Tensor::zeros(e.tensor.shape());
    for (const ParamStore* m : models) want.add_(m->get(e.name), 1.0f / 3.0f);
    EXPECT_TRUE(bitwise_equal(out.get(e.name), want)) << e.name;
    EXPECT_TRUE(bitwise_equal(avg.get(e.name), want)) << e.name;
  }
  ParamStore member = a.clone();
  const std::vector<const ParamStore*> with_out{&member, &b};
  EXPECT_THROW(ParamStore::average_into(member, with_out), CheckError);
}

TEST(ParamStore, CompatibilityChecks) {
  const ParamStore a = two_entry_store(1.0f, 2.0f);
  ParamStore c;
  c.add("layers.0.weight", Tensor::zeros({2, 3}), 0);
  EXPECT_FALSE(ParamStore::compatible(a, c));
  EXPECT_TRUE(ParamStore::compatible(a, a.clone()));
  EXPECT_THROW(ParamStore::interpolate(a, c, 0.5f), CheckError);
}

TEST(ParamStore, AsLeavesSharesStorage) {
  ParamStore s = two_entry_store(1.0f, 2.0f);
  ParamMap leaves = as_leaves(s, true);
  leaves.at("layers.0.weight")->value.fill_(7.0f);
  EXPECT_FLOAT_EQ(s.get("layers.0.weight").at(0), 7.0f);
  EXPECT_TRUE(leaves.at("layers.0.weight")->requires_grad);
}

// ---- Models ---------------------------------------------------------------

class ArchCase : public ::testing::TestWithParam<Arch> {};

TEST_P(ArchCase, InitShapesAndLayerTags) {
  const Arch arch = GetParam();
  ModelConfig cfg;
  cfg.arch = arch;
  cfg.in_dim = 2;
  cfg.hidden_dim = 8;
  cfg.out_dim = 2;
  cfg.num_layers = 2;
  cfg.heads = 2;
  const GnnModel model(cfg);
  Rng rng(1);
  const ParamStore params = model.init_params(rng);
  EXPECT_EQ(params.num_layers(), 2);
  for (const auto& e : params.entries()) {
    EXPECT_TRUE(e.layer == 0 || e.layer == 1);
    EXPECT_GT(e.tensor.numel(), 0);
  }
}

TEST_P(ArchCase, ForwardShapeAndGradFlowToAllParams) {
  const Arch arch = GetParam();
  const Dataset data = tiny_dataset();
  ModelConfig cfg;
  cfg.arch = arch;
  cfg.in_dim = data.feature_dim();
  cfg.hidden_dim = 6;
  cfg.out_dim = data.num_classes;
  cfg.num_layers = 2;
  cfg.heads = 2;
  cfg.dropout = 0.0f;
  const GnnModel model(cfg);
  Rng rng(2);
  ParamStore params = model.init_params(rng);
  const GraphContext ctx(data.graph, arch);

  ParamMap leaves = as_leaves(params, true);
  const ag::Value x = ag::constant(data.features);
  const ag::Value logits = model.forward(ctx, x, leaves);
  EXPECT_EQ(logits->value.shape(0), data.num_nodes());
  EXPECT_EQ(logits->value.shape(1), data.num_classes);
  EXPECT_TRUE(ops::all_finite(logits->value));

  const auto train_nodes = data.split_nodes(Split::kTrain);
  const ag::Value loss = ag::cross_entropy(logits, data.labels, train_nodes);
  ag::backward(loss);
  for (auto& [name, leaf] : leaves) {
    ASSERT_TRUE(leaf->grad.defined()) << name << " got no gradient";
    float norm = 0.0f;
    for (std::int64_t i = 0; i < leaf->grad.numel(); ++i) {
      norm += std::abs(leaf->grad.at(i));
    }
    EXPECT_GT(norm, 0.0f) << name << " gradient is identically zero";
  }
}

TEST_P(ArchCase, ForwardDeterministicInEvalMode) {
  const Arch arch = GetParam();
  const Dataset data = tiny_dataset();
  ModelConfig cfg;
  cfg.arch = arch;
  cfg.in_dim = data.feature_dim();
  cfg.hidden_dim = 4;
  cfg.out_dim = 2;
  const GnnModel model(cfg);
  Rng rng(3);
  const ParamStore params = model.init_params(rng);
  const GraphContext ctx(data.graph, arch);
  const ParamMap map = as_leaves(params, false);
  ag::NoGradGuard guard;
  const ag::Value a = model.forward(ctx, ag::constant(data.features), map);
  const ag::Value b = model.forward(ctx, ag::constant(data.features), map);
  EXPECT_FLOAT_EQ(ops::max_abs_diff(a->value, b->value), 0.0f);
}

INSTANTIATE_TEST_SUITE_P(AllArchs, ArchCase,
                         ::testing::Values(Arch::kGcn, Arch::kSage,
                                           Arch::kGat));

TEST(Model, GcnForwardMatchesManualComputation) {
  // Identity-ish single-layer GCN: logits = Â X W + b, verified densely.
  const Dataset data = tiny_dataset();
  ModelConfig cfg;
  cfg.arch = Arch::kGcn;
  cfg.in_dim = 2;
  cfg.hidden_dim = 4;
  cfg.out_dim = 2;
  cfg.num_layers = 1;
  cfg.dropout = 0.0f;
  const GnnModel model(cfg);
  Rng rng(4);
  ParamStore params = model.init_params(rng);
  const GraphContext ctx(data.graph, Arch::kGcn);
  const ParamMap map = as_leaves(params, false);
  ag::NoGradGuard guard;
  const ag::Value out =
      model.forward(ctx, ag::constant(data.features), map);

  // Dense reference.
  Tensor dense = Tensor::zeros({6, 6});
  const Csr& norm = ctx.gcn();
  for (std::int64_t i = 0; i < 6; ++i) {
    for (std::int64_t e = norm.indptr[i]; e < norm.indptr[i + 1]; ++e) {
      dense.at(i, norm.indices[e]) = norm.values[e];
    }
  }
  const Tensor xw =
      ops::matmul(data.features, params.get("layers.0.weight"));
  const Tensor expect = ops::add_row_broadcast(
      ops::matmul(dense, xw), params.get("layers.0.bias"));
  EXPECT_LT(ops::max_abs_diff(out->value, expect), 1e-5f);
}

TEST(Model, SageMinibatchForwardMatchesShapes) {
  const Dataset data = tiny_dataset();
  ModelConfig cfg;
  cfg.arch = Arch::kSage;
  cfg.in_dim = 2;
  cfg.hidden_dim = 4;
  cfg.out_dim = 2;
  cfg.num_layers = 2;
  cfg.dropout = 0.0f;
  const GnnModel model(cfg);
  Rng rng(5);
  ParamStore params = model.init_params(rng);
  const ParamMap map = as_leaves(params, false);

  Rng sample_rng(6);
  const std::vector<std::int64_t> seeds{0, 3, 5};
  const std::vector<std::int64_t> fanouts{-1, -1};
  const auto blocks = sample_blocks(data.graph, seeds, fanouts, sample_rng);
  ag::NoGradGuard guard;
  const ag::Value x = ag::gather_rows(ag::constant(data.features),
                                      blocks.front().src_nodes);
  const ag::Value out = model.forward_blocks(blocks, x, map);
  EXPECT_EQ(out->value.shape(0), 3);
  EXPECT_EQ(out->value.shape(1), 2);
}

TEST(Model, MinibatchFullFanoutMatchesFullGraphForward) {
  // With fanout = all and shared params, the block forward must reproduce
  // the full-graph forward exactly on the seed rows.
  const Dataset data = tiny_dataset();
  ModelConfig cfg;
  cfg.arch = Arch::kSage;
  cfg.in_dim = 2;
  cfg.hidden_dim = 4;
  cfg.out_dim = 2;
  cfg.num_layers = 2;
  cfg.dropout = 0.0f;
  const GnnModel model(cfg);
  Rng rng(7);
  ParamStore params = model.init_params(rng);
  const ParamMap map = as_leaves(params, false);
  const GraphContext ctx(data.graph, Arch::kSage);

  ag::NoGradGuard guard;
  const ag::Value full =
      model.forward(ctx, ag::constant(data.features), map);

  Rng sample_rng(8);
  const std::vector<std::int64_t> seeds{1, 4};
  const std::vector<std::int64_t> fanouts{-1, -1};
  const auto blocks = sample_blocks(data.graph, seeds, fanouts, sample_rng);
  const ag::Value x = ag::gather_rows(ag::constant(data.features),
                                      blocks.front().src_nodes);
  const ag::Value mini = model.forward_blocks(blocks, x, map);

  for (std::size_t k = 0; k < seeds.size(); ++k) {
    for (std::int64_t c = 0; c < 2; ++c) {
      EXPECT_NEAR(mini->value.at(static_cast<std::int64_t>(k), c),
                  full->value.at(seeds[k], c), 1e-5f);
    }
  }
}

TEST(Model, ConfigValidation) {
  ModelConfig cfg;
  cfg.in_dim = 0;
  cfg.out_dim = 2;
  EXPECT_THROW(GnnModel{cfg}, CheckError);
  cfg.in_dim = 2;
  cfg.num_layers = 0;
  EXPECT_THROW(GnnModel{cfg}, CheckError);
}

TEST(GraphContext, ArchMismatchThrows) {
  const Dataset data = tiny_dataset();
  const GraphContext gcn_ctx(data.graph, Arch::kGcn);
  EXPECT_THROW(gcn_ctx.mean(), CheckError);
  EXPECT_THROW(gcn_ctx.raw_t(), CheckError);

  ModelConfig cfg;
  cfg.arch = Arch::kSage;
  cfg.in_dim = 2;
  cfg.out_dim = 2;
  const GnnModel sage(cfg);
  Rng rng(9);
  const ParamStore params = sage.init_params(rng);
  const ParamMap map = as_leaves(params, false);
  ag::NoGradGuard guard;
  EXPECT_THROW(
      sage.forward(gcn_ctx, ag::constant(data.features), map), CheckError);
}

}  // namespace
}  // namespace gsoup
