// Souping-algorithm semantics: Uniform (US), Greedy (Alg. 1), Greedy
// Interpolated (Alg. 2) and the AlphaSet machinery shared by LS/PLS; the
// receptive-field SplitEvaluator the souping sweeps score candidates with,
// against the full-graph tape evaluation it replaced.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ag/loss.hpp"
#include "core/alpha.hpp"
#include "core/gis.hpp"
#include "core/greedy.hpp"
#include "core/soup.hpp"
#include "core/uniform.hpp"
#include "graph/generator.hpp"
#include "graph/locality.hpp"
#include "tensor/ops.hpp"
#include "test_helpers.hpp"
#include "train/ingredient_farm.hpp"
#include "train/metrics.hpp"
#include "train/trainer.hpp"

namespace gsoup {
namespace {

// Shared fixture: a small dataset with a handful of trained ingredients.
// Built once per test binary (training is the expensive part).
class SoupFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticSpec spec;
    spec.num_nodes = 500;
    spec.num_classes = 4;
    spec.avg_degree = 10;
    spec.homophily = 0.75;
    spec.feature_dim = 16;
    spec.feature_noise = 0.9;
    spec.seed = 71;
    data_ = new Dataset(generate_dataset(spec));

    ModelConfig cfg;
    cfg.arch = Arch::kGcn;
    cfg.in_dim = data_->feature_dim();
    cfg.hidden_dim = 8;
    cfg.out_dim = data_->num_classes;
    cfg.dropout = 0.4f;
    model_ = new GnnModel(cfg);
    ctx_ = new GraphContext(data_->graph, Arch::kGcn);

    FarmConfig farm;
    farm.num_ingredients = 5;
    farm.num_workers = 2;
    farm.train.epochs = 20;
    farm.train.schedule.base_lr = 0.02;
    farm.train.seed = 5;
    farm.init_seed = 17;
    result_ = new FarmResult(train_ingredients(*model_, *ctx_, *data_, farm));
  }

  static void TearDownTestSuite() {
    delete result_;
    delete ctx_;
    delete model_;
    delete data_;
    result_ = nullptr;
    ctx_ = nullptr;
    model_ = nullptr;
    data_ = nullptr;
  }

  SoupContext soup_context() const {
    return {*model_, *ctx_, *data_, result_->ingredients};
  }

  static Dataset* data_;
  static GnnModel* model_;
  static GraphContext* ctx_;
  static FarmResult* result_;
};

Dataset* SoupFixture::data_ = nullptr;
GnnModel* SoupFixture::model_ = nullptr;
GraphContext* SoupFixture::ctx_ = nullptr;
FarmResult* SoupFixture::result_ = nullptr;

TEST_F(SoupFixture, UniformSoupIsExactAverage) {
  UniformSouper souper;
  const SoupContext sctx = soup_context();
  const ParamStore soup = souper.mix(sctx);
  for (const auto& e : soup.entries()) {
    Tensor manual = Tensor::zeros(e.tensor.shape());
    for (const auto& ing : sctx.ingredients) {
      manual.add_(ing.params.get(e.name),
                  1.0f / static_cast<float>(sctx.ingredients.size()));
    }
    EXPECT_LT(ops::max_abs_diff(e.tensor, manual), 1e-6f) << e.name;
  }
}

TEST_F(SoupFixture, GreedySoupNeverBelowBestIngredientOnVal) {
  GreedySouper souper;
  const SoupContext sctx = soup_context();
  const SoupReport report = run_souper(souper, sctx);
  double best_ing = 0.0;
  for (const auto& ing : sctx.ingredients) {
    best_ing = std::max(best_ing, ing.val_acc);
  }
  // Greedy only adds ingredients that don't hurt validation accuracy, and
  // the best ingredient is always admitted first.
  EXPECT_GE(report.val_acc + 1e-9, best_ing);
  EXPECT_FALSE(souper.selected().empty());
}

TEST_F(SoupFixture, GisNeverBelowBestIngredientOnVal) {
  GisSouper souper({.granularity = 10});
  const SoupContext sctx = soup_context();
  const SoupReport report = run_souper(souper, sctx);
  double best_ing = 0.0;
  for (const auto& ing : sctx.ingredients) {
    best_ing = std::max(best_ing, ing.val_acc);
  }
  // alpha = 0 keeps the current soup, so accuracy is monotone over steps.
  EXPECT_GE(report.val_acc + 1e-9, best_ing);
}

TEST_F(SoupFixture, GisPerformsExactlyNMinusOneTimesGEvaluations) {
  GisSouper souper({.granularity = 7});
  const SoupContext sctx = soup_context();
  (void)souper.mix(sctx);
  EXPECT_EQ(souper.evaluations(),
            static_cast<std::int64_t>(sctx.ingredients.size() - 1) * 7);
}

bool bitwise_equal(const ParamStore& a, const ParamStore& b) {
  if (!ParamStore::compatible(a, b)) return false;
  for (const ParamEntry& e : a.entries()) {
    if (std::memcmp(e.tensor.data(), b.get(e.name).data(), e.tensor.bytes()) !=
        0) {
      return false;
    }
  }
  return true;
}

std::vector<std::size_t> by_val_desc(std::span<const Ingredient> ings) {
  std::vector<std::size_t> order(ings.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return ings[a].val_acc > ings[b].val_acc;
  });
  return order;
}

/// Algorithm 2 as written before receptive-field evaluation: every
/// candidate freshly allocated and scored by a full-graph tape forward.
ParamStore reference_gis(const SoupContext& sctx, std::int64_t g) {
  const auto order = by_val_desc(sctx.ingredients);
  ParamStore soup = sctx.ingredients[order.front()].params.clone();
  double soup_val = sctx.ingredients[order.front()].val_acc;
  for (std::size_t k = 1; k < order.size(); ++k) {
    const ParamStore& incoming = sctx.ingredients[order[k]].params;
    double best_val = soup_val;
    float best_alpha = -1.0f;
    for (std::int64_t step = 0; step < g; ++step) {
      const float alpha =
          static_cast<float>(step) / static_cast<float>(g - 1);
      const double val = testing::tape_accuracy(
          sctx.model, sctx.ctx, sctx.data,
          ParamStore::interpolate(soup, incoming, alpha), Split::kVal);
      if (val >= best_val) {
        best_val = val;
        best_alpha = alpha;
      }
    }
    if (best_alpha >= 0.0f) {
      soup = ParamStore::interpolate(soup, incoming, best_alpha);
      soup_val = best_val;
    }
  }
  return soup;
}

/// Algorithm 1 as written before receptive-field evaluation.
ParamStore reference_greedy(const SoupContext& sctx) {
  std::vector<const ParamStore*> members;
  ParamStore soup;
  double soup_val = -1.0;
  for (const auto idx : by_val_desc(sctx.ingredients)) {
    members.push_back(&sctx.ingredients[idx].params);
    ParamStore candidate = ParamStore::average(members);
    const double val = testing::tape_accuracy(sctx.model, sctx.ctx,
                                              sctx.data, candidate,
                                              Split::kVal);
    if (val >= soup_val) {
      soup = std::move(candidate);
      soup_val = val;
    } else {
      members.pop_back();
    }
  }
  return soup;
}

TEST_F(SoupFixture, GisMixIsBitwiseTheFullGraphSweep) {
  const std::int64_t g = 9;
  GisSouper souper({.granularity = g});
  const SoupContext sctx = soup_context();
  const ParamStore soup = souper.mix(sctx);
  EXPECT_EQ(souper.evaluations(),
            static_cast<std::int64_t>(sctx.ingredients.size() - 1) * g);
  EXPECT_TRUE(bitwise_equal(soup, reference_gis(sctx, g)));
}

TEST_F(SoupFixture, GreedyMixIsBitwiseTheFullGraphSweep) {
  GreedySouper souper;
  const SoupContext sctx = soup_context();
  EXPECT_TRUE(bitwise_equal(souper.mix(sctx), reference_greedy(sctx)));
}

TEST_F(SoupFixture, ReportFieldsPopulated) {
  UniformSouper souper;
  const SoupReport report = run_souper(souper, soup_context());
  EXPECT_EQ(report.method, "US");
  EXPECT_GE(report.seconds, 0.0);
  EXPECT_GT(report.peak_bytes, 0u);
  EXPECT_GT(report.soup.size(), 0u);
  EXPECT_GT(report.test_acc, 0.25);  // above 4-class chance
}

TEST_F(SoupFixture, InformedSoupsBeatWorstIngredient) {
  const SoupContext sctx = soup_context();
  double worst = 1.0;
  for (const auto& ing : sctx.ingredients) {
    worst = std::min(worst, ing.val_acc);
  }
  GreedySouper greedy;
  GisSouper gis({.granularity = 10});
  EXPECT_GE(run_souper(greedy, sctx).val_acc + 1e-9, worst);
  EXPECT_GE(run_souper(gis, sctx).val_acc + 1e-9, worst);
}

TEST_F(SoupFixture, RunSouperRejectsEmptyIngredients) {
  UniformSouper souper;
  SoupContext sctx{*model_, *ctx_, *data_, {}};
  EXPECT_THROW(run_souper(souper, sctx), CheckError);
}

// ---- SplitEvaluator against the full-graph tape ---------------------------

class EvaluatorParity
    : public ::testing::TestWithParam<std::tuple<Arch, bool>> {};

// A sweep of interpolated candidates, each written in place into the store
// one evaluator is bound to: its accuracy (and evaluate_splits' one-pass
// val + test report) equals the full-graph tape's on every candidate, and
// its val rows are the tape's rows — bit-equal for
// GCN and SAGE in every context and for GAT on plain contexts. On a
// reordered GAT context the tape reads the cached attention layout while
// the field's blocks run the span kernel, so only closeness is asserted
// there, and the mismatch count is reported.
TEST_P(EvaluatorParity, AccuracyAndValRowsMatchTheTapeOverASweep) {
  const auto [arch, rcm] = GetParam();
  SyntheticSpec spec;
  spec.num_nodes = 600;
  spec.num_classes = 4;
  spec.avg_degree = 6;
  spec.feature_dim = 12;
  spec.val_frac = 0.05;
  spec.seed = 83;
  const Dataset raw = generate_dataset(spec);
  const auto plan = std::make_shared<const graph::GraphPlan>(
      raw.graph, graph::Reorder::kRcm);
  const Dataset data = rcm ? plan->apply(raw) : raw;
  const auto ctx = rcm ? std::make_unique<GraphContext>(plan, arch)
                       : std::make_unique<GraphContext>(raw.graph, arch);
  const std::string tag =
      std::string(arch_name(arch)) + (rcm ? " rcm" : " plain");

  ModelConfig cfg;
  cfg.arch = arch;
  cfg.in_dim = data.feature_dim();
  cfg.hidden_dim = 8;
  cfg.out_dim = data.num_classes;
  cfg.heads = 2;
  const GnnModel model(cfg);
  // Two briefly trained endpoints, so the sweep crosses real decision
  // boundaries rather than a random init's near-ties.
  std::vector<ParamStore> ends;
  for (const std::uint64_t seed : {1u, 2u}) {
    Rng rng(seed);
    ParamStore p = model.init_params(rng);
    TrainConfig tc;
    tc.epochs = 12;
    tc.schedule.base_lr = 0.02;
    tc.seed = seed;
    tc.keep_best = false;
    tc.eval_every = 0;
    train_full_batch(model, *ctx, data, p, tc);
    ends.push_back(std::move(p));
  }

  ParamStore candidate = ends[0].clone();
  SplitEvaluator val(model, *ctx, data, candidate, Split::kVal);
  EXPECT_LT(val.field().max_rows(), data.num_nodes())
      << tag << ": the val field must be a proper subgraph";
  const auto nodes = data.split_nodes(Split::kVal);
  const auto test_nodes = data.split_nodes(Split::kTest);
  const Split report[] = {Split::kVal, Split::kTest};
  const std::int64_t classes = cfg.out_dim;
  const std::int64_t candidates = 24;
  std::int64_t bit_different_rows = 0;
  float max_diff = 0.0f;
  std::set<double> accuracies;
  for (std::int64_t step = 0; step < candidates; ++step) {
    const float alpha =
        static_cast<float>(step) / static_cast<float>(candidates - 1);
    ParamStore::interpolate_into(candidate, ends[0], ends[1], alpha);
    const double got = val.accuracy();
    const Tensor want = testing::tape_logits(model, *ctx, data, candidate);
    EXPECT_EQ(got, accuracy(want, data.labels, nodes))
        << tag << " alpha " << alpha;
    // The one-pass val + test report agrees too.
    const auto both = evaluate_splits(model, *ctx, data, candidate, report);
    EXPECT_EQ(both[0], got) << tag << " alpha " << alpha;
    EXPECT_EQ(both[1], accuracy(want, data.labels, test_nodes))
        << tag << " alpha " << alpha;
    accuracies.insert(got);
    const Tensor& rows = val.logits();
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const float* g = rows.data() + static_cast<std::int64_t>(i) * classes;
      const float* w = want.data() + nodes[i] * classes;
      if (std::memcmp(g, w, sizeof(float) * classes) != 0) {
        ++bit_different_rows;
      }
      for (std::int64_t j = 0; j < classes; ++j) {
        max_diff = std::max(max_diff, std::abs(g[j] - w[j]));
      }
    }
  }
  EXPECT_GT(accuracies.size(), 1u) << tag << ": the sweep never moved";
  if (arch == Arch::kGat && rcm) {
    EXPECT_LE(max_diff, 1e-5f) << tag;
    std::printf("[ report   ] %s: %lld of %lld val rows bit-different from "
                "the tape, max |diff| %g\n",
                tag.c_str(), static_cast<long long>(bit_different_rows),
                static_cast<long long>(candidates * nodes.size()),
                static_cast<double>(max_diff));
  } else {
    EXPECT_EQ(bit_different_rows, 0)
        << tag << ": val rows must be bit-equal to the tape (max |diff| "
        << max_diff << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(ArchByContext, EvaluatorParity,
                         ::testing::Combine(::testing::Values(Arch::kGcn,
                                                              Arch::kSage,
                                                              Arch::kGat),
                                            ::testing::Bool()));

// ---- AlphaSet --------------------------------------------------------------

TEST_F(SoupFixture, AlphaSetGroupCountsPerGranularity) {
  const auto& ings = result_->ingredients;
  Rng rng(1);
  const auto n = static_cast<std::int64_t>(ings.size());
  const AlphaSet per_layer(ings.front().params, n, AlphaGranularity::kLayer,
                           rng);
  EXPECT_EQ(per_layer.num_groups(), 2);  // 2-layer GCN
  const AlphaSet per_tensor(ings.front().params, n,
                            AlphaGranularity::kTensor, rng);
  EXPECT_EQ(per_tensor.num_groups(),
            static_cast<std::int64_t>(ings.front().params.size()));
  const AlphaSet global(ings.front().params, n, AlphaGranularity::kGlobal,
                        rng);
  EXPECT_EQ(global.num_groups(), 1);
}

TEST_F(SoupFixture, AlphaWeightsArePositiveAndNormalized) {
  const auto& ings = result_->ingredients;
  Rng rng(2);
  const AlphaSet alphas(ings.front().params,
                        static_cast<std::int64_t>(ings.size()),
                        AlphaGranularity::kLayer, rng);
  for (std::int64_t g = 0; g < alphas.num_groups(); ++g) {
    const auto w = alphas.group_weights(g);
    float total = 0.0f;
    for (const auto v : w) {
      EXPECT_GT(v, 0.0f);  // softmax can't emit exact zeros (paper §V-A)
      total += v;
    }
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST_F(SoupFixture, AlphaBuildSoupMatchesManualMix) {
  const auto& ings = result_->ingredients;
  Rng rng(3);
  const AlphaSet alphas(ings.front().params,
                        static_cast<std::int64_t>(ings.size()),
                        AlphaGranularity::kLayer, rng);
  const ParamStore soup = alphas.build_soup(ings);
  for (const auto& e : soup.entries()) {
    const auto w = alphas.group_weights(alphas.group_of(e.name));
    Tensor manual = Tensor::zeros(e.tensor.shape());
    for (std::size_t i = 0; i < ings.size(); ++i) {
      manual.add_(ings[i].params.get(e.name), w[i]);
    }
    EXPECT_LT(ops::max_abs_diff(e.tensor, manual), 1e-6f);
  }
}

TEST_F(SoupFixture, AlphaSoupValuesAgreeWithBuildSoup) {
  const auto& ings = result_->ingredients;
  Rng rng(4);
  const AlphaSet alphas(ings.front().params,
                        static_cast<std::int64_t>(ings.size()),
                        AlphaGranularity::kTensor, rng);
  const ParamMap values = alphas.build_soup_values(ings);
  const ParamStore store = alphas.build_soup(ings);
  for (const auto& e : store.entries()) {
    EXPECT_LT(ops::max_abs_diff(values.at(e.name)->value, e.tensor), 1e-6f);
  }
}

TEST_F(SoupFixture, AlphaGradientsReachLogits) {
  const auto& ings = result_->ingredients;
  Rng rng(5);
  const AlphaSet alphas(ings.front().params,
                        static_cast<std::int64_t>(ings.size()),
                        AlphaGranularity::kLayer, rng);
  const ParamMap soup_values = alphas.build_soup_values(ings);
  const ag::Value x = ag::constant(data_->features);
  const ag::Value logits = model_->forward(*ctx_, x, soup_values);
  const auto val_nodes = data_->split_nodes(Split::kVal);
  const ag::Value loss = ag::cross_entropy(logits, data_->labels, val_nodes);
  ag::backward(loss);
  for (const auto& logit : alphas.logits()) {
    ASSERT_TRUE(logit->grad.defined());
    float norm = 0.0f;
    for (std::int64_t i = 0; i < logit->grad.numel(); ++i) {
      norm += std::abs(logit->grad.at(i));
    }
    EXPECT_GT(norm, 0.0f);
  }
}

}  // namespace
}  // namespace gsoup
