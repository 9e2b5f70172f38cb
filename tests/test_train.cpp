// Optimiser step math, LR schedules, metrics, and end-to-end full-batch /
// minibatch training behaviour for all three architectures; the
// receptive-field SplitEvaluator's steady state and the trainer's val
// probes against the full-graph tape evaluation they replaced.
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "ag/loss.hpp"
#include "exec/executor.hpp"
#include "graph/generator.hpp"
#include "graph/locality.hpp"
#include "nn/model.hpp"
#include "tensor/ops.hpp"
#include "test_helpers.hpp"
#include "train/metrics.hpp"
#include "train/minibatch_trainer.hpp"
#include "train/optimizer.hpp"
#include "train/scheduler.hpp"
#include "train/trainer.hpp"
#include "util/memory_tracker.hpp"

namespace gsoup {
namespace {

ag::Value leaf_with_grad(std::initializer_list<float> value,
                         std::initializer_list<float> grad) {
  auto leaf = ag::make_leaf(Tensor::of(value), true);
  leaf->grad = Tensor::of(grad);
  return leaf;
}

TEST(Optimizer, PlainSgdStep) {
  auto p = leaf_with_grad({1.0f, 2.0f}, {0.5f, -1.0f});
  OptimizerConfig cfg;
  cfg.kind = OptimizerKind::kSgd;
  cfg.lr = 0.1;
  auto opt = make_optimizer({p}, cfg);
  opt->step();
  EXPECT_FLOAT_EQ(p->value.at(0), 1.0f - 0.1f * 0.5f);
  EXPECT_FLOAT_EQ(p->value.at(1), 2.0f + 0.1f * 1.0f);
}

TEST(Optimizer, SgdWeightDecay) {
  auto p = leaf_with_grad({2.0f}, {0.0f});
  OptimizerConfig cfg;
  cfg.kind = OptimizerKind::kSgd;
  cfg.lr = 0.1;
  cfg.weight_decay = 0.5;
  auto opt = make_optimizer({p}, cfg);
  opt->step();
  // w -= lr * (g + wd*w) = 2 - 0.1*(0 + 1.0) = 1.9
  EXPECT_FLOAT_EQ(p->value.at(0), 1.9f);
}

TEST(Optimizer, SgdMomentumAccumulates) {
  auto p = leaf_with_grad({0.0f}, {1.0f});
  OptimizerConfig cfg;
  cfg.kind = OptimizerKind::kSgd;
  cfg.lr = 1.0;
  cfg.momentum = 0.9;
  auto opt = make_optimizer({p}, cfg);
  opt->step();  // v=1, w=-1
  EXPECT_FLOAT_EQ(p->value.at(0), -1.0f);
  p->grad = Tensor::of({1.0f});
  opt->step();  // v=1.9, w=-2.9
  EXPECT_FLOAT_EQ(p->value.at(0), -2.9f);
}

TEST(Optimizer, AdamFirstStepIsScaledSign) {
  auto p = leaf_with_grad({1.0f, 1.0f}, {0.001f, -10.0f});
  OptimizerConfig cfg;
  cfg.kind = OptimizerKind::kAdam;
  cfg.lr = 0.1;
  auto opt = make_optimizer({p}, cfg);
  opt->step();
  // Adam's first step is ~ lr * sign(g) regardless of magnitude.
  EXPECT_NEAR(p->value.at(0), 1.0f - 0.1f, 2e-2f);
  EXPECT_NEAR(p->value.at(1), 1.0f + 0.1f, 2e-2f);
}

TEST(Optimizer, AdamWDecouplesDecay) {
  auto adam_p = leaf_with_grad({1.0f}, {0.0f});
  auto adamw_p = leaf_with_grad({1.0f}, {0.0f});
  OptimizerConfig cfg;
  cfg.lr = 0.1;
  cfg.weight_decay = 0.1;
  cfg.kind = OptimizerKind::kAdam;
  auto adam = make_optimizer({adam_p}, cfg);
  cfg.kind = OptimizerKind::kAdamW;
  auto adamw = make_optimizer({adamw_p}, cfg);
  adam->step();
  adamw->step();
  // AdamW: w -= lr*wd*w exactly (grad is zero): 1 - 0.01 = 0.99.
  EXPECT_NEAR(adamw_p->value.at(0), 0.99f, 1e-5f);
  // Adam folds decay into the gradient and normalises by sqrt(v): the step
  // becomes ~lr regardless of decay size.
  EXPECT_NEAR(adam_p->value.at(0), 0.9f, 2e-2f);
}

TEST(Optimizer, ZeroGradClearsAndSkipsStep) {
  auto p = leaf_with_grad({1.0f}, {1.0f});
  OptimizerConfig cfg;
  cfg.kind = OptimizerKind::kSgd;
  cfg.lr = 0.1;
  auto opt = make_optimizer({p}, cfg);
  opt->zero_grad();
  EXPECT_FALSE(p->grad.defined());
  opt->step();  // no grad -> no update
  EXPECT_FLOAT_EQ(p->value.at(0), 1.0f);
}

TEST(Optimizer, RejectsNonGradParams) {
  auto constant = ag::constant(Tensor::of({1.0f}));
  OptimizerConfig cfg;
  EXPECT_THROW(make_optimizer({constant}, cfg), CheckError);
}

TEST(Scheduler, CosineEndpoints) {
  ScheduleConfig cfg;
  cfg.kind = ScheduleKind::kCosine;
  cfg.base_lr = 1.0;
  cfg.min_lr = 0.1;
  EXPECT_NEAR(scheduled_lr(cfg, 0, 100), 1.0, 1e-9);
  EXPECT_NEAR(scheduled_lr(cfg, 50, 100), (1.0 + 0.1) / 2.0, 1e-9);
  EXPECT_NEAR(scheduled_lr(cfg, 100, 100), 0.1, 1e-9);
  // Monotone decreasing.
  for (int e = 1; e <= 100; ++e) {
    EXPECT_LE(scheduled_lr(cfg, e, 100), scheduled_lr(cfg, e - 1, 100));
  }
}

TEST(Scheduler, StepDecay) {
  ScheduleConfig cfg;
  cfg.kind = ScheduleKind::kStep;
  cfg.base_lr = 1.0;
  cfg.gamma = 0.5;
  cfg.step_every = 10;
  EXPECT_DOUBLE_EQ(scheduled_lr(cfg, 0, 100), 1.0);
  EXPECT_DOUBLE_EQ(scheduled_lr(cfg, 9, 100), 1.0);
  EXPECT_DOUBLE_EQ(scheduled_lr(cfg, 10, 100), 0.5);
  EXPECT_DOUBLE_EQ(scheduled_lr(cfg, 25, 100), 0.25);
}

TEST(Scheduler, ConstantIsConstant) {
  ScheduleConfig cfg;
  cfg.base_lr = 0.3;
  EXPECT_DOUBLE_EQ(scheduled_lr(cfg, 77, 100), 0.3);
}

TEST(Metrics, AccuracyCountsMatches) {
  Tensor logits = Tensor::zeros({4, 3});
  logits.at(0, 1) = 1.0f;  // pred 1
  logits.at(1, 0) = 1.0f;  // pred 0
  logits.at(2, 2) = 1.0f;  // pred 2
  logits.at(3, 2) = 1.0f;  // pred 2
  const std::vector<std::int32_t> labels{1, 1, 2, 0};
  const std::vector<std::int64_t> all{0, 1, 2, 3};
  EXPECT_DOUBLE_EQ(accuracy(logits, labels, all), 0.5);
  const std::vector<std::int64_t> subset{0, 2};
  EXPECT_DOUBLE_EQ(accuracy(logits, labels, subset), 1.0);
}

// ---- End-to-end training -----------------------------------------------

Dataset train_dataset(std::uint64_t seed = 51) {
  SyntheticSpec spec;
  spec.num_nodes = 500;
  spec.num_classes = 4;
  spec.avg_degree = 10;
  spec.homophily = 0.75;
  spec.feature_noise = 0.8;
  spec.feature_dim = 16;
  spec.seed = seed;
  return generate_dataset(spec);
}

class TrainArchCase : public ::testing::TestWithParam<Arch> {};

TEST_P(TrainArchCase, FullBatchLearnsAboveChance) {
  const Arch arch = GetParam();
  const Dataset data = train_dataset();
  ModelConfig cfg;
  cfg.arch = arch;
  cfg.in_dim = data.feature_dim();
  cfg.hidden_dim = 16;
  cfg.out_dim = data.num_classes;
  cfg.num_layers = 2;
  cfg.heads = 2;
  cfg.dropout = 0.3f;
  const GnnModel model(cfg);
  const GraphContext ctx(data.graph, arch);
  Rng rng(1);
  ParamStore params = model.init_params(rng);

  TrainConfig tc;
  tc.epochs = 40;
  tc.optimizer.kind = OptimizerKind::kAdam;
  tc.schedule.base_lr = 0.01;
  tc.seed = 7;
  const TrainResult result = train_full_batch(model, ctx, data, params, tc);

  // Loss decreased substantially and accuracy is far above the 25% chance
  // level of a 4-class problem.
  EXPECT_LT(result.train_loss.back(), 0.7 * result.train_loss.front());
  const double test_acc =
      evaluate_split(model, ctx, data, params, Split::kTest);
  EXPECT_GT(test_acc, 0.5);
  EXPECT_GT(result.best_val_acc, 0.5);
  EXPECT_EQ(result.epochs_run, 40);
}

INSTANTIATE_TEST_SUITE_P(AllArchs, TrainArchCase,
                         ::testing::Values(Arch::kGcn, Arch::kSage,
                                           Arch::kGat));

TEST(Trainer, KeepBestRestoresBestValidationWeights) {
  const Dataset data = train_dataset(52);
  ModelConfig cfg;
  cfg.arch = Arch::kGcn;
  cfg.in_dim = data.feature_dim();
  cfg.hidden_dim = 8;
  cfg.out_dim = data.num_classes;
  cfg.dropout = 0.5f;
  const GnnModel model(cfg);
  const GraphContext ctx(data.graph, Arch::kGcn);
  Rng rng(2);
  ParamStore params = model.init_params(rng);
  TrainConfig tc;
  tc.epochs = 30;
  tc.schedule.base_lr = 0.02;
  tc.keep_best = true;
  const TrainResult result = train_full_batch(model, ctx, data, params, tc);
  const double final_val =
      evaluate_split(model, ctx, data, params, Split::kVal);
  EXPECT_NEAR(final_val, result.best_val_acc, 1e-9);
}

TEST(Trainer, EarlyStoppingHaltsTraining) {
  const Dataset data = train_dataset(53);
  ModelConfig cfg;
  cfg.arch = Arch::kGcn;
  cfg.in_dim = data.feature_dim();
  cfg.hidden_dim = 8;
  cfg.out_dim = data.num_classes;
  const GnnModel model(cfg);
  const GraphContext ctx(data.graph, Arch::kGcn);
  Rng rng(3);
  ParamStore params = model.init_params(rng);
  TrainConfig tc;
  tc.epochs = 500;
  tc.schedule.base_lr = 0.01;
  tc.patience = 5;
  const TrainResult result = train_full_batch(model, ctx, data, params, tc);
  EXPECT_LT(result.epochs_run, 500);
}

TEST(Trainer, DeterministicForFixedSeed) {
  const Dataset data = train_dataset(54);
  ModelConfig cfg;
  cfg.arch = Arch::kGcn;
  cfg.in_dim = data.feature_dim();
  cfg.hidden_dim = 8;
  cfg.out_dim = data.num_classes;
  cfg.dropout = 0.4f;
  const GnnModel model(cfg);
  const GraphContext ctx(data.graph, Arch::kGcn);

  auto run = [&] {
    Rng rng(4);
    ParamStore params = model.init_params(rng);
    TrainConfig tc;
    tc.epochs = 10;
    tc.schedule.base_lr = 0.01;
    tc.seed = 99;
    train_full_batch(model, ctx, data, params, tc);
    return params;
  };
  const ParamStore a = run();
  const ParamStore b = run();
  for (const auto& e : a.entries()) {
    EXPECT_FLOAT_EQ(ops::max_abs_diff(e.tensor, b.get(e.name)), 0.0f)
        << e.name;
  }
}

// ---- Receptive-field evaluation --------------------------------------------

struct PlanCase {
  std::shared_ptr<const graph::GraphPlan> plan;
  Dataset data;  ///< in the context's numbering
  std::unique_ptr<GraphContext> ctx;
};

PlanCase plan_case(Arch arch, bool rcm, std::uint64_t seed) {
  PlanCase c;
  const Dataset raw = train_dataset(seed);
  if (rcm) {
    c.plan = std::make_shared<const graph::GraphPlan>(raw.graph,
                                                      graph::Reorder::kRcm);
    c.data = c.plan->apply(raw);
    c.ctx = std::make_unique<GraphContext>(c.plan, arch);
  } else {
    c.data = raw;
    c.ctx = std::make_unique<GraphContext>(raw.graph, arch);
  }
  return c;
}

ModelConfig small_config(Arch arch, const Dataset& data) {
  ModelConfig cfg;
  cfg.arch = arch;
  cfg.in_dim = data.feature_dim();
  cfg.hidden_dim = 8;
  cfg.out_dim = data.num_classes;
  cfg.heads = 2;
  cfg.dropout = 0.3f;
  return cfg;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return same_shape(a, b) &&
         std::memcmp(a.data(), b.data(), a.bytes()) == 0;
}

// Mirrors Executor.InferModeAllocatesNothingOnceWarm for the evaluator,
// and checks that it reads its bound store's current values.
TEST(SplitEvaluator, AllocatesNothingOnceWarmAndSeesInPlaceWrites) {
  for (const Arch arch : {Arch::kGcn, Arch::kSage, Arch::kGat}) {
    const PlanCase c = plan_case(arch, /*rcm=*/true, 57);
    const GnnModel model(small_config(arch, c.data));
    Rng rng(8);
    const ParamStore a = model.init_params(rng);
    const ParamStore b = model.init_params(rng);
    ParamStore bound = a.clone();
    SplitEvaluator val(model, *c.ctx, c.data, bound, Split::kVal);

    (void)val.accuracy();  // warm-up
    const Tensor before = val.logits().clone();
    const std::uint64_t allocs = MemoryTracker::alloc_count();
    (void)val.accuracy();
    (void)val.accuracy();
    // alpha = 1 writes exactly b's values into the bound tensors.
    ParamStore::interpolate_into(bound, bound, b, 1.0f);
    (void)val.accuracy();
    EXPECT_EQ(MemoryTracker::alloc_count(), allocs)
        << arch_name(arch)
        << ": steady-state evaluation must not allocate tracked memory";
    SplitEvaluator fresh(model, *c.ctx, c.data, b, Split::kVal);
    EXPECT_TRUE(bitwise_equal(val.logits(), fresh.logits()))
        << arch_name(arch) << ": the evaluator must see in-place writes";
    EXPECT_FALSE(bitwise_equal(val.logits(), before)) << arch_name(arch);
  }
}

TEST(SplitEvaluator, RejectsDataOutsideThePlanSpace) {
  const PlanCase c = plan_case(Arch::kSage, /*rcm=*/true, 58);
  const Dataset original = train_dataset(58);
  const GnnModel model(small_config(Arch::kSage, c.data));
  Rng rng(9);
  const ParamStore params = model.init_params(rng);
  EXPECT_THROW(SplitEvaluator(model, *c.ctx, original, params, Split::kVal),
               CheckError);
}

/// train_full_batch as written before receptive-field evaluation: the
/// same epoch body, with each val probe a full-graph tape forward.
TrainResult reference_train(const GnnModel& model, const GraphContext& ctx,
                            const Dataset& data, ParamStore& params,
                            const TrainConfig& config) {
  TrainResult result;
  ParamMap leaves = as_leaves(params, /*requires_grad=*/true);
  std::vector<ag::Value> leaf_list;
  for (auto& [name, leaf] : leaves) leaf_list.push_back(leaf);
  OptimizerConfig opt_config = config.optimizer;
  opt_config.lr = config.schedule.base_lr;
  auto optimizer = make_optimizer(leaf_list, opt_config);
  Rng dropout_rng(config.seed ^ 0x5eed5eedULL);
  const ag::Value features = ag::constant(data.features);
  const auto train_nodes = data.split_nodes(Split::kTrain);
  const exec::LayerPlan& plan = ctx.layer_plan(model.config());
  const exec::TapeBindings bound(plan, leaves);
  ParamStore best;
  std::int64_t since_best = 0;
  for (std::int64_t epoch = 0; epoch < config.epochs; ++epoch) {
    optimizer->set_lr(scheduled_lr(config.schedule, epoch, config.epochs));
    const ag::Value logits = exec::run_train(plan, features, bound,
                                             /*training=*/true, &dropout_rng);
    const ag::Value loss = ag::cross_entropy(logits, data.labels, train_nodes);
    result.train_loss.push_back(static_cast<double>(loss->value.at(0)));
    ag::backward(loss);
    optimizer->step();
    optimizer->zero_grad();
    ++result.epochs_run;
    if (epoch % config.eval_every == 0 || epoch + 1 == config.epochs) {
      const double acc =
          testing::tape_accuracy(model, ctx, data, params, Split::kVal);
      result.val_acc.push_back(acc);
      if (acc > result.best_val_acc || result.best_epoch < 0) {
        result.best_val_acc = acc;
        result.best_epoch = epoch;
        since_best = 0;
        if (config.keep_best) best = params.clone();
      } else {
        ++since_best;
        if (config.patience > 0 && since_best >= config.patience) break;
      }
    }
  }
  if (config.keep_best && best.size() > 0) {
    for (const auto& e : best.entries()) {
      params.get_mutable(e.name).copy_(e.tensor);
    }
  }
  return result;
}

class TrainerEvalParity
    : public ::testing::TestWithParam<std::tuple<Arch, bool>> {};

TEST_P(TrainerEvalParity, SameResultAndParamsAsTapeEvalReference) {
  const auto [arch, rcm] = GetParam();
  const std::string tag =
      std::string(arch_name(arch)) + (rcm ? " rcm" : " plain");
  const PlanCase c = plan_case(arch, rcm, 59);
  const GnnModel model(small_config(arch, c.data));
  TrainConfig tc;
  tc.epochs = 40;
  tc.optimizer.kind = OptimizerKind::kAdam;
  tc.schedule.base_lr = 0.02;
  tc.seed = 11;
  tc.eval_every = 2;
  tc.keep_best = true;
  tc.patience = 6;

  Rng rng(10);
  const ParamStore init = model.init_params(rng);
  ParamStore got_params = init.clone();
  ParamStore want_params = init.clone();
  const TrainResult got =
      train_full_batch(model, *c.ctx, c.data, got_params, tc);
  const TrainResult want =
      reference_train(model, *c.ctx, c.data, want_params, tc);

  EXPECT_EQ(got.val_acc, want.val_acc) << tag;
  EXPECT_EQ(got.train_loss, want.train_loss) << tag;
  EXPECT_EQ(got.best_epoch, want.best_epoch) << tag;
  EXPECT_EQ(got.best_val_acc, want.best_val_acc) << tag;
  EXPECT_EQ(got.epochs_run, want.epochs_run) << tag;
  for (const ParamEntry& e : want_params.entries()) {
    EXPECT_TRUE(bitwise_equal(got_params.get(e.name), e.tensor))
        << tag << " " << e.name;
  }
}

INSTANTIATE_TEST_SUITE_P(ArchByContext, TrainerEvalParity,
                         ::testing::Combine(::testing::Values(Arch::kGcn,
                                                              Arch::kSage,
                                                              Arch::kGat),
                                            ::testing::Bool()));

TEST(MinibatchTrainer, SageLearnsAboveChance) {
  const Dataset data = train_dataset(55);
  ModelConfig cfg;
  cfg.arch = Arch::kSage;
  cfg.in_dim = data.feature_dim();
  cfg.hidden_dim = 16;
  cfg.out_dim = data.num_classes;
  cfg.num_layers = 2;
  cfg.dropout = 0.2f;
  const GnnModel model(cfg);
  const GraphContext ctx(data.graph, Arch::kSage);
  Rng rng(5);
  ParamStore params = model.init_params(rng);

  MinibatchConfig mb;
  mb.train.epochs = 10;
  mb.train.optimizer.kind = OptimizerKind::kAdam;
  mb.train.schedule.base_lr = 0.01;
  mb.train.seed = 3;
  mb.batch_size = 64;
  mb.fanouts = {5, 5};
  const TrainResult result = train_minibatch(model, ctx, data, params, mb);
  EXPECT_GT(result.best_val_acc, 0.5);
}

TEST(MinibatchTrainer, RejectsNonSageArchitectures) {
  const Dataset data = testing::tiny_dataset();
  ModelConfig cfg;
  cfg.arch = Arch::kGcn;
  cfg.in_dim = 2;
  cfg.out_dim = 2;
  const GnnModel model(cfg);
  const GraphContext ctx(data.graph, Arch::kGcn);
  Rng rng(6);
  ParamStore params = model.init_params(rng);
  MinibatchConfig mb;
  EXPECT_THROW(train_minibatch(model, ctx, data, params, mb), CheckError);
}

}  // namespace
}  // namespace gsoup
