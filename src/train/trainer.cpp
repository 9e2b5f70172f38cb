#include "train/trainer.hpp"

#include "ag/loss.hpp"
#include "ag/ops.hpp"
#include "exec/executor.hpp"
#include "obs/trace.hpp"
#include "train/metrics.hpp"
#include "util/check.hpp"

namespace gsoup {

TrainLoop::TrainLoop(const GnnModel& model, const GraphContext& ctx,
                     const Dataset& data, ParamStore& params,
                     const TrainConfig& config)
    : params_(params),
      config_(config),
      leaves_(as_leaves(params, /*requires_grad=*/true)) {
  std::vector<ag::Value> leaf_list;
  leaf_list.reserve(leaves_.size());
  for (auto& [name, leaf] : leaves_) leaf_list.push_back(leaf);
  OptimizerConfig opt_config = config.optimizer;
  opt_config.lr = config.schedule.base_lr;
  optimizer_ = make_optimizer(leaf_list, opt_config);

  // The val probes run infer mode over the val nodes' receptive field,
  // bound to `params`: the optimizer steps the leaves, which share the
  // store's tensors, so each probe reads the current weights.
  if (config.eval_every > 0) {
    val_eval_ = std::make_unique<SplitEvaluator>(model, ctx, data, params,
                                                 Split::kVal);
  }
}

TrainLoop::~TrainLoop() = default;

double TrainLoop::step(const ag::Value& loss) {
  const auto value = static_cast<double>(loss->value.at(0));
  ag::backward(loss);
  optimizer_->step();
  optimizer_->zero_grad();
  return value;
}

TrainResult TrainLoop::run(const std::function<double()>& epoch_body) {
  TrainResult result;
  ParamStore best;
  std::int64_t since_best = 0;

  for (std::int64_t epoch = 0; epoch < config_.epochs; ++epoch) {
    OBS_SPAN("train.epoch");
    optimizer_->set_lr(
        scheduled_lr(config_.schedule, epoch, config_.epochs));
    result.train_loss.push_back(epoch_body());
    ++result.epochs_run;

    if (config_.eval_every > 0 &&
        (epoch % config_.eval_every == 0 || epoch + 1 == config_.epochs)) {
      const double acc = val_eval_->accuracy();
      result.val_acc.push_back(acc);
      if (acc > result.best_val_acc || result.best_epoch < 0) {
        result.best_val_acc = acc;
        result.best_epoch = epoch;
        since_best = 0;
        if (config_.keep_best) best = params_.clone();
      } else {
        ++since_best;
        if (config_.patience > 0 && since_best >= config_.patience) break;
      }
    }
  }

  if (config_.keep_best && best.size() > 0) {
    for (const auto& e : best.entries()) {
      params_.get_mutable(e.name).copy_(e.tensor);
    }
  }
  result.seconds = timer_.seconds();
  return result;
}

TrainResult train_full_batch(const GnnModel& model, const GraphContext& ctx,
                             const Dataset& data, ParamStore& params,
                             const TrainConfig& config) {
  GSOUP_CHECK_MSG(config.epochs > 0, "need at least one epoch");
  // This loop reads labels/masks by node id; a reordered context needs
  // the dataset in the same plan space. Caught here once, not per epoch.
  ctx.check_plan_space(data.graph);
  TrainLoop loop(model, ctx, data, params, config);

  Rng dropout_rng(config.seed ^ 0x5eed5eedULL);
  const ag::Value features = ag::constant(data.features);
  const auto train_nodes = data.split_nodes(Split::kTrain);
  GSOUP_CHECK_MSG(!train_nodes.empty(), "dataset has no training nodes");

  // Parameter Values bound to the plan's steps once, outside the epoch
  // loop: every forward below walks an indexed vector instead of doing
  // per-layer name→Value map lookups. The bound handles alias the same
  // leaves the optimizer steps, so no refresh is ever needed.
  const exec::LayerPlan& plan = ctx.layer_plan(model.config());
  const exec::TapeBindings bound(plan, loop.leaves());

  return loop.run([&] {
    const ag::Value logits = exec::run_train(plan, features, bound,
                                             /*training=*/true, &dropout_rng);
    return loop.step(ag::cross_entropy(logits, data.labels, train_nodes));
  });
}

}  // namespace gsoup
