#include "train/trainer.hpp"

#include <optional>

#include "ag/loss.hpp"
#include "ag/ops.hpp"
#include "exec/executor.hpp"
#include "obs/trace.hpp"
#include "train/metrics.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace gsoup {

TrainResult train_full_batch(const GnnModel& model, const GraphContext& ctx,
                             const Dataset& data, ParamStore& params,
                             const TrainConfig& config) {
  GSOUP_CHECK_MSG(config.epochs > 0, "need at least one epoch");
  // This loop reads labels/masks by node id; a reordered context needs
  // the dataset in the same plan space. Caught here once, not per epoch.
  ctx.check_plan_space(data.graph);
  Timer timer;
  TrainResult result;

  ParamMap leaves = as_leaves(params, /*requires_grad=*/true);
  std::vector<ag::Value> leaf_list;
  leaf_list.reserve(leaves.size());
  for (auto& [name, leaf] : leaves) leaf_list.push_back(leaf);

  OptimizerConfig opt_config = config.optimizer;
  opt_config.lr = config.schedule.base_lr;
  auto optimizer = make_optimizer(leaf_list, opt_config);

  Rng dropout_rng(config.seed ^ 0x5eed5eedULL);
  const ag::Value features = ag::constant(data.features);
  const auto train_nodes = data.split_nodes(Split::kTrain);
  GSOUP_CHECK_MSG(!train_nodes.empty(), "dataset has no training nodes");

  // Parameter Values bound to the plan's steps once, outside the epoch
  // loop: every forward below walks an indexed vector instead of doing
  // per-layer name→Value map lookups. The bound handles alias the same
  // leaves the optimizer steps, so no refresh is ever needed.
  const exec::LayerPlan& plan = ctx.layer_plan(model.config());
  const exec::TapeBindings bound(plan, leaves);

  // The val probes run infer mode over the val nodes' receptive field,
  // bound to `params`: the optimizer steps the leaves, which share the
  // store's tensors, so each probe reads the current weights.
  std::optional<SplitEvaluator> val_eval;
  if (config.eval_every > 0) {
    val_eval.emplace(model, ctx, data, params, Split::kVal);
  }

  ParamStore best;
  std::int64_t since_best = 0;

  for (std::int64_t epoch = 0; epoch < config.epochs; ++epoch) {
    OBS_SPAN("train.epoch");
    optimizer->set_lr(scheduled_lr(config.schedule, epoch, config.epochs));

    const ag::Value logits = exec::run_train(plan, features, bound,
                                             /*training=*/true, &dropout_rng);
    const ag::Value loss = ag::cross_entropy(logits, data.labels, train_nodes);
    result.train_loss.push_back(static_cast<double>(loss->value.at(0)));

    ag::backward(loss);
    optimizer->step();
    optimizer->zero_grad();
    ++result.epochs_run;

    if (config.eval_every > 0 &&
        (epoch % config.eval_every == 0 || epoch + 1 == config.epochs)) {
      const double acc = val_eval->accuracy();
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
  result.seconds = timer.seconds();
  return result;
}

}  // namespace gsoup
