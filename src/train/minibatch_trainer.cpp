#include "train/minibatch_trainer.hpp"

#include <algorithm>
#include <numeric>
#include <optional>

#include "ag/graph_ops.hpp"
#include "ag/loss.hpp"
#include "obs/trace.hpp"
#include "train/metrics.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace gsoup {

TrainResult train_minibatch(const GnnModel& model, const GraphContext& ctx,
                            const Dataset& data, ParamStore& params,
                            const MinibatchConfig& config) {
  GSOUP_CHECK_MSG(model.config().arch == Arch::kSage,
                  "minibatch training is implemented for GraphSAGE");
  GSOUP_CHECK_MSG(
      static_cast<std::int64_t>(config.fanouts.size()) ==
          model.config().num_layers,
      "need one fanout per layer");
  GSOUP_CHECK_MSG(config.batch_size > 0, "batch size must be positive");
  // Sampling and supervision read per-node data by id; a reordered
  // context needs the dataset in the same plan space.
  ctx.check_plan_space(data.graph);

  Timer timer;
  TrainResult result;

  ParamMap leaves = as_leaves(params, /*requires_grad=*/true);
  std::vector<ag::Value> leaf_list;
  for (auto& [name, leaf] : leaves) leaf_list.push_back(leaf);
  OptimizerConfig opt_config = config.train.optimizer;
  opt_config.lr = config.train.schedule.base_lr;
  auto optimizer = make_optimizer(leaf_list, opt_config);

  Rng rng(config.train.seed ^ 0xba7c4e5dULL);
  const ag::Value features = ag::constant(data.features);
  auto train_nodes = data.split_nodes(Split::kTrain);
  GSOUP_CHECK_MSG(!train_nodes.empty(), "dataset has no training nodes");

  // Val probes bound to `params`, which the optimizer updates in place.
  std::optional<SplitEvaluator> val_eval;
  if (config.train.eval_every > 0) {
    val_eval.emplace(model, ctx, data, params, Split::kVal);
  }

  ParamStore best;
  std::int64_t since_best = 0;

  for (std::int64_t epoch = 0; epoch < config.train.epochs; ++epoch) {
    OBS_SPAN("train.epoch");
    optimizer->set_lr(
        scheduled_lr(config.train.schedule, epoch, config.train.epochs));

    // Shuffle train nodes, then walk batches.
    for (std::size_t i = train_nodes.size(); i > 1; --i) {
      std::swap(train_nodes[i - 1], train_nodes[rng.uniform_int(i)]);
    }
    double epoch_loss = 0.0;
    std::int64_t batches = 0;
    for (std::size_t start = 0; start < train_nodes.size();
         start += static_cast<std::size_t>(config.batch_size)) {
      const std::size_t end = std::min(
          train_nodes.size(), start + static_cast<std::size_t>(config.batch_size));
      const std::span<const std::int64_t> seeds(train_nodes.data() + start,
                                                end - start);
      // kBuild: the block_spmm backward transposes are built (threaded)
      // here at sample time, not inside the forward's hot path.
      const auto blocks = sample_blocks(ctx.raw(), seeds, config.fanouts,
                                        rng, BlockTranspose::kBuild);

      const ag::Value x =
          ag::gather_rows(features, blocks.front().src_nodes);
      const ag::Value logits =
          model.forward_blocks(blocks, x, leaves, /*training=*/true, &rng);

      // Batch-local labels: logits row k corresponds to seeds[k].
      std::vector<std::int32_t> batch_labels(seeds.size());
      std::vector<std::int64_t> batch_nodes(seeds.size());
      for (std::size_t k = 0; k < seeds.size(); ++k) {
        batch_labels[k] = data.labels[seeds[k]];
        batch_nodes[k] = static_cast<std::int64_t>(k);
      }
      const ag::Value loss =
          ag::cross_entropy(logits, batch_labels, batch_nodes);
      epoch_loss += static_cast<double>(loss->value.at(0));
      ++batches;

      ag::backward(loss);
      optimizer->step();
      optimizer->zero_grad();
    }
    result.train_loss.push_back(epoch_loss /
                                static_cast<double>(std::max<std::int64_t>(
                                    batches, 1)));
    ++result.epochs_run;

    if (config.train.eval_every > 0 &&
        (epoch % config.train.eval_every == 0 ||
         epoch + 1 == config.train.epochs)) {
      const double acc = val_eval->accuracy();
      result.val_acc.push_back(acc);
      if (acc > result.best_val_acc || result.best_epoch < 0) {
        result.best_val_acc = acc;
        result.best_epoch = epoch;
        since_best = 0;
        if (config.train.keep_best) best = params.clone();
      } else {
        ++since_best;
        if (config.train.patience > 0 && since_best >= config.train.patience) {
          break;
        }
      }
    }
  }

  if (config.train.keep_best && best.size() > 0) {
    for (const auto& e : best.entries()) {
      params.get_mutable(e.name).copy_(e.tensor);
    }
  }
  result.seconds = timer.seconds();
  return result;
}

}  // namespace gsoup
