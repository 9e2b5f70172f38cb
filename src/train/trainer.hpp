// Full-batch ingredient training (Phase 1, per worker): standard GNN
// training loop with optional best-validation checkpointing. The trained
// weights update the caller's ParamStore in place.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "graph/dataset.hpp"
#include "nn/graph_context.hpp"
#include "nn/model.hpp"
#include "nn/param.hpp"
#include "train/optimizer.hpp"
#include "train/scheduler.hpp"
#include "util/timer.hpp"

namespace gsoup {

struct TrainConfig {
  std::int64_t epochs = 100;
  OptimizerConfig optimizer;
  ScheduleConfig schedule;  ///< schedule.base_lr overrides optimizer.lr
  std::uint64_t seed = 0;   ///< dropout stream
  /// Restore the parameters with the best validation accuracy at the end.
  bool keep_best = true;
  /// Stop after this many epochs without validation improvement (0 = off).
  std::int64_t patience = 0;
  /// Evaluate validation accuracy every `eval_every` epochs.
  std::int64_t eval_every = 1;
};

struct TrainResult {
  std::vector<double> train_loss;  ///< one entry per epoch
  std::vector<double> val_acc;     ///< one entry per evaluation
  double best_val_acc = 0.0;
  std::int64_t best_epoch = -1;
  std::int64_t epochs_run = 0;
  double seconds = 0.0;
};

class SplitEvaluator;

/// The loop both ingredient trainers share: autodiff leaves over `params`
/// and their optimizer, the per-epoch LR schedule, the val probe with its
/// keep-best and patience bookkeeping, and the final restore. A trainer
/// supplies only the epoch body. Every argument must outlive the loop.
class TrainLoop {
 public:
  TrainLoop(const GnnModel& model, const GraphContext& ctx,
            const Dataset& data, ParamStore& params,
            const TrainConfig& config);
  ~TrainLoop();

  /// Leaves sharing `params`' tensors; the epoch body's forward reads them.
  const ParamMap& leaves() const { return leaves_; }

  /// Backpropagates `loss` into the leaves and steps the optimizer;
  /// returns the loss value.
  double step(const ag::Value& loss);

  /// Runs up to config.epochs epochs of `epoch`, which returns the
  /// epoch's train loss.
  TrainResult run(const std::function<double()>& epoch);

 private:
  ParamStore& params_;
  const TrainConfig& config_;
  Timer timer_;
  ParamMap leaves_;
  std::unique_ptr<Optimizer> optimizer_;
  std::unique_ptr<SplitEvaluator> val_eval_;
};

/// Train `params` on the dataset's train split. The context must match the
/// model's architecture and wrap the dataset's graph.
TrainResult train_full_batch(const GnnModel& model, const GraphContext& ctx,
                             const Dataset& data, ParamStore& params,
                             const TrainConfig& config);

}  // namespace gsoup
