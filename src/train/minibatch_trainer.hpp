// Minibatch neighbour-sampling trainer (GraphSAGE): the alternative
// ingredient-training regime the paper's setup supports ("including both
// minibatching and full-batching", §IV-B).
#pragma once

#include "graph/dataset.hpp"
#include "nn/graph_context.hpp"
#include "nn/model.hpp"
#include "nn/param.hpp"
#include "train/trainer.hpp"

namespace gsoup {

struct MinibatchConfig {
  TrainConfig train;
  std::int64_t batch_size = 512;
  /// Sampled in-neighbours per layer, input layer first; -1 = keep all.
  std::vector<std::int64_t> fanouts = {10, 10};
};

/// Train with neighbour-sampled minibatches. GraphSAGE models only (the
/// paper's minibatch runs use SAGE-style sampling). The val probes between
/// epochs are TrainLoop's, exact over the val nodes' receptive field.
TrainResult train_minibatch(const GnnModel& model, const GraphContext& ctx,
                            const Dataset& data, ParamStore& params,
                            const MinibatchConfig& config);

}  // namespace gsoup
