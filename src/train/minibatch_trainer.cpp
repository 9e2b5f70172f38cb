#include "train/minibatch_trainer.hpp"

#include <algorithm>
#include <numeric>

#include "ag/graph_ops.hpp"
#include "ag/loss.hpp"
#include "graph/sampling.hpp"
#include "util/check.hpp"

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

  TrainLoop loop(model, ctx, data, params, config.train);

  Rng rng(config.train.seed ^ 0xba7c4e5dULL);
  const ag::Value features = ag::constant(data.features);
  auto train_nodes = data.split_nodes(Split::kTrain);
  GSOUP_CHECK_MSG(!train_nodes.empty(), "dataset has no training nodes");

  return loop.run([&] {
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
      const ag::Value logits = model.forward_blocks(
          blocks, x, loop.leaves(), /*training=*/true, &rng);

      // Batch-local labels: logits row k corresponds to seeds[k].
      std::vector<std::int32_t> batch_labels(seeds.size());
      std::vector<std::int64_t> batch_nodes(seeds.size());
      for (std::size_t k = 0; k < seeds.size(); ++k) {
        batch_labels[k] = data.labels[seeds[k]];
        batch_nodes[k] = static_cast<std::int64_t>(k);
      }
      epoch_loss += loop.step(
          ag::cross_entropy(logits, batch_labels, batch_nodes));
      ++batches;
    }
    return epoch_loss /
           static_cast<double>(std::max<std::int64_t>(batches, 1));
  });
}

}  // namespace gsoup
