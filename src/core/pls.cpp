#include "core/pls.hpp"

#include "partition/union_subgraph.hpp"
#include "util/check.hpp"

namespace gsoup {

namespace {
/// Multilevel partitioner balance slack: max part <= 1.1x the ideal size.
constexpr double kBalanceSlack = 0.1;
}  // namespace

PartitionLearnedSouper::PartitionLearnedSouper(const Dataset& data,
                                               PlsConfig config)
    : AlphaLoopSouper(config.base),
      config_(config),
      source_nodes_(data.num_nodes()) {
  GSOUP_CHECK_MSG(config_.budget >= 1 &&
                      config_.budget <= config_.num_parts,
                  "PLS budget R must be in [1, K]");
  PartitionOptions opt;
  opt.num_parts = config_.num_parts;
  opt.epsilon = kBalanceSlack;
  opt.seed = config_.base.seed ^ 0x9e3779b9ULL;
  parts_ = multilevel_partition(data.graph, opt, data.val_mask);
}

ParamStore PartitionLearnedSouper::mix(const SoupContext& sctx) {
  GSOUP_CHECK_MSG(sctx.data.num_nodes() == source_nodes_,
                  "PLS was partitioned for a different dataset");
  double subgraph_nodes_acc = 0.0;
  ParamStore soup = learn(sctx, [&](Rng& rng, const EpochBody& body) {
    // Subgraph <- partitionSelection(P, R): union of R random partitions,
    // cut edges between them restored (Eq. 5). Resample (bounded) if the
    // draw carries no validation nodes.
    Subgraph sub;
    bool has_val = false;
    for (int attempt = 0; attempt < 8 && !has_val; ++attempt) {
      const auto selected =
          sample_partitions(config_.num_parts, config_.budget, rng);
      sub = partition_union_subgraph(sctx.data, parts_, selected);
      has_val = sub.data.split_size(Split::kVal) > 0;
    }
    GSOUP_CHECK_MSG(has_val,
                    "could not draw a partition subset with validation "
                    "nodes; partitioning is degenerate");
    subgraph_nodes_acc += static_cast<double>(sub.data.num_nodes()) /
                          static_cast<double>(sctx.data.num_nodes());

    const GraphContext sub_ctx(sub.data.graph, sctx.model.config().arch);
    body(sub_ctx, sub.data);
  });
  mean_subgraph_fraction_ =
      subgraph_nodes_acc / static_cast<double>(config_.base.epochs);
  return soup;
}

}  // namespace gsoup
