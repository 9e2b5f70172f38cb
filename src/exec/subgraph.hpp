// Exact L-hop subgraph plans for batched node inference.
//
// A query over a handful of nodes does not need a full-graph pass: the
// plan expands the queried nodes' complete L-hop in-neighbourhood into one
// bipartite Block per layer (the type neighbour sampling fills) carrying
// the architecture's message weights, and `exec::Executor::run_subgraph`
// runs the compiled layer stack over just those rows. Exact for all three
// architectures — GAT's edge softmax sees every in-edge of every
// destination.
//
// Two usage patterns:
//  - `SubgraphPlanBuilder` + a caller-owned `SubgraphPlan` whose vectors
//    are cleared but never shrunk: the serving engine's steady-state query
//    path, zero heap allocation once warm.
//  - a freshly built, immutable plan shared behind `std::shared_ptr`: the
//    BatchServer's LRU of hot query batches — build once, execute on any
//    worker's engine, no rebuild for repeated (skewed) batches.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/block.hpp"
#include "graph/csr.hpp"

namespace gsoup::exec {

/// The full expansion for one query batch: layers[0] is the input layer
/// (widest), layers[L-1] the output layer whose destinations are the
/// deduplicated query nodes. Each layer's `indices` are positions into its
/// own src_nodes, and its `transpose` stays null. `seed_row[i]` maps query
/// slot i to its destination row in the final layer (duplicates share a
/// row).
struct SubgraphPlan {
  std::vector<Block> layers;
  std::vector<std::int64_t> seed_row;

  std::int64_t num_queries() const {
    return static_cast<std::int64_t>(seed_row.size());
  }
  /// Source rows of the widest layer — the input layer, since each
  /// layer's destinations are a prefix of its sources and the next
  /// layer's sources are those destinations.
  std::int64_t max_rows() const {
    return layers.empty() ? 0 : layers.front().num_src();
  }
  /// Approximate heap footprint (LRU capacity planning).
  std::size_t bytes() const;
};

/// Reusable expansion scratch (visited-epoch and local-id maps, sized to
/// the graph). Single-threaded like the engine that owns it; `build` into
/// a reused SubgraphPlan allocates nothing once the plan's vectors have
/// grown to their steady-state capacity.
class SubgraphPlanBuilder {
 public:
  SubgraphPlanBuilder(std::int64_t num_nodes, std::int64_t num_layers);

  /// Expand `nodes` (ids in [0, graph.num_nodes), already in the graph's
  /// numbering) over the message adjacency `g` into `out`. Layer count
  /// and node range must match the constructor's. Throws CheckError on
  /// out-of-range ids.
  void build(const Csr& g, std::span<const std::int64_t> nodes,
             SubgraphPlan& out);

  /// Install a row-completeness guard for sharded serving: `complete`
  /// flags (size num_nodes, same numbering as the graphs passed to
  /// `build`) mark rows that are faithful copies of the full graph's.
  /// Once set, `build` throws CheckError if the expansion ever walks a
  /// flagged-incomplete row — i.e. a query's L-hop neighbourhood escaped
  /// the shard's replicated halo. The span is not owned; the caller keeps
  /// it alive. An empty span clears the guard.
  void set_row_guard(std::span<const std::uint8_t> complete) {
    row_guard_ = complete;
  }

 private:
  std::int64_t num_nodes_ = 0;
  std::int64_t num_layers_ = 0;
  std::vector<std::int64_t> visit_epoch_;
  std::vector<std::int32_t> local_id_;
  std::int64_t epoch_ = 0;
  std::span<const std::uint8_t> row_guard_;
};

}  // namespace gsoup::exec
