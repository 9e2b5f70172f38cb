// One bipartite message-passing layer, the unit both layer-wise graph
// producers hand to the layer kernels: neighbour sampling (sample_blocks,
// for minibatch training) and the exact L-hop expansion
// (exec::SubgraphPlanBuilder, for batched queries and split evaluation).
// A layer's destination nodes are a prefix of its source nodes, the DGL
// convention the paper's reference implementation uses, so layer outputs
// can be narrowed in place.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace gsoup {

namespace graph {
struct BlockedCsr;
}

struct Block {
  /// Global node ids feeding this layer. The first `num_dst` entries are
  /// exactly the destination nodes (in the same order).
  std::vector<std::int64_t> src_nodes;
  std::int64_t num_dst = 0;
  /// In-edge CSR over local ids: for dst i (< num_dst), neighbour
  /// positions into src_nodes.
  std::vector<std::int64_t> indptr;
  std::vector<std::int32_t> indices;
  /// Per-edge message weights: 1 / sampled-degree for a sampled block,
  /// the message graph's weights for an exact one (empty for GAT, whose
  /// weights are learned).
  std::vector<float> values;
  /// Cached BlockedCsr transpose for the block_spmm backward gather
  /// (dX = Bᵀ·dY), built at sample time when the caller asked for it
  /// (BlockTranspose::kBuild) so the training forward pays no build.
  /// Null for inference-only blocks and exact expansions —
  /// ag::block_spmm falls back to building it on first grad-recorded use.
  std::shared_ptr<const graph::BlockedCsr> transpose;

  std::int64_t num_src() const {
    return static_cast<std::int64_t>(src_nodes.size());
  }
  std::int64_t num_edges() const {
    return static_cast<std::int64_t>(indices.size());
  }
};

}  // namespace gsoup
