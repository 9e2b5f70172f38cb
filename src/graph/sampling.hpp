// GraphSAGE-style neighbour sampling (Hamilton et al.), used by the
// minibatch ingredient trainer. Produces one bipartite Block per GNN
// layer, innermost (input) layer first.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/block.hpp"
#include "graph/csr.hpp"
#include "util/rng.hpp"

namespace gsoup {

/// Whether sample_blocks should also build each block's cached backward
/// transpose (one parallel task per layer, overlapping the layers'
/// counting sorts). Training wants kBuild; forward-only consumers skip it.
enum class BlockTranspose { kNone, kBuild };

/// Sample a stack of blocks for `seeds`. fanouts[l] limits the sampled
/// in-neighbours per node at layer l (input-most layer is fanouts[0]); a
/// fanout of -1 keeps all neighbours. Every destination node is also
/// connected to itself (self edges survive sampling because datasets carry
/// self loops; sampling never drops them).
std::vector<Block> sample_blocks(const Csr& graph,
                                 std::span<const std::int64_t> seeds,
                                 std::span<const std::int64_t> fanouts,
                                 Rng& rng,
                                 BlockTranspose transpose = BlockTranspose::kNone);

}  // namespace gsoup
