#include "exec/subgraph.hpp"

#include "util/check.hpp"

namespace gsoup::exec {

std::size_t SubgraphPlan::bytes() const {
  std::size_t total = seed_row.capacity() * sizeof(std::int64_t);
  for (const auto& layer : layers) {
    total += layer.src_nodes.capacity() * sizeof(std::int64_t) +
             layer.indptr.capacity() * sizeof(std::int64_t) +
             layer.indices.capacity() * sizeof(std::int32_t) +
             layer.values.capacity() * sizeof(float);
  }
  return total;
}

SubgraphPlanBuilder::SubgraphPlanBuilder(std::int64_t num_nodes,
                                         std::int64_t num_layers)
    : num_nodes_(num_nodes), num_layers_(num_layers) {
  GSOUP_CHECK_MSG(num_nodes_ >= 0 && num_layers_ >= 1,
                  "subgraph builder needs a graph and >= 1 layer");
  visit_epoch_.assign(static_cast<std::size_t>(num_nodes_), 0);
  local_id_.assign(static_cast<std::size_t>(num_nodes_), 0);
}

void SubgraphPlanBuilder::build(const Csr& g,
                                std::span<const std::int64_t> nodes,
                                SubgraphPlan& out) {
  GSOUP_CHECK_MSG(g.num_nodes == num_nodes_,
                  "subgraph build: graph does not match the builder");
  GSOUP_CHECK_MSG(!nodes.empty(), "subgraph build needs at least one node");
  const bool weighted = g.weighted();
  out.layers.resize(static_cast<std::size_t>(num_layers_));

  // Destination set of the output layer: the (deduplicated) query nodes.
  out.seed_row.clear();
  Block& top = out.layers[static_cast<std::size_t>(num_layers_ - 1)];
  top.src_nodes.clear();
  ++epoch_;
  for (const std::int64_t node : nodes) {
    GSOUP_CHECK_MSG(node >= 0 && node < num_nodes_,
                    "query node " << node << " out of range [0, "
                                  << num_nodes_ << ")");
    if (visit_epoch_[static_cast<std::size_t>(node)] != epoch_) {
      visit_epoch_[static_cast<std::size_t>(node)] = epoch_;
      local_id_[static_cast<std::size_t>(node)] =
          static_cast<std::int32_t>(top.src_nodes.size());
      top.src_nodes.push_back(node);
    }
    out.seed_row.push_back(local_id_[static_cast<std::size_t>(node)]);
  }

  // Expand outward: layer l's sources become layer l-1's destinations,
  // each layer pulling in the full (unsampled) in-neighbourhood so the
  // computation is exact — GAT's edge softmax sees every in-edge.
  for (std::int64_t l = num_layers_ - 1; l >= 0; --l) {
    Block& P = out.layers[static_cast<std::size_t>(l)];
    if (l < num_layers_ - 1) {
      const Block& above = out.layers[static_cast<std::size_t>(l + 1)];
      P.src_nodes.assign(above.src_nodes.begin(), above.src_nodes.end());
      ++epoch_;
      for (std::size_t i = 0; i < P.src_nodes.size(); ++i) {
        const auto node = static_cast<std::size_t>(P.src_nodes[i]);
        visit_epoch_[node] = epoch_;
        local_id_[node] = static_cast<std::int32_t>(i);
      }
    }
    P.num_dst = static_cast<std::int64_t>(P.src_nodes.size());
    P.indptr.clear();
    P.indices.clear();
    P.values.clear();
    P.indptr.push_back(0);
    for (std::int64_t i = 0; i < P.num_dst; ++i) {
      const std::int64_t dst = P.src_nodes[static_cast<std::size_t>(i)];
      // Sharded serving's halo-sufficiency invariant: every row the
      // expansion walks must be a complete copy of the full graph's.
      GSOUP_CHECK_MSG(row_guard_.empty() ||
                          row_guard_[static_cast<std::size_t>(dst)] != 0,
                      "subgraph expansion walked incomplete row "
                          << dst << " — query escaped the shard halo");
      for (std::int64_t e = g.indptr[dst]; e < g.indptr[dst + 1]; ++e) {
        const std::int32_t src = g.indices[static_cast<std::size_t>(e)];
        const auto s = static_cast<std::size_t>(src);
        if (visit_epoch_[s] != epoch_) {
          visit_epoch_[s] = epoch_;
          local_id_[s] = static_cast<std::int32_t>(P.src_nodes.size());
          P.src_nodes.push_back(src);
        }
        P.indices.push_back(local_id_[s]);
        if (weighted) {
          P.values.push_back(g.values[static_cast<std::size_t>(e)]);
        }
      }
      P.indptr.push_back(static_cast<std::int64_t>(P.indices.size()));
    }
  }
}

}  // namespace gsoup::exec
