// GNN model definitions: GCN (Kipf & Welling), GraphSAGE-mean (Hamilton
// et al.) and GAT (Veličković et al.) — the three architectures of the
// paper's evaluation (§IV-A).
//
// A model is *stateless*: it describes parameter shapes and a forward
// function over an abstract ParamMap. The same forward therefore serves
// (a) ingredient training, where the map holds trainable leaves, and
// (b) learned souping, where the map holds softmax-weighted mixtures of
// frozen ingredients and gradients flow to the interpolation logits only.
// This one-forward-two-uses design is the paper's Eq. 3 made structural.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ag/value.hpp"
#include "graph/sampling.hpp"
#include "nn/graph_context.hpp"
#include "nn/param.hpp"
#include "util/rng.hpp"

namespace gsoup {

struct ModelConfig {
  Arch arch = Arch::kGcn;
  std::int64_t in_dim = 0;
  std::int64_t hidden_dim = 64;
  std::int64_t out_dim = 0;
  std::int64_t num_layers = 2;
  /// Attention heads for hidden GAT layers (the output layer uses 1).
  std::int64_t heads = 4;
  float dropout = 0.5f;
  float attn_slope = 0.2f;

  std::string describe() const;
};

class GnnModel {
 public:
  explicit GnnModel(ModelConfig config);

  const ModelConfig& config() const { return config_; }

  /// Fresh Glorot-initialised parameters. Deterministic per rng state.
  ParamStore init_params(Rng& rng) const;

  /// Full-graph forward returning class logits [n, out_dim].
  /// `training` enables dropout (requires rng). A thin shim: the layer
  /// sequence itself is compiled once per (model geometry, context) into
  /// an exec::LayerPlan (ctx.layer_plan) and recorded on the tape by
  /// exec::run_train — the same plan serving executes autograd-free.
  ag::Value forward(const GraphContext& ctx, const ag::Value& features,
                    const ParamMap& params, bool training = false,
                    Rng* rng = nullptr) const;

  /// Forward over a Block stack (GraphSAGE only), sampled or an exact
  /// field such as SplitEvaluator::field().layers: features are rows for
  /// blocks[0].src_nodes; output rows are the last block's destinations.
  /// Delegates to exec::run_train_blocks; sample with
  /// BlockTranspose::kBuild so the block_spmm backward transposes are
  /// prebuilt.
  ag::Value forward_blocks(std::span<const Block> blocks,
                           const ag::Value& features, const ParamMap& params,
                           bool training = false, Rng* rng = nullptr) const;

  /// Layer count used for alpha grouping (== config.num_layers).
  std::int32_t num_layers() const {
    return static_cast<std::int32_t>(config_.num_layers);
  }

  // Per-layer input/output widths, accounting for GAT head concatenation.
  // Public so the autograd-free serving engine (src/serve) can size its
  // preallocated workspaces and snapshot loading can validate parameter
  // shapes without re-initialising a model.
  std::int64_t layer_in_dim(std::int64_t layer) const;
  std::int64_t layer_out_width(std::int64_t layer) const;
  std::int64_t layer_heads(std::int64_t layer) const;

 private:
  ModelConfig config_;
};

}  // namespace gsoup
