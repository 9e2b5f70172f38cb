#include "exec/layer_plan.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace gsoup::exec {

std::string layer_param_name(std::int64_t layer, const char* suffix) {
  return "layers." + std::to_string(layer) + "." + suffix;
}

const char* stage_name(Stage stage) {
  switch (stage) {
    case Stage::kGather: return "gather";
    case Stage::kSpmm: return "spmm";
    case Stage::kGemm: return "gemm";
    case Stage::kAttention: return "attention";
    case Stage::kEpilogue: return "epilogue";
  }
  return "unknown";
}

LayerPlan::LayerPlan(const ModelConfig& config, const GraphContext& ctx,
                     ExecOptions options)
    : config_(config), options_(options), ctx_(&ctx) {
  GSOUP_CHECK_MSG(ctx.arch() == config.arch,
                  "layer plan: graph context built for a different "
                  "architecture");
  const GnnModel model(config);  // validates the config
  num_nodes_ = ctx.raw().num_nodes;

  steps_.reserve(static_cast<std::size_t>(config.num_layers));
  for (std::int64_t l = 0; l < config.num_layers; ++l) {
    LayerStep step;
    step.index = l;
    step.last = l + 1 == config.num_layers;
    step.in_dim = model.layer_in_dim(l);
    step.out_width = model.layer_out_width(l);
    step.heads = model.layer_heads(l);
    step.bias = layer_param_name(l, "bias");
    switch (config.arch) {
      case Arch::kGcn:
        step.weight = layer_param_name(l, "weight");
        step.spmm_layout = ctx.spmm_layout();
        step.stages = {Stage::kGemm, Stage::kSpmm, Stage::kEpilogue};
        break;
      case Arch::kSage:
        step.weight_self = layer_param_name(l, "weight_self");
        step.weight_neigh = layer_param_name(l, "weight_neigh");
        step.spmm_layout = ctx.spmm_layout();
        step.stages = {Stage::kSpmm, Stage::kGemm, Stage::kEpilogue};
        break;
      case Arch::kGat:
        step.weight = layer_param_name(l, "weight");
        step.attn_dst = layer_param_name(l, "attn_dst");
        step.attn_src = layer_param_name(l, "attn_src");
        step.attn_layout = ctx.attn_layout();
        // The heads=1 span routing, made permanent at compile time: only
        // multi-head steps ever request the cached attention transpose
        // (and thereby trigger its lazy build).
        step.attn_layout_backward =
            step.attn_layout != nullptr && step.heads > 1;
        step.stages = {Stage::kGemm, Stage::kAttention, Stage::kEpilogue};
        break;
    }
    max_width_ = std::max({max_width_, step.in_dim, step.out_width});
    if (config.arch == Arch::kGat) {
      score_width_ = std::max(score_width_, step.heads);
    }
    steps_.push_back(std::move(step));
  }
}

const Csr& LayerPlan::message_graph() const {
  switch (config_.arch) {
    case Arch::kGcn: return ctx_->gcn();
    case Arch::kSage: return ctx_->mean();
    case Arch::kGat: return ctx_->raw();
  }
  return ctx_->raw();
}

}  // namespace gsoup::exec
