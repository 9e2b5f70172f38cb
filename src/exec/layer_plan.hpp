// The compiled forward: one lowered execution plan shared by training,
// minibatch and serving.
//
// Before this layer existed the repo carried three hand-maintained forward
// paths — the autograd `GnnModel::forward`, the GraphSAGE
// `forward_blocks`, and an autograd-free re-implementation inside
// `serve::InferenceEngine` — each of which had to be edited (and each of
// which could drift) whenever a kernel grew a plan-aware or specialised
// variant. A `LayerPlan` states the per-architecture layer sequence
// exactly once: it is compiled per (ModelConfig, GraphContext) pair —
// resolving parameter names, per-layer widths, the message adjacency, the
// cached `graph::BlockedCsr` layouts each kernel should read, and the
// backward-routing decisions that used to hide in op closures — and then
// executed in any of the three modes by `exec::Executor` (executor.hpp).
// The design follows the compile-once/execute-many graph-program model of
// Graphcore's poplibs: lower the layer sequence once against the target
// layout, execute many times with preplanned workspaces.
//
// Compilation is cheap (the expensive layouts are already cached on the
// GraphContext), but it is still done once and memoised:
// `GraphContext::layer_plan(config)` owns the plans for its graph, so
// trainers, evaluation sweeps and serving engines all execute the same
// compiled object.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/graph_context.hpp"
#include "nn/model.hpp"
#include "tensor/half.hpp"
#include "tensor/ops.hpp"

namespace gsoup::exec {

/// Compile-time knobs for plan lowering. `precision` selects the STORAGE
/// width of the infer path's inter-layer activation slabs, gathered
/// feature rows and GEMM weight panels; accumulation is always fp32 and
/// the tape (train/minibatch) lowering ignores it entirely — training is
/// always fp32.
struct ExecOptions {
  Precision precision = Precision::kFp32;
};

/// Canonical parameter name for (layer, suffix): "layers.<l>.<suffix>".
/// The single naming authority — snapshots, plans and stores must agree.
std::string layer_param_name(std::int64_t layer, const char* suffix);

/// The stage vocabulary for per-stage execution profiling. A LayerStep
/// declares which stages its lowering runs (in order); the Executor
/// times each one into the `exec.stage_ms` histogram family when
/// obs::profiling_enabled(). kGather covers subgraph input-row
/// gathering, kEpilogue the bias + activation (+ SAGE combine) tail.
enum class Stage : std::uint8_t {
  kGather = 0,
  kSpmm = 1,
  kGemm = 2,
  kAttention = 3,
  kEpilogue = 4,
};
inline constexpr int kNumStages = 5;

/// Stable lowercase stage name ("gather", "spmm", ...): the `stage`
/// label value in exported metrics.
const char* stage_name(Stage stage);

/// The activation a layer's epilogue applies: none on the last layer,
/// ELU between GAT layers, ReLU between GCN and GraphSAGE layers.
ops::Activation epilogue_activation(Arch arch, bool last);

/// One lowered GNN layer: widths, resolved parameter names, and the kernel
/// routing decided at compile time. Layout pointers alias the owning
/// GraphContext's caches (nullptr -> raw CSR/span kernel path).
struct LayerStep {
  std::int64_t index = 0;
  bool last = false;
  std::int64_t in_dim = 0;     ///< input feature width
  std::int64_t out_width = 0;  ///< output width (heads * per-head dim)
  std::int64_t heads = 1;      ///< GAT heads (1 for GCN/SAGE and last layer)
  /// The epilogue's activation (epilogue_activation), which train and
  /// infer both apply through ops::combine_bias_act_into.
  ops::Activation act = ops::Activation::kNone;

  // Parameter names resolved once (empty when the arch has no such param).
  std::string weight;        ///< GCN/GAT dense weight
  std::string weight_self;   ///< SAGE self path
  std::string weight_neigh;  ///< SAGE neighbour path
  std::string bias;
  std::string attn_dst;  ///< GAT attention vectors
  std::string attn_src;

  /// Cached forward layouts (full-graph passes): the SpMM operand layout
  /// for GCN/SAGE, the attention structure layout for GAT. nullptr on
  /// plan-free contexts.
  const graph::BlockedCsr* spmm_layout = nullptr;
  const graph::BlockedCsr* attn_layout = nullptr;

  /// Backward routing, decided here instead of inside op closures: the
  /// single-head GAT backward takes the span kernels even when layouts
  /// exist (its narrow-index instantiation measures ~0.7x of the span
  /// twin — see docs/BENCHMARKS.md), so train-mode execution only asks
  /// the context for the lazy transpose layout when this is set.
  bool attn_layout_backward = false;

  /// The stages this step's infer lowering executes, in program order —
  /// declared at compile time so profiling instrumentation never guesses
  /// (gcn: gemm,spmm,epilogue; sage: spmm,gemm,epilogue; gat:
  /// gemm,attention,epilogue).
  std::vector<Stage> stages;
};

/// A per-(ModelConfig, GraphContext) lowered op sequence plus the
/// workspace geometry infer-mode execution needs. Compiled once (see
/// GraphContext::layer_plan), executed many times; immutable after
/// construction and safe to share across threads.
class LayerPlan {
 public:
  /// `ctx` must outlive the plan (GraphContext-owned plans satisfy this
  /// by construction) and match `config.arch`.
  LayerPlan(const ModelConfig& config, const GraphContext& ctx,
            ExecOptions options = {});

  const ModelConfig& config() const { return config_; }
  const GraphContext& ctx() const { return *ctx_; }
  /// The storage precision every step was lowered at.
  Precision precision() const { return options_.precision; }
  std::span<const LayerStep> steps() const { return steps_; }
  std::int64_t num_layers() const {
    return static_cast<std::int64_t>(steps_.size());
  }
  std::int64_t num_nodes() const { return num_nodes_; }

  /// The weighted (GCN/SAGE) or structural (GAT) adjacency message
  /// passing reads — what L-hop subgraph expansion must walk.
  const Csr& message_graph() const;

  /// Workspace slab geometry for infer-mode executors, declared at
  /// compile time so an Executor performs no allocation after
  /// construction. Per row: the widest per-layer row (each of the three
  /// ping-pong buffers holds rows * max_width) and the attention-score
  /// width (the widest head count; 0 for the SpMM architectures — the
  /// alpha-skip infer kernels need no per-edge storage at all). A
  /// full-graph executor sizes for num_nodes rows.
  std::int64_t max_width() const { return max_width_; }
  std::int64_t score_width() const { return score_width_; }

 private:
  ModelConfig config_;
  ExecOptions options_;
  const GraphContext* ctx_;
  std::vector<LayerStep> steps_;
  std::int64_t num_nodes_ = 0;
  std::int64_t max_width_ = 0;
  std::int64_t score_width_ = 0;
};

}  // namespace gsoup::exec
