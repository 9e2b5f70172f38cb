// Executes a compiled LayerPlan in the three modes the system needs:
//
//  - train       records the autograd tape (ingredient training, learned
//                souping);
//  - minibatch   tape over sampled bipartite blocks (GraphSAGE), the
//                block transposes having been built at sample time;
//  - infer       autograd-free, into workspaces declared by the plan and
//                allocated once at Executor construction — the serving
//                hot path and every split evaluation (SplitEvaluator
//                runs it over the split's receptive field), zero
//                tracked allocation once warm. Infer
//                lowering picks inference-only kernels where they exist:
//                GAT steps run `ag::gat_attention_infer`, which skips
//                the alpha normalisation walk and replaces the
//                engine-owned [E, heads] alpha tensor with the kernel's
//                reusable thread-local scratch.
//
// Train/minibatch modes are free functions (the tape owns all memory);
// infer mode is a stateful Executor (single-threaded by design — the
// workspaces are reused mutable state; concurrency lives one level up,
// in serve::BatchServer's per-worker engines).
//
// All three modes execute the same LayerStep sequence through the same
// kernels, which is what makes train and infer logits bit-identical
// (asserted per arch x reorder x index width in tests/test_exec.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <tuple>

#include "ag/value.hpp"
#include "exec/layer_plan.hpp"
#include "exec/subgraph.hpp"
#include "graph/sampling.hpp"
#include "nn/param.hpp"
#include "util/rng.hpp"

namespace gsoup::obs {
class Histogram;
}  // namespace gsoup::obs

namespace gsoup::exec {

/// Per-step tape parameter bindings resolved once per (plan, store) pair:
/// the train-mode counterpart of the Executor's StepParams. run_train
/// with a ParamMap walks the name→Value map for every parameter of every
/// layer on every forward; a trainer running thousands of epochs over the
/// same leaves builds one of these instead and the per-forward lookup
/// cost disappears. The bound Values share nodes with the source map, so
/// gradients accumulate into the same leaves the optimizer steps.
class TapeBindings {
 public:
  TapeBindings(const LayerPlan& plan, const ParamMap& params);

  /// Parameters of one step; entries the arch lacks stay null Values.
  struct Bound {
    ag::Value weight;
    ag::Value weight_self;
    ag::Value weight_neigh;
    ag::Value bias;
    ag::Value attn_dst;
    ag::Value attn_src;
  };

  std::span<const Bound> steps() const { return steps_; }

 private:
  std::vector<Bound> steps_;
};

/// Train mode: the tape-recorded full-graph forward. `features` rows are
/// in the plan's (context's) vertex numbering; returns class logits
/// [n, out_dim] on the tape. `training` enables dropout (needs rng).
ag::Value run_train(const LayerPlan& plan, const ag::Value& features,
                    const ParamMap& params, bool training, Rng* rng);

/// Pre-bound twin: same tape, no per-forward map lookups. `bindings`
/// must have been built from this plan.
ag::Value run_train(const LayerPlan& plan, const ag::Value& features,
                    const TapeBindings& bindings, bool training, Rng* rng);

/// Minibatch mode: tape forward over sampled blocks (GraphSAGE only) —
/// features are rows for blocks[0].src_nodes, output rows are the seeds.
/// Blocks sampled with `BlockTranspose::kBuild` carry their cached
/// backward transpose, so the block_spmm forward pays no build.
ag::Value run_train_blocks(const ModelConfig& config,
                           std::span<const Block> blocks,
                           const ag::Value& features, const ParamMap& params,
                           bool training, Rng* rng);

/// Infer mode: a LayerPlan plus plan-declared workspace slabs, allocated
/// once here. The parameter tensors are resolved per step at construction
/// (the store — typically a serve::Snapshot's — must outlive the
/// executor, as must the plan). An fp32 plan's GEMM panels share the
/// store's tensors, so in-place writes to the store (an optimizer step,
/// ParamStore::interpolate_into) reach the next run_* call; a half plan
/// quantizes its panels once, here.
class Executor {
 public:
  /// Workspaces sized for the full graph: run_full and any subgraph.
  Executor(const LayerPlan& plan, const ParamStore& params);

  /// Workspaces sized for `row_capacity` rows (1..plan.num_nodes()):
  /// enough for run_subgraph over plans whose widest layer has at most
  /// that many source rows (SubgraphPlan::max_rows), and for run_full
  /// only when it covers the whole graph.
  Executor(const LayerPlan& plan, const ParamStore& params,
           std::int64_t row_capacity);

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  const LayerPlan& plan() const { return plan_; }

  /// Full-graph forward: `features` is [n, in_dim] in plan space at the
  /// plan's storage type — an fp32 Tensor for kFp32 plans, the
  /// pre-quantized HalfBuffer for kFp16/kBf16 plans — and `out` a
  /// caller-owned fp32 [n, out_dim]. No allocation.
  template <class Act>
  void run_full(const Act& features, Tensor& out);

  /// Forward over a subgraph plan's block sequence; gathers the input
  /// rows from `features` (storage type as for run_full) itself. Returns
  /// an fp32 view (into a workspace) of the final layer, valid until the
  /// next run_* call. No allocation.
  template <class Act>
  const Tensor& run_subgraph(const SubgraphPlan& sp, const Act& features);

  /// Total bytes of preallocated workspace (capacity planning).
  std::size_t workspace_bytes() const;

 private:
  /// GEMM weight panels of one step at activation storage type A.
  template <class A>
  struct Panels {
    A weight, weight_self, weight_neigh;
  };

  /// Parameters of one step, resolved once. The fp32 panels share the
  /// store's tensors; a half plan also quantizes them once, at
  /// construction. Bias and attention vectors stay fp32 — they feed fp32
  /// epilogues, and at O(width) bytes there is nothing to save.
  struct StepParams {
    std::tuple<Panels<Tensor>, Panels<HalfBuffer>> gemm;
    const Tensor* bias = nullptr;
    const Tensor* attn_dst = nullptr;
    const Tensor* attn_src = nullptr;
  };

  /// One layer over an explicit CSR (spans) or, when `spmm_layout` /
  /// `attn_layout` is non-null, the step's cached layout. `h` holds the
  /// source rows on entry and, unless the step is the last, the stored
  /// activation of the destination rows on return. Returns the layer's
  /// fp32 output view (== *final_out when provided).
  template <class Act>
  Tensor run_layer(const LayerStep& step, const StepParams& p,
                   std::span<const std::int64_t> indptr,
                   std::span<const std::int32_t> indices,
                   std::span<const float> values, Act& h,
                   std::int64_t num_dst, Tensor* final_out,
                   const graph::BlockedCsr* spmm_layout,
                   const graph::BlockedCsr* attn_layout);

  /// Carve a [rows, cols] view out of workspace buffer `idx`.
  Tensor ws(int idx, std::int64_t rows, std::int64_t cols);

  /// The three inter-layer activation slabs at storage type Act: the fp32
  /// slabs themselves, or a half plan's 16-bit slabs.
  template <class Act>
  Act* act_slabs();

  const LayerPlan& plan_;
  std::int64_t row_capacity_ = 0;
  std::vector<StepParams> step_params_;

  // Per-stage duration histograms ("exec.stage_ms", labelled with this
  // plan's arch and the stage name), resolved once here so the hot path
  // never touches the registry. When obs profiling is off, the per-stage
  // timers cost one relaxed atomic load each (failpoint discipline).
  obs::Histogram* stage_hist_[kNumStages] = {};

  // Plan-declared slabs: three ping-pong layer buffers (input / scratch /
  // output) and the GAT attention-score buffers. The executor owns no
  // per-edge slab: the [E, heads] alpha tensor the pre-exec engine
  // carried is replaced by the infer kernel's reusable thread-local
  // scratch (shared with the backward's dz workspace).
  Tensor buf_[3];
  // Half plans add three 16-bit inter-layer slabs (the ping-pong
  // activation storage); the fp32 slabs above become per-layer scratch.
  HalfBuffer hbuf_[3];
  Tensor score_dst_ws_;
  Tensor score_src_ws_;
  Tensor subgraph_out_;  ///< final-layer view of the last run_subgraph
};

}  // namespace gsoup::exec
