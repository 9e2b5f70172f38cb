// Autograd-free inference engine: the serving boundary around the exec
// layer's compiled forward.
//
// Training and evaluation run the model through the ag:: tape — every
// forward allocates a Value node, output tensor and closure per op, even
// under NoGradGuard. Serving cannot afford that. Since the exec refactor
// the engine no longer re-implements the forward either: it fetches the
// context's compiled exec::LayerPlan (the same plan the tape records
// through, so logits are bit-identical to training) and executes it with
// an exec::Executor in infer mode — plan-declared workspace slabs
// allocated once at construction, inference-only kernel lowering (the GAT
// alpha-skip forward: no [E, heads] attention-coefficient workspace at
// all), zero tracked heap allocation once warm (asserted by
// tests/test_serve.cpp and tests/test_exec.cpp via MemoryTracker).
//
// What remains in the engine is exactly the serving-boundary work:
//  - snapshot/feature validation and the GraphPlan translation boundary
//    (caller ids/features/logits stay in the caller's numbering; plan
//    space is an implementation detail of the context);
//  - the cached full-graph logits table (full_logits/invalidate);
//  - per-query L-hop expansion via exec::SubgraphPlanBuilder, plus
//    standalone compiled query plans (compile_query_plan) that the
//    BatchServer's LRU shares across workers for repeated hot batches.
//
// Two query paths:
//  - full_logits(): one forward over the whole graph, cached until
//    invalidate(). Row lookups are then free — the right mode for static
//    feature serving.
//  - query(nodes, out): exact L-hop subgraph inference — expansion is
//    exact for all three architectures (GAT's edge softmax sees every
//    in-edge of each destination), and far cheaper than a full pass when
//    the batch's neighbourhood is a fraction of the graph.
//
// An engine is deliberately single-threaded (the executor workspaces are
// reused mutable state); the batch server owns one engine per worker.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "exec/executor.hpp"
#include "exec/subgraph.hpp"
#include "nn/graph_context.hpp"
#include "nn/model.hpp"
#include "nn/param.hpp"
#include "tensor/tensor.hpp"

namespace gsoup::serve {

/// How query() answers: exact L-hop subgraph recomputation per batch, or
/// row lookups into the cached full-graph logits.
enum class QueryMode { kSubgraph, kCachedFull };

/// Which vertex numbering the constructor's `features` rows use.
/// kOriginal (the default) is the caller's numbering; on an active
/// GraphPlan context the engine then permutes a private copy. kPlan says
/// the rows are already plan-ordered — the BatchServer permutes once and
/// shares that copy across all of its workers' engines.
enum class FeatureSpace { kOriginal, kPlan };

/// The feature rows a forward reads: plan-space rows (a Tensor in the
/// caller's numbering is permuted on a reordering context) at storage
/// `precision` (a Tensor is quantized once for kFp16/kBf16). A HalfBuffer
/// is taken as-is: it must already be those rows, at `precision`.
StoredMatrix forward_features(const GraphContext& ctx, StoredMatrix features,
                              FeatureSpace space, Precision precision);

class InferenceEngine {
 public:
  /// `ctx` must wrap the serving graph for `config.arch` and outlive the
  /// engine; `features` is the [num_nodes, in_dim] feature matrix (shared
  /// storage, not copied). `params` tensors are shared, not copied — the
  /// snapshot (or training run) that produced them must stay alive.
  ///
  /// Locality: when `ctx` carries an active GraphPlan (reordered vertex
  /// numbering), the engine is the translation boundary — `features`,
  /// query node ids and all returned logits stay in the caller's original
  /// numbering. The engine permutes a private feature copy once at
  /// construction, runs every forward in plan space over the context's
  /// cached layouts, and maps ids/rows at the edges.
  ///
  /// Precision: kFp16/kBf16 fetches the half-lowered LayerPlan instead —
  /// the engine quantizes a private half copy of the (possibly permuted)
  /// features, the executor stores weight panels and inter-layer
  /// activations at half width, and all query/logit interfaces stay fp32
  /// (accumulation is fp32 throughout; see docs/ARCHITECTURE.md
  /// "Precision lowering"). `features` may instead be a pre-quantized
  /// HalfBuffer matching `precision`: a HalfBuffer cannot be permuted, so
  /// it must already hold the rows the forward reads (plan space when the
  /// context reorders), and the engine shares its storage instead of
  /// quantizing a copy — the BatchServer quantizes once per server and the
  /// sharded router once per shard, so W workers x R replicas hold ONE
  /// half-width feature slice.
  InferenceEngine(const ModelConfig& config, const ParamStore& params,
                  std::shared_ptr<const GraphContext> ctx,
                  StoredMatrix features,
                  QueryMode mode = QueryMode::kSubgraph,
                  FeatureSpace feature_space = FeatureSpace::kOriginal,
                  Precision precision = Precision::kFp32);

  const ModelConfig& config() const { return plan_->config(); }
  QueryMode mode() const { return mode_; }
  Precision precision() const { return precision_; }
  std::int64_t num_nodes() const { return num_nodes_; }

  /// Class logits for every node, [num_nodes, out_dim]. Computed on first
  /// call and cached; invalidate() forces recomputation (e.g. after the
  /// shared feature storage was mutated in place).
  const Tensor& full_logits();
  void invalidate() { full_valid_ = false; }

  /// The table kCachedFull queries answer from, in caller numbering
  /// (filled by full_logits(), which this calls): the logits themselves
  /// at fp32; in half precision their quantized copy, whose rows widen on
  /// gather. Shares storage — the BatchServer keeps the table alive after
  /// the construction-time engine is gone.
  const StoredMatrix& answer_table();

  /// Logits for a batch of node ids, written to the corresponding rows of
  /// `out` ([nodes.size(), out_dim], caller-allocated). Duplicate ids are
  /// fine (they share the computation). Row order matches `nodes`.
  void query(std::span<const std::int64_t> nodes, Tensor& out);

  /// Build a standalone, immutable L-hop plan for `nodes` (caller
  /// numbering; ids are translated here). The plan is tied to this
  /// engine's graph/architecture but NOT to this engine: any worker
  /// engine over the same context can execute it — the BatchServer's
  /// plan LRU relies on that. Allocates (it is a cache fill, not the
  /// steady-state path).
  std::shared_ptr<const exec::SubgraphPlan> compile_query_plan(
      std::span<const std::int64_t> nodes);

  /// Execute a prebuilt plan from compile_query_plan. `out` rows follow
  /// the node order the plan was compiled from. kSubgraph engines only.
  void query(const exec::SubgraphPlan& plan, Tensor& out);

  /// Argmax class of one node (single-query convenience).
  std::int32_t predict(std::int64_t node);

  /// Install a row-completeness guard (sharded serving). `complete` is in
  /// the caller's numbering, size num_nodes(): 1 flags rows of this
  /// engine's graph that are faithful copies of the full graph's. The
  /// engine keeps a private copy (permuted into plan space when the
  /// context reorders vertices) and every subsequent subgraph expansion —
  /// query() and compile_query_plan() alike — throws CheckError if it
  /// walks an incomplete row, i.e. if a query's neighbourhood escapes the
  /// shard's replicated halo. An empty span clears the guard.
  void set_row_guard(std::span<const std::uint8_t> complete);

  /// Total bytes of preallocated workspace (capacity planning).
  std::size_t workspace_bytes() const;

 private:
  /// Map caller-numbering query ids into plan space when the context
  /// reorders vertices; returns the span to expand (plan_ids_ is reused,
  /// cleared but never shrunk).
  std::span<const std::int64_t> translate_ids(
      std::span<const std::int64_t> nodes);

  /// Run a subgraph plan over the features and scatter its output rows
  /// into `out` by seed_row.
  void run_plan(const exec::SubgraphPlan& plan, Tensor& out);

  ParamStore params_;
  std::shared_ptr<const GraphContext> ctx_;
  /// The feature rows the forward reads: plan space, at the storage
  /// precision — a private permuted/quantized copy, or storage shared
  /// with the server-owned slice every sibling engine reads.
  StoredMatrix features_;
  QueryMode mode_;
  Precision precision_ = Precision::kFp32;
  std::int64_t num_nodes_ = 0;

  /// The compiled forward (owned by ctx_, memoised there) and its
  /// infer-mode executor with plan-declared workspaces.
  const exec::LayerPlan* plan_ = nullptr;
  std::unique_ptr<exec::Executor> exec_;

  // The cached full-graph logits (always caller numbering) and a one-row
  // scratch for predict(). With an active GraphPlan the full pass lands
  // in plan_space_logits_ first and is unpermuted once per cache fill;
  // that staging buffer is allocated lazily by the first full_logits()
  // (kSubgraph engines never pay for it).
  Tensor logits_;
  Tensor plan_space_logits_;
  /// The answer table kCachedFull query() gathers from: logits_ itself,
  /// or in half precision its quantized copy (convert-on-gather),
  /// refilled alongside logits_ per cache fill.
  StoredMatrix answers_;
  Tensor single_out_;
  bool full_valid_ = false;

  // Row-completeness guard (plan space when the context reorders; empty
  // when unset). The builder holds a span into this vector — safe across
  // engine moves (the heap buffer travels with the vector).
  std::vector<std::uint8_t> row_guard_;

  // Steady-state query scratch (reused across queries, cleared but never
  // shrunk): translated ids, the expansion builder, and the plan object.
  std::vector<std::int64_t> plan_ids_;
  exec::SubgraphPlanBuilder builder_;
  exec::SubgraphPlan scratch_plan_;
};

}  // namespace gsoup::serve
