#include "serve/engine.hpp"

#include <algorithm>
#include <cstring>

#include "tensor/ops.hpp"
#include "util/check.hpp"
#include "util/failpoint.hpp"

namespace gsoup::serve {

StoredMatrix forward_features(const GraphContext& ctx, StoredMatrix features,
                              FeatureSpace space, Precision precision) {
  if (const HalfBuffer* half = std::get_if<HalfBuffer>(&features)) {
    GSOUP_CHECK_MSG(half->precision() == precision,
                    "half features are " << precision_name(half->precision())
                                         << " but the serving precision is "
                                         << precision_name(precision));
    return features;
  }
  Tensor rows = std::get<Tensor>(std::move(features));
  // Active GraphPlan: the graph in ctx is vertex-reordered, so the
  // forward needs plan-ordered feature rows — permute a copy unless the
  // caller already holds a plan-space tensor.
  if (ctx.plan() != nullptr && ctx.plan()->active()) {
    if (space == FeatureSpace::kOriginal) {
      rows = ctx.plan()->permute_rows(rows);
    }
  } else {
    GSOUP_CHECK_MSG(space == FeatureSpace::kOriginal,
                    "plan-space features need a context with an active "
                    "GraphPlan");
  }
  // Half precision: quantize once; the fp32 rows are dropped, so no
  // full-width feature copy is held.
  if (precision == Precision::kFp32) return rows;
  return HalfBuffer::quantize(rows, precision);
}

InferenceEngine::InferenceEngine(
    const ModelConfig& config, const ParamStore& params,
    std::shared_ptr<const GraphContext> ctx, StoredMatrix features,
    QueryMode mode, FeatureSpace feature_space, Precision precision)
    : params_(params),
      ctx_(std::move(ctx)),
      mode_(mode),
      precision_(precision),
      builder_(ctx_ != nullptr ? ctx_->raw().num_nodes : 0,
               config.num_layers) {
  GSOUP_CHECK_MSG(ctx_ != nullptr, "engine needs a graph context");
  GSOUP_CHECK_MSG(ctx_->arch() == config.arch,
                  "graph context built for a different architecture");
  num_nodes_ = ctx_->raw().num_nodes;
  std::visit(
      [&](const auto& f) {
        GSOUP_CHECK_MSG(f.rank() == 2 && f.shape(0) == num_nodes_ &&
                            f.shape(1) == config.in_dim,
                        "feature matrix " << f.shape_str()
                                          << " does not match graph/model");
      },
      features);
  // Queries and results keep the caller's numbering whatever the feature
  // rows' space: ids are translated per query, logits unpermuted per full
  // pass. plan_space_logits_ is allocated lazily by the first
  // full_logits() call: kSubgraph engines never run a full pass and
  // should not hold a whole-graph buffer.
  features_ = forward_features(*ctx_, std::move(features), feature_space,
                               precision_);

  // The compiled forward: the same LayerPlan the tape records through
  // (bit-identical logits at fp32; the half plans lower storage width
  // only — accumulation order is unchanged), executed here autograd-free
  // with infer-mode kernel lowering into plan-declared workspace slabs.
  plan_ = &ctx_->layer_plan(config, precision_);
  exec_ = std::make_unique<exec::Executor>(*plan_, params_);

  logits_ = Tensor::empty({num_nodes_, config.out_dim});
  single_out_ = Tensor::empty({1, config.out_dim});
  answers_ = logits_;
  if (precision_ != Precision::kFp32 && mode_ == QueryMode::kCachedFull) {
    answers_ = HalfBuffer::empty({num_nodes_, config.out_dim}, precision_);
  }
}

std::size_t InferenceEngine::workspace_bytes() const {
  std::size_t total =
      exec_->workspace_bytes() + logits_.bytes() + single_out_.bytes();
  if (plan_space_logits_.defined()) total += plan_space_logits_.bytes();
  if (const auto* table = std::get_if<HalfBuffer>(&answers_)) {
    total += table->bytes();
  }
  return total;
}

const Tensor& InferenceEngine::full_logits() {
  if (!full_valid_) {
    const bool reordered = ctx_->plan() != nullptr && ctx_->plan()->active();
    // First full pass on a reordered context: allocate the plan-space
    // staging buffer now (kSubgraph engines never pay for it). Part of
    // warm-up, so the zero-alloc-after-warmup contract holds.
    if (reordered && !plan_space_logits_.defined()) {
      plan_space_logits_ =
          Tensor::empty({num_nodes_, plan_->config().out_dim});
    }
    Tensor& target = reordered ? plan_space_logits_ : logits_;
    std::visit([&](const auto& f) { exec_->run_full(f, target); },
               features_);
    // Plan-space rows back to the caller's numbering, once per cache
    // fill; row lookups stay free afterwards.
    if (reordered) {
      ctx_->plan()->unpermute_rows_into(plan_space_logits_, logits_);
    }
    // A half answer table is refreshed from the new logits (caller
    // numbering, like logits_).
    if (auto* table = std::get_if<HalfBuffer>(&answers_)) {
      table->quantize_from(logits_);
    }
    full_valid_ = true;
  }
  return logits_;
}

const StoredMatrix& InferenceEngine::answer_table() {
  full_logits();
  return answers_;
}

std::span<const std::int64_t> InferenceEngine::translate_ids(
    std::span<const std::int64_t> nodes) {
  for (const auto node : nodes) {
    GSOUP_CHECK_MSG(node >= 0 && node < num_nodes_,
                    "query node " << node << " out of range [0, "
                                  << num_nodes_ << ")");
  }
  // Subgraph expansion walks the context's graph, which is in plan space
  // when the plan is active: translate the query ids once, here at the
  // boundary (plan_ids_ keeps its capacity across queries).
  if (ctx_->plan() == nullptr || !ctx_->plan()->active()) return nodes;
  plan_ids_.clear();
  for (const std::int64_t node : nodes) {
    plan_ids_.push_back(ctx_->plan()->to_plan(node));
  }
  return plan_ids_;
}

void InferenceEngine::run_plan(const exec::SubgraphPlan& plan, Tensor& out) {
  const Tensor& rows = std::visit(
      [&](const auto& f) -> const Tensor& {
        return exec_->run_subgraph(plan, f);
      },
      features_);
  // Route plan rows back to query slots (duplicates share a row).
  const std::int64_t d = out.shape(1);
  const float* __restrict__ src = rows.data();
  float* __restrict__ dst = out.data();
  for (std::size_t i = 0; i < plan.seed_row.size(); ++i) {
    std::memcpy(dst + static_cast<std::int64_t>(i) * d,
                src + plan.seed_row[i] * d,
                static_cast<std::size_t>(d) * sizeof(float));
  }
}

void InferenceEngine::query(std::span<const std::int64_t> nodes,
                            Tensor& out) {
  FAILPOINT("engine.query");
  const std::int64_t out_dim = plan_->config().out_dim;
  const auto batch = static_cast<std::int64_t>(nodes.size());
  GSOUP_CHECK_MSG(batch > 0, "query needs at least one node");
  GSOUP_CHECK_MSG(out.rank() == 2 && out.shape(0) == batch &&
                      out.shape(1) == out_dim,
                  "query output " << out.shape_str() << " != [" << batch
                                  << ", " << out_dim << "]");

  if (mode_ == QueryMode::kCachedFull) {
    // Validate before gathering straight out of logits_ — translate_ids
    // covers the subgraph path only.
    for (const auto node : nodes) {
      GSOUP_CHECK_MSG(node >= 0 && node < num_nodes_,
                      "query node " << node << " out of range [0, "
                                    << num_nodes_ << ")");
    }
    // A half answer table widens its rows to fp32 on gather, so the
    // steady-state table costs half the memory and gather traffic.
    std::visit(
        [&](const auto& table) { ops::gather_rows_into(table, nodes, out); },
        answer_table());
    return;
  }

  builder_.build(plan_->message_graph(), translate_ids(nodes),
                 scratch_plan_);
  run_plan(scratch_plan_, out);
}

std::shared_ptr<const exec::SubgraphPlan> InferenceEngine::compile_query_plan(
    std::span<const std::int64_t> nodes) {
  GSOUP_CHECK_MSG(!nodes.empty(), "query plan needs at least one node");
  auto plan = std::make_shared<exec::SubgraphPlan>();
  builder_.build(plan_->message_graph(), translate_ids(nodes), *plan);
  return plan;
}

void InferenceEngine::query(const exec::SubgraphPlan& plan, Tensor& out) {
  FAILPOINT("engine.query");
  GSOUP_CHECK_MSG(mode_ == QueryMode::kSubgraph,
                  "prebuilt plans are for kSubgraph engines");
  GSOUP_CHECK_MSG(out.rank() == 2 && out.shape(0) == plan.num_queries() &&
                      out.shape(1) == plan_->config().out_dim,
                  "query output " << out.shape_str()
                                  << " does not match the plan");
  run_plan(plan, out);
}

void InferenceEngine::set_row_guard(std::span<const std::uint8_t> complete) {
  if (complete.empty()) {
    row_guard_.clear();
    builder_.set_row_guard({});
    return;
  }
  GSOUP_CHECK_MSG(static_cast<std::int64_t>(complete.size()) == num_nodes_,
                  "row guard size " << complete.size()
                                    << " does not match graph ("
                                    << num_nodes_ << " nodes)");
  // The builder walks the context's graph, which is plan-ordered when the
  // plan is active: permute the guard into the same numbering.
  row_guard_.resize(complete.size());
  if (ctx_->plan() != nullptr && ctx_->plan()->active()) {
    for (std::int64_t p = 0; p < num_nodes_; ++p) {
      row_guard_[static_cast<std::size_t>(p)] =
          complete[static_cast<std::size_t>(ctx_->plan()->to_original(p))];
    }
  } else {
    std::copy(complete.begin(), complete.end(), row_guard_.begin());
  }
  builder_.set_row_guard(row_guard_);
}

std::int32_t InferenceEngine::predict(std::int64_t node) {
  const std::int64_t ids[1] = {node};
  query(std::span<const std::int64_t>(ids, 1), single_out_);
  return static_cast<std::int32_t>(
      ops::argmax_row(single_out_.data(), plan_->config().out_dim));
}

}  // namespace gsoup::serve
