#include "train/metrics.hpp"

#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace gsoup {

double accuracy(const Tensor& logits, std::span<const std::int32_t> labels,
                std::span<const std::int64_t> nodes) {
  GSOUP_CHECK_MSG(!nodes.empty(), "accuracy needs a non-empty node set");
  const auto pred = ops::row_argmax(logits);
  std::int64_t correct = 0;
  for (const auto v : nodes) {
    if (pred[v] == labels[v]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(nodes.size());
}

namespace {

/// The compiled plan an evaluation runs, after checking its inputs.
const exec::LayerPlan& eval_plan(const GnnModel& model,
                                 const GraphContext& ctx,
                                 const Dataset& data) {
  GSOUP_CHECK_MSG(ctx.arch() == model.config().arch,
                  "graph context built for a different architecture");
  // Split node ids and labels are read in the context's numbering; a
  // reordered context needs the dataset in the same plan space.
  ctx.check_plan_space(data.graph);
  return ctx.layer_plan(model.config());
}

/// Expands `nodes`' exact L-hop field over the plan's message graph.
exec::SubgraphPlan receptive_field(const GnnModel& model,
                                   const GraphContext& ctx,
                                   const Dataset& data,
                                   std::span<const std::int64_t> nodes) {
  const exec::LayerPlan& plan = eval_plan(model, ctx, data);
  GSOUP_CHECK_MSG(!nodes.empty(), "accuracy needs a non-empty node set");
  exec::SubgraphPlanBuilder builder(plan.num_nodes(), plan.num_layers());
  exec::SubgraphPlan field;
  builder.build(plan.message_graph(), nodes, field);
  return field;
}

}  // namespace

SplitEvaluator::SplitEvaluator(const GnnModel& model, const GraphContext& ctx,
                               const Dataset& data, const ParamStore& params,
                               Split split)
    : data_(data),
      nodes_(data.split_nodes(split)),
      field_(receptive_field(model, ctx, data, nodes_)),
      executor_(ctx.layer_plan(model.config()), params, field_.max_rows()) {}

const Tensor& SplitEvaluator::logits() {
  return executor_.run_subgraph(field_, data_.features);
}

double SplitEvaluator::accuracy() {
  // Split nodes are distinct, so the field's output rows are the nodes in
  // order (destinations are a prefix of each layer's sources).
  const Tensor& out = logits();
  const std::int64_t classes = out.shape(1);
  const float* rows = out.data();
  std::int64_t correct = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const std::int64_t pred = ops::argmax_row(
        rows + static_cast<std::int64_t>(i) * classes, classes);
    if (pred == data_.labels[static_cast<std::size_t>(nodes_[i])]) {
      ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(nodes_.size());
}

double evaluate_split(const GnnModel& model, const GraphContext& ctx,
                      const Dataset& data, const ParamStore& params,
                      Split split) {
  return SplitEvaluator(model, ctx, data, params, split).accuracy();
}

std::vector<double> evaluate_splits(const GnnModel& model,
                                    const GraphContext& ctx,
                                    const Dataset& data,
                                    const ParamStore& params,
                                    std::span<const Split> splits) {
  const exec::LayerPlan& plan = eval_plan(model, ctx, data);
  exec::Executor executor(plan, params);
  Tensor logits = Tensor::empty({plan.num_nodes(), model.config().out_dim});
  executor.run_full(data.features, logits);
  std::vector<double> out;
  for (const Split split : splits) {
    out.push_back(accuracy(logits, data.labels, data.split_nodes(split)));
  }
  return out;
}

}  // namespace gsoup
