// Evaluation utilities: classification accuracy over node subsets, and
// whole-model split evaluation (autograd-free infer mode over the split's
// exact receptive field).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "exec/executor.hpp"
#include "exec/subgraph.hpp"
#include "graph/dataset.hpp"
#include "nn/graph_context.hpp"
#include "nn/model.hpp"
#include "nn/param.hpp"

namespace gsoup {

/// Fraction of `nodes` whose argmax logit equals the label.
double accuracy(const Tensor& logits, std::span<const std::int32_t> labels,
                std::span<const std::int64_t> nodes);

/// Accuracy of one split under a bound parameter store. A split's logits
/// depend only on its nodes' L-hop in-neighbourhood, so construction
/// expands that field once into an exact SubgraphPlan over the context's
/// message graph and binds one infer-mode Executor to `params`. Each
/// accuracy() then runs the compiled layers over those rows alone: no
/// tape, and no tracked allocation once warm. The logits are the full
/// forward's rows (the train = infer and full = subgraph parity
/// contracts of tests/test_exec.cpp).
///
/// The executor shares `params`' tensors, so in-place writes to the store
/// (an optimizer step, ParamStore::interpolate_into/average_into) are
/// seen by the next call; replacing a tensor object is not. Every
/// argument must outlive the evaluator. Single-threaded, like Executor.
class SplitEvaluator {
 public:
  SplitEvaluator(const GnnModel& model, const GraphContext& ctx,
                 const Dataset& data, const ParamStore& params, Split split);

  SplitEvaluator(const SplitEvaluator&) = delete;
  SplitEvaluator& operator=(const SplitEvaluator&) = delete;

  /// Fraction of the split's nodes whose argmax logit equals the label.
  double accuracy();

  /// Logits of the split's nodes under the store's current values: row i
  /// belongs to the i-th node of Dataset::split_nodes. A view into the
  /// executor's workspace, valid until the next call.
  const Tensor& logits();

  /// The receptive field the forward runs over.
  const exec::SubgraphPlan& field() const { return field_; }

 private:
  const Dataset& data_;
  std::vector<std::int64_t> nodes_;
  exec::SubgraphPlan field_;
  exec::Executor executor_;
};

/// One-off SplitEvaluator(...).accuracy(). Loops that evaluate the same
/// split repeatedly keep one evaluator alive instead.
double evaluate_split(const GnnModel& model, const GraphContext& ctx,
                      const Dataset& data, const ParamStore& params,
                      Split split);

/// Accuracy on each of `splits`, in order, from one infer-mode full-graph
/// pass: the one-off val + test report. The splits' fields together span
/// most of the graph (a test split's alone usually does), so one full pass
/// is cheaper than a subgraph plan per split, and it never copies the
/// graph's edges into a plan.
std::vector<double> evaluate_splits(const GnnModel& model,
                                    const GraphContext& ctx,
                                    const Dataset& data,
                                    const ParamStore& params,
                                    std::span<const Split> splits);

}  // namespace gsoup
