// Shared test utilities: finite-difference gradient checking, the
// full-graph tape evaluation reference, and small graph/dataset fixtures.
#pragma once

#include <cmath>
#include <functional>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "ag/value.hpp"
#include "graph/builder.hpp"
#include "graph/dataset.hpp"
#include "nn/graph_context.hpp"
#include "nn/model.hpp"
#include "nn/param.hpp"
#include "tensor/tensor.hpp"
#include "train/metrics.hpp"

namespace gsoup::testing {

/// Verify analytic gradients of a scalar-valued function against central
/// finite differences, for every element of every leaf.
///
/// `forward` must rebuild the computation from the leaves' current values
/// and return the scalar loss Value. Uses |a-b| <= atol + rtol*max(|a|,|b|).
inline void check_gradients(const std::function<ag::Value()>& forward,
                            std::span<const ag::Value> leaves,
                            float eps = 1e-2f, float atol = 2e-3f,
                            float rtol = 2e-2f) {
  // Analytic pass.
  ag::Value loss = forward();
  ASSERT_EQ(loss->value.numel(), 1);
  for (const auto& leaf : leaves) leaf->clear_grad();
  ag::backward(loss);

  std::vector<Tensor> analytic;
  analytic.reserve(leaves.size());
  for (const auto& leaf : leaves) {
    ASSERT_TRUE(leaf->requires_grad);
    analytic.push_back(leaf->grad.defined() ? leaf->grad.clone()
                                            : Tensor::zeros(leaf->value.shape()));
  }

  // Numeric pass (central differences), element by element.
  for (std::size_t li = 0; li < leaves.size(); ++li) {
    Tensor& x = leaves[li]->value;
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      const float original = x.at(i);
      x.at(i) = original + eps;
      const float up = forward()->value.at(0);
      x.at(i) = original - eps;
      const float down = forward()->value.at(0);
      x.at(i) = original;
      const float numeric = (up - down) / (2.0f * eps);
      const float a = analytic[li].at(i);
      const float tol =
          atol + rtol * std::max(std::abs(a), std::abs(numeric));
      EXPECT_NEAR(a, numeric, tol)
          << "leaf " << li << " element " << i;
    }
  }
  for (const auto& leaf : leaves) leaf->clear_grad();
}

/// Full-graph tape logits (GnnModel::forward under NoGradGuard): the
/// evaluation every split accuracy ran before SplitEvaluator, kept as the
/// reference its parity tests compare against.
inline Tensor tape_logits(const GnnModel& model, const GraphContext& ctx,
                          const Dataset& data, const ParamStore& params) {
  ag::NoGradGuard no_grad;
  const ParamMap map = as_leaves(params, /*requires_grad=*/false);
  return model.forward(ctx, ag::constant(data.features), map)->value.clone();
}

/// Split accuracy through tape_logits.
inline double tape_accuracy(const GnnModel& model, const GraphContext& ctx,
                            const Dataset& data, const ParamStore& params,
                            Split split) {
  return accuracy(tape_logits(model, ctx, data, params), data.labels,
                  data.split_nodes(split));
}

/// Tiny fixed graph: 6 nodes, a path plus chords, symmetrised with self
/// loops. Deterministic.
inline Csr tiny_graph() {
  std::vector<Edge> edges{{0, 1}, {1, 2}, {2, 3}, {3, 4},
                          {4, 5}, {0, 2}, {1, 4}, {3, 5}};
  return build_csr(6, edges);
}

/// Tiny two-class dataset over tiny_graph(): features separable by class.
inline Dataset tiny_dataset() {
  Dataset data;
  data.name = "tiny";
  data.graph = tiny_graph();
  data.num_classes = 2;
  data.labels = {0, 0, 0, 1, 1, 1};
  data.features = Tensor::from_vector(
      {1.0f, 0.1f, 0.9f, 0.2f, 0.8f, 0.15f, 0.1f, 0.9f, 0.2f, 1.0f, 0.15f,
       0.85f},
      {6, 2});
  data.train_mask = {1, 0, 1, 1, 0, 1};
  data.val_mask = {0, 1, 0, 0, 0, 0};
  data.test_mask = {0, 0, 0, 0, 1, 0};
  data.validate();
  return data;
}

}  // namespace gsoup::testing
