// Tape-based reverse-mode automatic differentiation.
//
// A computation is a DAG of Nodes; each op allocates an output Node that
// remembers its parents and a closure that propagates the output gradient
// back to them. `backward()` runs a reverse topological sweep from a scalar
// loss. This engine powers both ingredient training (gradients to weights)
// and Learned Souping (gradients to interpolation logits, Eq. 4/6 of the
// paper).
//
// Inference mode (`NoGradGuard`) skips parent retention entirely, so
// intermediate activations free eagerly — forward-only algorithms (GIS
// evaluation sweeps) run at a fraction of the training-memory footprint,
// which is exactly the effect Fig. 4b measures.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "tensor/tensor.hpp"

namespace gsoup::ag {

class Node;
/// Shared handle to a node in the autodiff graph.
using Value = std::shared_ptr<Node>;

class Node {
 public:
  Tensor value;
  /// Gradient of the loss w.r.t. `value`; lazily allocated by backward().
  Tensor grad;
  bool requires_grad = false;
  std::vector<Value> parents;
  /// Propagates this->grad into parents' grads. Null for leaves.
  std::function<void(Node&)> backward_fn;
  /// Op name for diagnostics.
  const char* op = "leaf";

  /// Allocate (zeroed) grad storage on first use.
  Tensor& ensure_grad();
  /// Drop grad storage (between optimiser steps).
  void clear_grad() { grad = Tensor(); }
};

/// Is gradient recording enabled on this thread?
bool grad_enabled();

/// RAII guard disabling gradient recording (inference mode).
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

/// Create a leaf node (trainable parameter when requires_grad).
Value make_leaf(Tensor value, bool requires_grad);

/// Create a constant node (never receives gradient).
Value constant(Tensor value);

/// Internal helper used by every op: wires parents/backward only when
/// recording is on and some parent needs grad.
Value make_node(Tensor value, std::vector<Value> parents,
                std::function<void(Node&)> backward_fn, const char* op);

/// Reverse-mode sweep from a scalar root (numel == 1). Accumulates into
/// the `grad` of every reachable node with requires_grad.
void backward(const Value& root);

/// The same sweep from a root of any shape, seeded with dL/droot = seed
/// (the root's shape; the root takes it as its gradient). Benches and
/// tests drive one layer's backward with it.
void backward(const Value& root, Tensor seed);

}  // namespace gsoup::ag
