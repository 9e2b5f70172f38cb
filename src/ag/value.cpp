#include "ag/value.hpp"

#include <unordered_set>

#include "util/check.hpp"

namespace gsoup::ag {

namespace {
thread_local bool t_grad_enabled = true;
}  // namespace

Tensor& Node::ensure_grad() {
  if (!grad.defined()) grad = Tensor::zeros(value.shape());
  return grad;
}

bool grad_enabled() { return t_grad_enabled; }

NoGradGuard::NoGradGuard() : previous_(t_grad_enabled) {
  t_grad_enabled = false;
}

NoGradGuard::~NoGradGuard() { t_grad_enabled = previous_; }

Value make_leaf(Tensor value, bool requires_grad) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  node->requires_grad = requires_grad;
  return node;
}

Value constant(Tensor value) { return make_leaf(std::move(value), false); }

Value make_node(Tensor value, std::vector<Value> parents,
                std::function<void(Node&)> backward_fn, const char* op) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  node->op = op;
  bool needs = false;
  if (t_grad_enabled) {
    for (const auto& p : parents) {
      if (p && p->requires_grad) {
        needs = true;
        break;
      }
    }
  }
  if (needs) {
    node->requires_grad = true;
    node->parents = std::move(parents);
    node->backward_fn = std::move(backward_fn);
  }
  return node;
}

void backward(const Value& root) {
  GSOUP_CHECK_MSG(root != nullptr, "backward on null value");
  GSOUP_CHECK_MSG(root->value.numel() == 1,
                  "backward requires a scalar root, got "
                      << root->value.shape_str());
  backward(root, Tensor::full(root->value.shape(), 1.0f));
}

void backward(const Value& root, Tensor seed) {
  GSOUP_CHECK_MSG(root != nullptr, "backward on null value");
  GSOUP_CHECK_MSG(root->requires_grad,
                  "backward root does not require grad (inference mode?)");
  GSOUP_CHECK_MSG(seed.shape() == root->value.shape(),
                  "backward seed " << seed.shape_str() << " vs root "
                                   << root->value.shape_str());

  // Iterative DFS post-order over the requires_grad subgraph.
  std::vector<Node*> topo;
  std::unordered_set<Node*> visited;
  struct Frame {
    Node* node;
    std::size_t next_parent;
  };
  std::vector<Frame> stack{{root.get(), 0}};
  visited.insert(root.get());
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next_parent < frame.node->parents.size()) {
      Node* parent = frame.node->parents[frame.next_parent++].get();
      if (parent != nullptr && parent->requires_grad &&
          visited.insert(parent).second) {
        stack.push_back({parent, 0});
      }
    } else {
      topo.push_back(frame.node);
      stack.pop_back();
    }
  }

  root->grad = std::move(seed);
  // topo is post-order (children after parents pushed), so iterate in
  // reverse to visit each node before its parents.
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    Node* node = *it;
    if (node->backward_fn) node->backward_fn(*node);
  }
}

}  // namespace gsoup::ag
