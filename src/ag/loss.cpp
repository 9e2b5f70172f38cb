#include "ag/loss.hpp"

#include <cmath>
#include <limits>
#include <vector>

#include "util/check.hpp"

namespace gsoup::ag {

Value cross_entropy(const Value& logits, std::span<const std::int32_t> labels,
                    std::span<const std::int64_t> nodes) {
  GSOUP_CHECK_MSG(logits->value.rank() == 2, "cross_entropy needs [n,c]");
  GSOUP_CHECK_MSG(!nodes.empty(), "cross_entropy needs a non-empty mask");
  [[maybe_unused]] const std::int64_t n = logits->value.shape(0);
  const std::int64_t c = logits->value.shape(1);
  const auto m = static_cast<std::int64_t>(nodes.size());

  // Save softmax probabilities of the masked rows for the backward pass.
  Tensor probs = Tensor::empty({m, c});
  double loss_acc = 0.0;
  {
    const float* __restrict__ px = logits->value.data();
    float* __restrict__ pp = probs.data();
#pragma omp parallel for schedule(static) reduction(+ : loss_acc) \
    if (m >= 256)
    for (std::int64_t k = 0; k < m; ++k) {
      const std::int64_t v = nodes[k];
      GSOUP_DCHECK(v >= 0 && v < n);
      const std::int32_t y = labels[v];
      GSOUP_DCHECK(y >= 0 && y < c);
      const float* row = px + v * c;
      float* prow = pp + k * c;
      float mx = -std::numeric_limits<float>::infinity();
      for (std::int64_t j = 0; j < c; ++j) mx = std::max(mx, row[j]);
      float denom = 0.0f;
      for (std::int64_t j = 0; j < c; ++j) {
        prow[j] = std::exp(row[j] - mx);
        denom += prow[j];
      }
      const float inv = 1.0f / denom;
      for (std::int64_t j = 0; j < c; ++j) prow[j] *= inv;
      loss_acc += -(static_cast<double>(row[y]) - mx - std::log(denom));
    }
  }
  Tensor out =
      Tensor::full({1}, static_cast<float>(loss_acc / static_cast<double>(m)));

  std::vector<std::int64_t> node_copy(nodes.begin(), nodes.end());
  std::vector<std::int32_t> label_copy(labels.begin(), labels.end());
  return make_node(
      std::move(out), {logits},
      [logits, probs, node_copy = std::move(node_copy),
       label_copy = std::move(label_copy), c](Node& node) {
        if (!logits->requires_grad) return;
        const float upstream = node.grad.at(0);
        const float scale =
            upstream / static_cast<float>(node_copy.size());
        Tensor& xg = logits->ensure_grad();
        float* __restrict__ dst = xg.data();
        const float* __restrict__ pp = probs.data();
        for (std::size_t k = 0; k < node_copy.size(); ++k) {
          const std::int64_t v = node_copy[k];
          const std::int32_t y = label_copy[v];
          float* row = dst + v * c;
          const float* prow = pp + static_cast<std::int64_t>(k) * c;
          for (std::int64_t j = 0; j < c; ++j) {
            row[j] += scale * (prow[j] - (j == y ? 1.0f : 0.0f));
          }
        }
      },
      "cross_entropy");
}

}  // namespace gsoup::ag
