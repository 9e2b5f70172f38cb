#include "core/gis.hpp"

#include <algorithm>
#include <numeric>

#include "train/metrics.hpp"
#include "util/check.hpp"

namespace gsoup {

GisSouper::GisSouper(GisConfig config) : config_(config) {
  GSOUP_CHECK_MSG(config_.granularity >= 2, "granularity must be >= 2");
}

ParamStore GisSouper::mix(const SoupContext& sctx) {
  GSOUP_CHECK_MSG(!sctx.ingredients.empty(), "souping needs ingredients");
  evaluations_ = 0;
  std::vector<std::size_t> order(sctx.ingredients.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return sctx.ingredients[a].val_acc > sctx.ingredients[b].val_acc;
  });

  // soup <- Msorted[0]
  ParamStore soup = sctx.ingredients[order.front()].params.clone();
  double soup_val = sctx.ingredients[order.front()].val_acc;

  // Every ratio is interpolated in place into one candidate store, and one
  // evaluator bound to it scores the candidate over the val nodes'
  // receptive field: the sweep allocates nothing per candidate.
  ParamStore candidate = soup.clone();
  SplitEvaluator val_eval(sctx.model, sctx.ctx, sctx.data, candidate,
                          Split::kVal);

  // For each remaining ingredient, sweep alpha over linspace(0,1,g); alpha
  // is the weight of the incoming ingredient. The best ratio that does not
  // reduce validation accuracy becomes the new soup. (Algorithm 2 as
  // published mutates the soup inside the ratio loop; like the Graph
  // Ladling reference implementation we evaluate all ratios against the
  // current soup and commit the best, which is the intended semantics.)
  const std::int64_t g = config_.granularity;
  for (std::size_t k = 1; k < order.size(); ++k) {
    const ParamStore& incoming = sctx.ingredients[order[k]].params;
    double best_val = soup_val;
    float best_alpha = -1.0f;
    for (std::int64_t step = 0; step < g; ++step) {
      const float alpha =
          static_cast<float>(step) / static_cast<float>(g - 1);
      ParamStore::interpolate_into(candidate, soup, incoming, alpha);
      const double val = val_eval.accuracy();
      ++evaluations_;
      if (val >= best_val) {
        best_val = val;
        best_alpha = alpha;
      }
    }
    if (best_alpha >= 0.0f) {
      ParamStore::interpolate_into(soup, soup, incoming, best_alpha);
      soup_val = best_val;
    }
  }
  return soup;
}

}  // namespace gsoup
