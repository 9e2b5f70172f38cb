#include "core/greedy.hpp"

#include <algorithm>
#include <numeric>

#include "train/metrics.hpp"
#include "util/check.hpp"

namespace gsoup {

ParamStore GreedySouper::mix(const SoupContext& sctx) {
  GSOUP_CHECK_MSG(!sctx.ingredients.empty(), "souping needs ingredients");
  // Msorted <- SORT_ValAcc(M), descending.
  std::vector<std::size_t> order(sctx.ingredients.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return sctx.ingredients[a].val_acc > sctx.ingredients[b].val_acc;
  });

  // Each candidate average is written into one store that a single
  // val-split evaluator is bound to.
  ParamStore candidate = sctx.ingredients[order.front()].params.clone();
  SplitEvaluator val_eval(sctx.model, sctx.ctx, sctx.data, candidate,
                          Split::kVal);

  selected_.clear();
  std::vector<const ParamStore*> members;
  double soup_val = -1.0;
  for (const auto idx : order) {
    members.push_back(&sctx.ingredients[idx].params);
    ParamStore::average_into(candidate, members);
    const double candidate_val = val_eval.accuracy();
    if (candidate_val >= soup_val) {
      soup_val = candidate_val;
      selected_.push_back(sctx.ingredients[idx].id);
    } else {
      members.pop_back();
    }
  }
  // `members` now holds exactly the admitted ingredients, so this is the
  // last accepted candidate, recomputed with the same arithmetic.
  return ParamStore::average(members);
}

}  // namespace gsoup
