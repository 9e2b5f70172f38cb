#include "core/soup.hpp"

#include "train/metrics.hpp"
#include "util/check.hpp"
#include "util/memory_tracker.hpp"
#include "util/timer.hpp"

namespace gsoup {

std::size_t ingredients_bytes(std::span<const Ingredient> ingredients) {
  std::size_t bytes = 0;
  for (const auto& ing : ingredients) bytes += ing.params.bytes();
  return bytes;
}

SoupReport run_souper(Souper& souper, const SoupContext& sctx) {
  GSOUP_CHECK_MSG(!sctx.ingredients.empty(), "souping needs ingredients");
  for (const auto& ing : sctx.ingredients) {
    GSOUP_CHECK_MSG(
        ParamStore::compatible(ing.params, sctx.ingredients.front().params),
        "ingredient parameter stores are incompatible");
  }

  SoupReport report;
  report.method = souper.name();
  {
    PeakMemoryScope mem;
    Timer timer;
    report.soup = souper.mix(sctx);
    report.seconds = timer.seconds();
    report.mix_peak_bytes = mem.peak_above_entry();
  }
  report.peak_bytes =
      ingredients_bytes(sctx.ingredients) + report.mix_peak_bytes;
  const Split splits[] = {Split::kVal, Split::kTest};
  const auto acc = evaluate_splits(sctx.model, sctx.ctx, sctx.data,
                                   report.soup, splits);
  report.val_acc = acc[0];
  report.test_acc = acc[1];
  return report;
}

}  // namespace gsoup
