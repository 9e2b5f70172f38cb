#include "train/ingredient_farm.hpp"

#include <atomic>
#include <cmath>

#include <omp.h>

#include "train/metrics.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace gsoup {

FarmResult train_ingredients(const GnnModel& model, const GraphContext& ctx,
                             const Dataset& data, const FarmConfig& config) {
  GSOUP_CHECK_MSG(config.num_ingredients >= 1, "need >= 1 ingredient");
  GSOUP_CHECK_MSG(config.num_workers >= 1, "need >= 1 worker");

  Timer wall;
  FarmResult result;
  result.ingredients.resize(static_cast<std::size_t>(config.num_ingredients));

  // Shared model initialisation, distributed to all workers (paper Fig. 1
  // Phase 1: "A shared model initialization is performed on the CPU and
  // distributed across all the workers").
  Rng init_rng(config.init_seed);
  const ParamStore shared_init = model.init_params(init_rng);

  // When several workers run concurrently, give each OpenMP team a single
  // lane to avoid oversubscribing the machine (workers are already the
  // parallel dimension — the training itself is embarrassingly parallel).
  const bool single_lane_kernels = config.num_workers > 1;

  ThreadPool pool(static_cast<std::size_t>(config.num_workers));
  std::atomic<std::int64_t> next_task{0};
  std::vector<std::future<void>> lanes;
  const auto lane_count = std::min(config.num_workers, config.num_ingredients);
  lanes.reserve(static_cast<std::size_t>(lane_count));
  for (std::int64_t lane = 0; lane < lane_count; ++lane) {
    lanes.push_back(pool.submit([&] {
      if (single_lane_kernels) omp_set_num_threads(1);
      // Dynamic ingredient allocation: grab the next id off the shared
      // queue as soon as the previous ingredient finishes.
      for (;;) {
        const std::int64_t id =
            next_task.fetch_add(1, std::memory_order_relaxed);
        if (id >= config.num_ingredients) return;

        Ingredient& ing = result.ingredients[static_cast<std::size_t>(id)];
        ing.id = id;
        ing.params = shared_init.clone();

        TrainConfig train_config = config.train;
        train_config.seed =
            config.train.seed + static_cast<std::uint64_t>(id) + 1;

        Timer t;
        TrainResult tr;
        if (config.minibatch) {
          MinibatchConfig mb = config.minibatch_config;
          mb.train = train_config;
          tr = train_minibatch(model, ctx, data, ing.params, mb);
        } else {
          tr = train_full_batch(model, ctx, data, ing.params, train_config);
        }
        ing.train_seconds = t.seconds();
        const Split report[] = {Split::kVal, Split::kTest};
        const auto acc = evaluate_splits(model, ctx, data, ing.params, report);
        ing.val_acc = acc[0];
        ing.test_acc = acc[1];
        GSOUP_LOG_DEBUG << "ingredient " << id << " trained in "
                        << ing.train_seconds << "s (val "
                        << ing.val_acc << ", best epoch " << tr.best_epoch
                        << ")";
      }
    }));
  }
  for (auto& lane : lanes) lane.get();

  result.wall_seconds = wall.seconds();
  double sum_val = 0.0, sum_test = 0.0, sum_test_sq = 0.0;
  for (const auto& ing : result.ingredients) {
    result.total_train_seconds += ing.train_seconds;
    sum_val += ing.val_acc;
    sum_test += ing.test_acc;
    sum_test_sq += ing.test_acc * ing.test_acc;
  }
  const auto n = static_cast<double>(result.ingredients.size());
  result.mean_val_acc = sum_val / n;
  result.mean_test_acc = sum_test / n;
  const double var =
      std::max(0.0, sum_test_sq / n -
                        result.mean_test_acc * result.mean_test_acc);
  result.stddev_test_acc = std::sqrt(var);
  return result;
}

}  // namespace gsoup
