#include "core/learned.hpp"

#include "ag/loss.hpp"
#include "train/metrics.hpp"
#include "train/scheduler.hpp"
#include "util/check.hpp"

namespace gsoup {

AlphaLoopSouper::AlphaLoopSouper(LearnedSoupConfig config) : config_(config) {
  GSOUP_CHECK_MSG(config_.epochs >= 1,
                  "learned souping needs at least one epoch");
}

ParamStore AlphaLoopSouper::learn(const SoupContext& sctx,
                                  const EpochField& field) {
  loss_history_.clear();
  final_weights_.clear();
  pruned_entries_ = 0;

  Rng rng(config_.seed);
  AlphaSet alphas(sctx.ingredients.front().params,
                  static_cast<std::int64_t>(sctx.ingredients.size()),
                  config_.granularity, rng);

  OptimizerConfig opt_config;
  opt_config.kind = config_.optimizer;
  opt_config.lr = config_.lr;
  opt_config.momentum = config_.momentum;
  opt_config.weight_decay = config_.weight_decay;
  auto optimizer = make_optimizer(alphas.logits(), opt_config);

  ScheduleConfig schedule;
  schedule.kind = ScheduleKind::kCosine;
  schedule.base_lr = config_.lr;
  schedule.min_lr = config_.min_lr;

  std::vector<Tensor> best_logits;
  double best_val = -1.0;

  for (std::int64_t epoch = 0; epoch < config_.epochs; ++epoch) {
    optimizer->set_lr(scheduled_lr(schedule, epoch, config_.epochs));

    // The field (and, for PLS, its subgraph and context) lives for the
    // whole body and dies with the epoch's tape.
    field(rng, [&](const GraphContext& ctx, const Dataset& data) {
      const auto val_nodes = data.split_nodes(Split::kVal);
      GSOUP_CHECK_MSG(!val_nodes.empty(),
                      "learned souping needs validation nodes");
      // Soup <- buildSoup(M, Alphas): differentiable mixture of frozen
      // ingredient tensors; only the alpha logits receive gradients.
      const ParamMap soup_values = alphas.build_soup_values(sctx.ingredients);
      const ag::Value logits = sctx.model.forward(
          ctx, ag::constant(data.features), soup_values);
      const ag::Value loss =
          ag::cross_entropy(logits, data.labels, val_nodes);
      loss_history_.push_back(static_cast<double>(loss->value.at(0)));

      ag::backward(loss);
      optimizer->step();
      optimizer->zero_grad();

      if (config_.prune_threshold > 0.0 && epoch > 0 &&
          config_.epochs >= 3 &&
          (epoch == config_.epochs / 3 || epoch == 2 * config_.epochs / 3)) {
        const auto n = alphas.suppress_below(config_.prune_threshold);
        if (n > 0) pruned_entries_ += n;
      }

      // The probe always scores the full graph's val split.
      if (config_.keep_best && config_.eval_every > 0 &&
          (epoch % config_.eval_every == 0 || epoch + 1 == config_.epochs)) {
        const ParamStore snapshot = alphas.build_soup(sctx.ingredients);
        const double val = evaluate_split(sctx.model, sctx.ctx, sctx.data,
                                          snapshot, Split::kVal);
        if (val > best_val) {
          best_val = val;
          best_logits.clear();
          for (const auto& l : alphas.logits()) {
            best_logits.push_back(l->value.clone());
          }
        }
      }
    });
  }

  if (config_.keep_best && !best_logits.empty()) {
    const auto& logits = alphas.logits();
    for (std::size_t i = 0; i < logits.size(); ++i) {
      logits[i]->value.copy_(best_logits[i]);
    }
  }

  for (std::int64_t g = 0; g < alphas.num_groups(); ++g) {
    final_weights_.push_back(alphas.group_weights(g));
  }
  return alphas.build_soup(sctx.ingredients);
}

LearnedSouper::LearnedSouper(LearnedSoupConfig config)
    : AlphaLoopSouper(config) {}

ParamStore LearnedSouper::mix(const SoupContext& sctx) {
  return learn(sctx, [&](Rng&, const EpochBody& body) {
    body(sctx.ctx, sctx.data);
  });
}

}  // namespace gsoup
