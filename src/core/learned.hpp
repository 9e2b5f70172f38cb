// Learned Souping for GNNs (LS) — Algorithm 3, the paper's first
// contribution. The interpolation ratios α_i^l of Eq. 3 are treated as
// learnable parameters: each epoch builds the soup W_soup^l = Σ_i α_i^l
// W_i^l as a differentiable mixture, evaluates the validation loss with a
// forward pass, and updates the alphas by backpropagation (Eq. 4) using
// SGD with cosine annealing (§III-B). Replaces GIS's O(N·g·F_v)
// exhaustive ratio search with O(e·(F_v + B_v)).
#pragma once

#include <functional>

#include "core/alpha.hpp"
#include "core/soup.hpp"
#include "train/optimizer.hpp"

namespace gsoup {

struct LearnedSoupConfig {
  std::int64_t epochs = 60;
  /// "relatively large base learning rates often yielded the best
  /// results" (§VI-A).
  double lr = 0.2;
  double min_lr = 0.0;      ///< cosine annealing floor
  double momentum = 0.9;
  double weight_decay = 0.0;
  /// SGD per the paper; AdamW available for the optimiser ablation.
  OptimizerKind optimizer = OptimizerKind::kSgd;
  AlphaGranularity granularity = AlphaGranularity::kLayer;
  std::uint64_t seed = 13;
  /// Snapshot the alphas at the best validation accuracy and restore them
  /// at the end. Off by default — the paper notes early stopping only as
  /// future work (§VI-A/§VIII) — but exposed for the ablation bench.
  bool keep_best = false;
  std::int64_t eval_every = 10;  ///< val-accuracy probe cadence (keep_best)
  /// Ingredient drop-out (paper §VIII: "methods could be used to more
  /// easily 'drop-out' poor performing ingredients"): at the 1/3 and 2/3
  /// epoch marks, hard-suppress ingredients whose softmax weight fell
  /// below `prune_threshold`·(1/N) — the exact-zero the softmax itself
  /// cannot reach (§V-A). 0 disables (paper behaviour).
  double prune_threshold = 0.0;
};

/// The learned-souping alpha loop (Alg. 3), written once for LS and PLS:
/// alpha logits, the optimiser under a cosine schedule, ingredient
/// drop-out and the keep-best probe. The two methods differ only in the
/// (graph, dataset) each epoch's validation loss runs on.
class AlphaLoopSouper : public Souper {
 public:
  /// Validation-loss trajectory of the last mix() (diagnostics/tests).
  const std::vector<double>& loss_history() const { return loss_history_; }
  /// Final per-group ingredient weights of the last mix().
  const std::vector<std::vector<float>>& final_weights() const {
    return final_weights_;
  }
  /// (group, ingredient) entries hard-suppressed by ingredient drop-out
  /// during the last mix().
  std::int64_t pruned_entries() const { return pruned_entries_; }

 protected:
  explicit AlphaLoopSouper(LearnedSoupConfig config);

  /// One epoch's forward, loss, backward and step over a field.
  using EpochBody = std::function<void(const GraphContext&, const Dataset&)>;
  /// Calls the body once on the field this epoch's loss runs on; the
  /// field must outlive the call. `rng` is the loop's stream, already
  /// past the alpha initialisation.
  using EpochField = std::function<void(Rng& rng, const EpochBody& body)>;

  /// Runs config.epochs epochs, each over the field `field` hands it;
  /// returns the learned soup.
  ParamStore learn(const SoupContext& sctx, const EpochField& field);

 private:
  LearnedSoupConfig config_;
  std::vector<double> loss_history_;
  std::vector<std::vector<float>> final_weights_;
  std::int64_t pruned_entries_ = 0;
};

/// LS: every epoch's loss runs on the full graph.
class LearnedSouper final : public AlphaLoopSouper {
 public:
  explicit LearnedSouper(LearnedSoupConfig config = {});
  std::string name() const override { return "LS"; }
  ParamStore mix(const SoupContext& sctx) override;
};

}  // namespace gsoup
