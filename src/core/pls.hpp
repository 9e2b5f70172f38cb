// Partition Learned Souping (PLS) — Algorithm 4, the paper's second
// contribution. Identical to Learned Souping except each epoch's loss is
// computed on a subgraph formed from R randomly selected partitions of the
// graph (of K total, Eq. 5), cut edges between selected partitions
// preserved. Memory scales with the R/K partition ratio (§VI-B) and the
// random partition choice acts as minibatch-style regularisation (§V-A).
//
// The graph is partitioned once in the constructor — a preprocessing step
// per the paper (Fig. 2 step 1) — so partitioning cost stays out of the
// timed souping region, like ingredient training itself.
#pragma once

#include "core/learned.hpp"
#include "core/soup.hpp"
#include "partition/partitioner.hpp"

namespace gsoup {

struct PlsConfig {
  LearnedSoupConfig base;
  std::int64_t num_parts = 32;  ///< K
  std::int64_t budget = 8;      ///< R partitions per epoch
};

/// PLS: LS whose every epoch runs on a freshly drawn union of R of the K
/// partitions.
class PartitionLearnedSouper final : public AlphaLoopSouper {
 public:
  /// Partitions `data.graph` (multilevel, validation-balanced) as
  /// preprocessing.
  PartitionLearnedSouper(const Dataset& data, PlsConfig config);

  std::string name() const override { return "PLS"; }
  ParamStore mix(const SoupContext& sctx) override;

  const Partitioning& partitioning() const { return parts_; }
  /// Mean subgraph size (fraction of nodes) over the last mix()'s epochs.
  double mean_subgraph_fraction() const { return mean_subgraph_fraction_; }

 private:
  PlsConfig config_;
  Partitioning parts_;
  std::int64_t source_nodes_ = 0;  ///< guards against dataset mix-ups
  double mean_subgraph_fraction_ = 0.0;
};

}  // namespace gsoup
