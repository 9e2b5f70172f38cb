// Greedy Interpolated Souping (GIS) — Algorithm 2, from Graph Ladling
// (Jaiswal et al.). The informed state-of-the-art baseline the paper
// compares against: starting from the best ingredient, exhaustively search
// `granularity` interpolation ratios between the current soup and each
// next ingredient, keeping the best mix that does not hurt validation
// accuracy. Time complexity O(N · g · F_field), F_field being one
// autograd-free forward over the val nodes' L-hop receptive field
// (SplitEvaluator) rather than over the whole graph — the exhaustive
// evaluation sweep that LS replaces with gradient descent.
#pragma once

#include "core/soup.hpp"

namespace gsoup {

struct GisConfig {
  /// Number of interpolation ratios in linspace(0, 1, granularity).
  std::int64_t granularity = 50;
};

class GisSouper final : public Souper {
 public:
  explicit GisSouper(GisConfig config = {});
  std::string name() const override { return "GIS"; }
  ParamStore mix(const SoupContext& sctx) override;

  /// Forward evaluations performed by the last mix() (tests: == N·g).
  std::int64_t evaluations() const { return evaluations_; }

 private:
  GisConfig config_;
  std::int64_t evaluations_ = 0;
};

}  // namespace gsoup
