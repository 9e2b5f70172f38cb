// The souping half of a workload: dataset + context + PLS partitioning
// (set-up), Phase-1 ingredient training on the farm, then GIS, LS and PLS
// over the same ingredients, with the output checks that make a run
// count.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/pls.hpp"
#include "core/soup.hpp"
#include "graph/generator.hpp"
#include "nn/graph_context.hpp"
#include "nn/model.hpp"
#include "train/ingredient_farm.hpp"

namespace perfbench {

/// Souping settings every workload shares.
constexpr std::int64_t kFarmWorkers = 2;  ///< W, passed explicitly
constexpr std::int64_t kPlsParts = 32;    ///< K
constexpr std::int64_t kPlsBudget = 8;    ///< R
constexpr std::int64_t kPlsEpochs = 60;
constexpr std::int64_t kPlsRepeats = 3;   ///< identical PLS mixes; median

/// Souping settings that differ between workloads; the defaults are the
/// souping workloads'.
struct SoupSpec {
  gsoup::SyntheticSpec data{};
  gsoup::Arch arch = gsoup::Arch::kSage;
  std::int64_t ingredients = 8;        ///< N
  std::int64_t ingredient_epochs = 15;
  std::int64_t gis_granularity = 30;   ///< g
  std::int64_t ls_epochs = 40;
  std::uint64_t seed = 1;              ///< ingredient and soup seeds
};

/// Model shape per architecture (the experiment harness's cell recipe).
gsoup::ModelConfig model_config(gsoup::Arch arch, const gsoup::Dataset& data);

/// Everything set-up builds. Times are of one build, in wall seconds;
/// cpu_s is the process CPU time of the whole build.
struct SoupSetup {
  std::unique_ptr<gsoup::Dataset> data;
  std::shared_ptr<gsoup::GraphContext> ctx;
  std::unique_ptr<gsoup::GnnModel> model;
  std::unique_ptr<gsoup::PartitionLearnedSouper> pls;
  double generate_s = 0.0;   ///< graph: generate_dataset
  double context_s = 0.0;    ///< nn: full-graph GraphContext
  double partition_s = 0.0;  ///< partition: PLS preprocessing partition
  double cpu_s = 0.0;
};

SoupSetup soup_setup(const SoupSpec& spec);

/// Each timed step is measured twice: wall seconds (phase1_s and the
/// SoupReports' own `seconds`) and process CPU seconds (the *_cpu_s
/// fields), the latter around the souper's mix() alone.
struct SoupResult {
  gsoup::FarmResult farm;
  double phase1_s = 0.0;
  double phase1_cpu_s = 0.0;
  gsoup::SoupReport gis, ls, pls;  ///< pls: the first of the repeats
  double gis_cpu_s = 0.0;
  double ls_cpu_s = 0.0;
  std::vector<double> pls_seconds;  ///< every PLS repeat
  std::vector<double> pls_cpu_s;    ///< every PLS repeat
  std::int64_t gis_evaluations = 0;
  double pls_subgraph_fraction = 0.0;
  long gis_minor_faults = 0;
  long ls_minor_faults = 0;
  double ls_sys_s = 0.0;
  std::vector<std::string> failures;  ///< failed output checks
};

/// The souping pipeline, one step per call, in order: phase1(), gis(),
/// ls(), pls(), then check(). Split into steps so the traced run can
/// replay a step's epochs right after it, in the same allocator state.
class SoupRun {
 public:
  SoupRun(const SoupSpec& spec, SoupSetup& setup)
      : spec_(spec), setup_(setup) {}

  void phase1();
  void gis();
  void ls();
  void pls();
  /// The output checks; failures land in result().failures.
  void check();

  const SoupResult& result() const { return r_; }

 private:
  gsoup::SoupContext context() const;
  /// run_souper(souper), with the process CPU time of its mix() alone
  /// added to `cpu_s`.
  gsoup::SoupReport run_timed(gsoup::Souper& souper, double& cpu_s);

  const SoupSpec& spec_;
  SoupSetup& setup_;
  SoupResult r_;
};

/// The LS / PLS souper configuration the workloads use.
gsoup::LearnedSoupConfig ls_config(const SoupSpec& spec);
gsoup::PlsConfig pls_config(const SoupSpec& spec);

}  // namespace perfbench
