#include "soup_phase.hpp"

#include <cmath>
#include <sstream>

#include "core/gis.hpp"
#include "core/learned.hpp"
#include "measure.hpp"
#include "util/timer.hpp"

namespace perfbench {

using namespace gsoup;

ModelConfig model_config(Arch arch, const Dataset& data) {
  ModelConfig cfg;
  cfg.arch = arch;
  cfg.in_dim = data.feature_dim();
  cfg.out_dim = data.num_classes;
  cfg.num_layers = 2;
  if (arch == Arch::kGat) {
    cfg.hidden_dim = 16;  // per head, 4 concatenated heads
    cfg.heads = 4;
    cfg.dropout = 0.4f;
  } else {
    cfg.hidden_dim = 64;
    cfg.dropout = arch == Arch::kSage ? 0.3f : 0.5f;
  }
  return cfg;
}

LearnedSoupConfig ls_config(const SoupSpec& spec) {
  LearnedSoupConfig cfg;
  cfg.epochs = spec.ls_epochs;
  cfg.lr = 0.2;
  cfg.momentum = 0.9;
  cfg.seed = spec.seed * 7919 + 13;
  return cfg;
}

PlsConfig pls_config(const SoupSpec& spec) {
  PlsConfig cfg;
  cfg.base = ls_config(spec);
  cfg.base.epochs = kPlsEpochs;
  cfg.num_parts = kPlsParts;
  cfg.budget = kPlsBudget;
  return cfg;
}

SoupSetup soup_setup(const SoupSpec& spec) {
  SoupSetup s;
  const double cpu0 = process_cpu_s();
  Timer t;
  s.data = std::make_unique<Dataset>(generate_dataset(spec.data));
  s.generate_s = t.seconds();
  t.reset();
  s.ctx = std::make_shared<GraphContext>(s.data->graph, spec.arch);
  s.context_s = t.seconds();
  s.model = std::make_unique<GnnModel>(model_config(spec.arch, *s.data));
  t.reset();
  s.pls = std::make_unique<PartitionLearnedSouper>(*s.data, pls_config(spec));
  s.partition_s = t.seconds();
  s.cpu_s = process_cpu_s() - cpu0;
  return s;
}

namespace {

FarmConfig farm_config(const SoupSpec& spec) {
  FarmConfig farm;
  farm.num_ingredients = spec.ingredients;
  farm.num_workers = kFarmWorkers;
  farm.init_seed = spec.seed * 104729 + 42;
  TrainConfig& tc = farm.train;
  tc.epochs = spec.ingredient_epochs;
  tc.optimizer.kind = OptimizerKind::kAdam;
  tc.optimizer.weight_decay = 5e-5;
  // SAGE's dual self/neighbour path needs the hotter rate the experiment
  // harness calibrated for it.
  tc.schedule.base_lr = spec.arch == Arch::kSage ? 0.05 : 0.01;
  tc.seed = spec.seed * 1000003 + 1234;
  tc.keep_best = true;
  tc.eval_every = 2;
  return farm;
}

template <typename Fn>
void check_that(SoupResult& r, bool ok, Fn&& describe) {
  if (ok) return;
  std::ostringstream os;
  describe(os);
  r.failures.push_back(os.str());
}

/// Forwards to another souper, adding the process CPU time of each mix()
/// to a total.
class CpuTimed final : public Souper {
 public:
  CpuTimed(Souper& inner, double& cpu_s) : inner_(inner), cpu_s_(cpu_s) {}
  std::string name() const override { return inner_.name(); }
  ParamStore mix(const SoupContext& sctx) override {
    const double start = process_cpu_s();
    ParamStore soup = inner_.mix(sctx);
    cpu_s_ += process_cpu_s() - start;
    return soup;
  }

 private:
  Souper& inner_;
  double& cpu_s_;
};

}  // namespace

SoupContext SoupRun::context() const {
  return SoupContext{*setup_.model, *setup_.ctx, *setup_.data,
                     r_.farm.ingredients};
}

SoupReport SoupRun::run_timed(Souper& souper, double& cpu_s) {
  CpuTimed timed(souper, cpu_s);
  return run_souper(timed, context());
}

void SoupRun::phase1() {
  const double cpu0 = process_cpu_s();
  Timer t;
  r_.farm = train_ingredients(*setup_.model, *setup_.ctx, *setup_.data,
                              farm_config(spec_));
  r_.phase1_s = t.seconds();
  r_.phase1_cpu_s = process_cpu_s() - cpu0;
}

void SoupRun::gis() {
  GisSouper gis({spec_.gis_granularity});
  const Usage before = Usage::now();
  r_.gis = run_timed(gis, r_.gis_cpu_s);
  r_.gis_minor_faults = Usage::now().minor_faults - before.minor_faults;
  r_.gis_evaluations = gis.evaluations();
}

void SoupRun::ls() {
  LearnedSouper ls(ls_config(spec_));
  const Usage before = Usage::now();
  r_.ls = run_timed(ls, r_.ls_cpu_s);
  const Usage after = Usage::now();
  r_.ls_minor_faults = after.minor_faults - before.minor_faults;
  r_.ls_sys_s = after.sys_s - before.sys_s;
}

void SoupRun::pls() {
  for (std::int64_t i = 0; i < kPlsRepeats; ++i) {
    double cpu_s = 0.0;
    SoupReport rep = run_timed(*setup_.pls, cpu_s);
    r_.pls_seconds.push_back(rep.seconds);
    r_.pls_cpu_s.push_back(cpu_s);
    if (i == 0) {
      r_.pls = std::move(rep);
      r_.pls_subgraph_fraction = setup_.pls->mean_subgraph_fraction();
    } else {
      check_that(r_, rep.test_acc == r_.pls.test_acc, [&](std::ostream& os) {
        os << "PLS repeat " << i << " test accuracy " << rep.test_acc
           << " differs from the first mix's " << r_.pls.test_acc;
      });
    }
  }
}

void SoupRun::check() {
  // A soup may not be worse than the mean ingredient on the test split
  // by more than the split's sampling error (one binomial standard
  // error): on a graph whose label noise caps accuracy, every ingredient
  // sits at the cap and a soup lands within a test node or two of them.
  const double mean_test = r_.farm.mean_test_acc;
  const auto n_test =
      static_cast<double>(setup_.data->split_size(Split::kTest));
  const double std_error =
      std::sqrt(mean_test * (1.0 - mean_test) / n_test);
  for (const SoupReport* soup : {&r_.ls, &r_.pls}) {
    check_that(r_, soup->test_acc >= mean_test - std_error,
               [&](std::ostream& os) {
                 os << soup->method << " test accuracy " << soup->test_acc
                    << " below the mean ingredient's " << mean_test
                    << " by more than one standard error (" << std_error
                    << ")";
               });
  }
  // GisSouper starts from the best ingredient and sweeps g ratios for
  // each of the other N-1 (tests/test_soup.cpp pins the count).
  const std::int64_t want_evals =
      (spec_.ingredients - 1) * spec_.gis_granularity;
  check_that(r_, r_.gis_evaluations == want_evals, [&](std::ostream& os) {
    os << "GIS ran " << r_.gis_evaluations << " evaluations, expected "
       << want_evals;
  });
  const double ratio =
      static_cast<double>(kPlsBudget) / static_cast<double>(kPlsParts);
  check_that(r_, std::abs(r_.pls_subgraph_fraction - ratio) <= 0.05,
             [&](std::ostream& os) {
               os << "PLS mean subgraph fraction "
                  << r_.pls_subgraph_fraction << " not within 0.05 of R/K = "
                  << ratio;
             });
}

}  // namespace perfbench
