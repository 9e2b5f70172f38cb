// Table III — souping wall time (seconds) for US / GIS / LS / PLS across
// the experiment matrix. Paper shape: US trivially fastest (no forward
// passes); LS and PLS faster than GIS's exhaustive ratio sweep. Here GIS
// evaluates each ratio autograd-free over the val nodes' receptive field
// (O(N·g·F_field)) while LS still runs full-graph forward and backward
// passes, so on graphs whose val field is small (products-like SAGE)
// GIS can beat LS; PLS stays the fastest learned soup.
#include <cstdio>

#include "harness/experiment.hpp"
#include "util/table.hpp"

int main() {
  using namespace gsoup;
  const auto scale = bench::Scale::from_env();
  const auto cells = bench::run_matrix(scale);

  Table table("Table III: Souping time (seconds) [lower is better]");
  table.set_header({"Model", "Dataset", "US", "GIS", "LS (ours)",
                    "PLS (ours)"});
  for (const auto& cell : cells) {
    const auto us = cell.summarize("US");
    const auto gis = cell.summarize("GIS");
    const auto ls = cell.summarize("LS");
    const auto pls = cell.summarize("PLS");
    table.add_row({cell.arch, cell.dataset,
                   Table::fmt_pm(us.seconds_mean, us.seconds_std, 3),
                   Table::fmt_pm(gis.seconds_mean, gis.seconds_std, 3),
                   Table::fmt_pm(ls.seconds_mean, ls.seconds_std, 3),
                   Table::fmt_pm(pls.seconds_mean, pls.seconds_std, 3)});
  }
  table.print();
  std::printf("\nGIS granularity g=%lld, LS epochs=%lld, PLS epochs=%lld "
              "(R/K = %lld/%lld).\n",
              static_cast<long long>(scale.gis_granularity),
              static_cast<long long>(scale.ls_epochs),
              static_cast<long long>(scale.pls_epochs),
              static_cast<long long>(scale.pls_budget),
              static_cast<long long>(scale.pls_parts));
  return 0;
}
