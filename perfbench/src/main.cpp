// gsoup performance benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
//
// Runs one workload end to end: set-up, Phase-1 ingredient training,
// GIS / LS / PLS souping, then the PLS soup served from a .gsnp snapshot
// by a ShardedServer under an open-loop query stream. Every
// output is checked. With --trace 0 the result line carries the
// end-to-end metrics; with --trace 1 profiling and tracing are switched on
// and it carries the per-layer metrics, after checking that the layer
// times account for the end-to-end ones. The seed alone drives the
// dataset, the ingredient and soup seeds and the query stream. DIR holds
// the snapshot file while it is written and read back.
//
// The workloads, metrics and their choice are described in
// perfbench/README.md.
#include <omp.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "layer_probes.hpp"
#include "measure.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve_phase.hpp"
#include "soup_phase.hpp"

namespace perfbench {
namespace {

using namespace gsoup;

struct Workload {
  const char* name;
  SyntheticSpec (*preset)(double);
  double scale;
  int omp_threads;  ///< OMP_NUM_THREADS of the measured process
  SoupSpec soup;
  ServeSpec serve;
  double window_share;  ///< share of --seconds the open-loop window lasts
};

// Why each workload exists, and how it was sized, is recorded in
// README.md. Every workload reports every end-to-end metric, so each runs
// both halves. The souping workloads serve their soup from one
// unreplicated shard's cached full-graph logits (engine execution on a
// two-thread OpenMP team made their latency swing with the host's load);
// the serving workload soups a cut-down ingredient set (N = 4, g = 20,
// 20 LS epochs) that still covers seconds of work at one OpenMP thread.
const ServeSpec kCachedFullServing = {
    .shards = 1, .replicas = 1, .mode = serve::QueryMode::kCachedFull};
const Workload kWorkloads[] = {
    {.name = "soup_products_sage",
     .preset = products_like_spec,
     .scale = 1.0,
     .omp_threads = 2,
     .soup = {.arch = Arch::kSage},
     .serve = kCachedFullServing,
     .window_share = 0.3},
    {.name = "soup_reddit_gat",
     .preset = reddit_like_spec,
     .scale = 2.0,
     .omp_threads = 2,
     .soup = {.arch = Arch::kGat, .ingredient_epochs = 10},
     .serve = kCachedFullServing,
     .window_share = 0.3},
    {.name = "serve_products_replicated",
     .preset = products_like_spec,
     .scale = 1.0,
     .omp_threads = 1,
     .soup = {.arch = Arch::kSage,
              .ingredients = 4,
              .gis_granularity = 20,
              .ls_epochs = 20},
     .serve = {},
     .window_share = 1.0},
};

constexpr int kSetupRepeats = 3;
constexpr double kWarmupS = 0.5;
/// Longest traced open-loop window: bounds the trace rings it must fill.
constexpr double kMaxTracedWindowS = 4.0;
constexpr std::size_t kTraceRingEvents = std::size_t{1} << 17;
/// Tolerances of the traced run's accounting checks. A replayed mix and
/// the timed mix are two CPU-time measurements of the same work taken
/// seconds apart, and the same work's CPU time moved by up to 20% between
/// runs on a 4-vCPU VM; the serving phases and the server's latency
/// histogram time the same queries.
constexpr double kSoupAccountingTolerance = 0.25;
constexpr double kServeAccountingTolerance = 0.10;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string workdir;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --workdir DIR\nworkloads:",
               msg);
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const char* val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, &end, 10);
      have_seed = end != val && *end == '\0';
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val, &end);
      have_seconds = end != val && *end == '\0' && a.seconds > 0.0;
    } else if (key == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      a.trace = val[0] == '1';
    } else if (key == "--workdir") {
      a.workdir = val;
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (a.workload.empty() || !have_seed || !have_seconds ||
      a.workdir.empty()) {
    usage("--workload, --seed, --seconds (> 0) and --workdir are required");
  }
  return a;
}

const Workload& find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return w;
  }
  usage(("unknown workload " + name).c_str());
}

/// OpenMP reads OMP_NUM_THREADS once, when the runtime starts, and
/// threads the program creates later (the farm's and the servers' pools)
/// take their team size from it, not from an omp_set_num_threads() call
/// in main. So the count is pinned in the environment and the process
/// re-executes itself once to pick it up. Idle team threads wait
/// passively (OMP_WAIT_POLICY), so the process CPU time the timings read
/// is work done, not spinning whose length follows the host's load.
constexpr const char* kOmpWaitPolicy = "PASSIVE";

bool env_is(const char* name, const std::string& want) {
  const char* current = std::getenv(name);
  return current != nullptr && want == current;
}

void pin_omp_threads(int want, char** argv) {
  const std::string threads = std::to_string(want);
  if (env_is("OMP_NUM_THREADS", threads) &&
      env_is("OMP_WAIT_POLICY", kOmpWaitPolicy)) {
    return;
  }
  setenv("OMP_NUM_THREADS", threads.c_str(), 1);
  setenv("OMP_WAIT_POLICY", kOmpWaitPolicy, 1);
  execv("/proc/self/exe", argv);
  std::perror("perfbench: re-exec with OMP_NUM_THREADS pinned");
  std::exit(2);
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

struct Checks {
  std::vector<std::string> failures;
  void expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  /// The layer times must reproduce the measured time: |layers -
  /// measured| <= tol * measured.
  void accounts(const char* what, double layers, double measured,
                double tol) {
    const double err = std::abs(layers - measured) / measured;
    std::printf("accounting %-6s layers %.4f vs measured %.4f (%.1f%%, "
                "tolerance %.0f%%)\n",
                what, layers, measured, 100.0 * err, 100.0 * tol);
    expect(err <= tol, std::string(what) + " layer times do not account "
                                           "for the end-to-end time");
  }
};

int run(const Args& args, const Workload& w) {
  SoupSpec soup = w.soup;
  soup.seed = args.seed;
  soup.data = w.preset(w.scale);
  soup.data.seed = soup.data.seed + 7919 * args.seed;

  ServeSpec serve = w.serve;
  serve.seed = args.seed;
  serve.seconds = args.seconds * w.window_share;
  if (args.trace) serve.seconds = std::min(serve.seconds, kMaxTracedWindowS);
  serve.snapshot_path = args.workdir + "/perfbench-" +
                        std::to_string(getpid()) + ".gsnp";

  if (args.trace) {
    obs::trace::set_ring_capacity(kTraceRingEvents);
    obs::set_profiling(true);
    obs::trace::set_enabled(true);
  }

  std::printf("workload %s seed %llu trace %d\n", w.name,
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0);
  std::printf("threads: nproc %u, OMP_NUM_THREADS %s, OMP_WAIT_POLICY %s, "
              "omp_get_max_threads %d, farm workers W=%lld (1 OpenMP thread "
              "each), serving %lld shards x %lld replicas x %lld workers\n",
              std::thread::hardware_concurrency(),
              std::getenv("OMP_NUM_THREADS"), std::getenv("OMP_WAIT_POLICY"),
              omp_get_max_threads(), static_cast<long long>(kFarmWorkers),
              static_cast<long long>(serve.shards),
              static_cast<long long>(serve.replicas),
              static_cast<long long>(kServeWorkers));
  std::fflush(stdout);

  // Peak RSS after each step, printed: shows which step sets
  // rss_peak_mb.
  std::string rss_steps;
  auto note_rss = [&](const char* step) {
    char buf[64];
    std::snprintf(buf, sizeof buf, " %s %.1f", step,
                  static_cast<double>(Usage::now().max_rss_kb) * 1024.0 / 1e6);
    rss_steps += buf;
  };

  Checks checks;
  checks.expect(omp_get_max_threads() == w.omp_threads,
                "OpenMP thread count is not the pinned one");

  // Set-up, souping half: repeated, the median is reported.
  std::vector<double> setup_soup, setup_wall_soup, gen_s, ctx_s, part_s;
  SoupSetup setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    setup = SoupSetup{};
    setup = soup_setup(soup);
    setup_soup.push_back(setup.cpu_s);
    setup_wall_soup.push_back(setup.generate_s + setup.context_s +
                              setup.partition_s);
    gen_s.push_back(setup.generate_s);
    ctx_s.push_back(setup.context_s);
    part_s.push_back(setup.partition_s);
  }
  const Dataset& data = *setup.data;
  std::printf("dataset %s: %lld nodes, %lld edges, %lld classes\n",
              data.name.c_str(), static_cast<long long>(data.num_nodes()),
              static_cast<long long>(data.num_edges()),
              static_cast<long long>(data.num_classes));

  // In the traced run each learned-souping mix is followed at once by a
  // replay of its epochs with per-stage timers, so both see the same
  // allocator state (the heap's trim threshold ratchets up over a run,
  // and the LS mix pays page faults that a later replay would not).
  note_rss("setup");
  SoupRun soups(soup, setup);
  soups.phase1();
  note_rss("phase1");
  soups.gis();
  note_rss("gis");
  soups.ls();
  note_rss("ls");
  EpochBreakdown ls_b, pls_b;
  if (args.trace) {
    ls_b = probe_ls_epochs(soup, setup, soups.result().farm.ingredients,
                           soup.ls_epochs);
  }
  soups.pls();
  note_rss("pls");
  if (args.trace) {
    pls_b = probe_pls_epochs(soup, setup, soups.result().farm.ingredients);
  }
  soups.check();
  const SoupResult& sr = soups.result();
  for (const auto& f : sr.failures) checks.expect(false, f);

  // Set-up, serving half: the PLS soup as a snapshot, written and read
  // back, sharded and served.
  const serve::Snapshot snapshot =
      serve::make_snapshot(setup.model->config(), sr.pls.soup, data, "PLS");
  std::vector<double> setup_serve, setup_wall_serve, load_s, shard_s;
  ServeSetup ss;
  for (int i = 0; i < kSetupRepeats; ++i) {
    ss = ServeSetup{};
    ss = serve_setup(serve, snapshot, data);
    setup_serve.push_back(ss.cpu_s);
    setup_wall_serve.push_back(ss.write_s + ss.load_s + ss.shard_build_s +
                               ss.start_s);
    load_s.push_back(ss.load_s);
    shard_s.push_back(ss.shard_build_s);
  }
  const std::vector<std::int32_t> expected =
      oracle_labels(ss.snapshot, setup.ctx, data.features);
  note_rss("serve-setup");

  // Warm-up: let lazy per-worker state and caches settle before timing.
  {
    ServeSpec warm = serve;
    warm.seconds = kWarmupS;
    const OpenLoop warm_run = drive_open_loop(*ss.server, warm, expected);
    checks.expect(warm_run.failed == 0 && warm_run.wrong == 0 &&
                      warm_run.stale == 0,
                  "warm-up queries failed or were answered wrongly");
  }
  OpenLoop ol;
  OpenLoop traced;
  ServePhases phases;
  RegistryView registry;
  if (!args.trace) {
    ol = drive_open_loop(*ss.server, serve, expected);
  } else {
    // The same window untraced, then traced: the difference is the
    // tracing overhead on the serving path, where tracing records events
    // per query.
    obs::set_profiling(false);
    obs::trace::set_enabled(false);
    ol = drive_open_loop(*ss.server, serve, expected);
    const RegistryView before =
        RegistryView::take(serve.shards, serve.replicas, soup.arch);
    obs::trace::clear();
    obs::set_profiling(true);
    obs::trace::set_enabled(true);
    traced = drive_open_loop(*ss.server, serve, expected);
    obs::trace::set_enabled(false);
    obs::set_profiling(false);
    phases = serve_phases_from_trace();
    registry = RegistryView::take(serve.shards, serve.replicas, soup.arch)
                   .delta_since(before);
  }
  ss.server.reset();
  note_rss("open-loop");

  for (const OpenLoop* o : {&ol, &traced}) {
    if (o->sent == 0) continue;
    const auto want = static_cast<std::int64_t>(
        std::llround(kRateQps * serve.seconds));
    checks.expect(o->sent == want, "not every scheduled query was sent");
    checks.expect(o->failed == 0, "failed or shed queries: " +
                                      std::to_string(o->failed) + " (" +
                                      o->first_error + ")");
    checks.expect(o->stale == 0, "stale answers: " + std::to_string(o->stale));
    checks.expect(o->wrong == 0,
                  "answers differ from the full-logits argmax: " +
                      std::to_string(o->wrong));
    checks.expect(o->rejected == 0, "admission control shed queries");
    checks.expect(o->failovers == 0, "replica failovers during the run");
  }

  // End-to-end metrics. Times are process CPU seconds (see README.md);
  // the wall-clock times are printed beside them.
  const double mb = 1e6;
  const double mean_ingredient_acc = sr.farm.mean_test_acc;
  Report e2e;
  e2e.add("setup_s", median(setup_soup) + median(setup_serve), "s");
  e2e.add("rss_peak_mb",
          static_cast<double>(Usage::now().max_rss_kb) * 1024.0 / mb, "MB");
  e2e.add("phase1_cpu_s", sr.phase1_cpu_s, "s");
  e2e.add("gis_cpu_s", sr.gis_cpu_s, "s");
  e2e.add("ls_cpu_s", sr.ls_cpu_s, "s");
  e2e.add("pls_cpu_s", median(sr.pls_cpu_s), "s");
  e2e.add("ls_peak_mb", static_cast<double>(sr.ls.peak_bytes) / mb, "MB");
  e2e.add("pls_peak_mb", static_cast<double>(sr.pls.peak_bytes) / mb, "MB");
  e2e.add("ls_acc_gain", ratio(sr.ls.test_acc, mean_ingredient_acc), "ratio");
  e2e.add("pls_acc_gain", ratio(sr.pls.test_acc, mean_ingredient_acc),
          "ratio");
  e2e.add("cpu_ms_per_query", median(ol.slice_cpu_ms_per_query), "ms");
  e2e.add("answered_frac",
          ratio(static_cast<double>(ol.answered), static_cast<double>(ol.sent)),
          "fraction");
  for (const auto& e : e2e.entries()) {
    checks.expect(std::isfinite(e.value) && e.value > 0.0,
                  e.name + " is not a positive finite measurement");
  }
  e2e.print_lines("metric");

  std::printf("wall: setup %.4f s (soup %.4f + serve %.4f, medians), "
              "phase1 %.4f s, gis %.4f s, ls %.4f s, pls %.4f s (median of "
              "%zu)\n",
              median(setup_wall_soup) + median(setup_wall_serve),
              median(setup_wall_soup), median(setup_wall_serve), sr.phase1_s,
              sr.gis.seconds, sr.ls.seconds, median(sr.pls_seconds),
              sr.pls_seconds.size());
  std::printf("peak rss (MB) after:%s\n", rss_steps.c_str());
  std::printf("ingredients: mean test %.4f (sd %.4f), mean val %.4f; GIS "
              "test %.4f, LS %.4f, PLS %.4f\n",
              sr.farm.mean_test_acc, sr.farm.stddev_test_acc,
              sr.farm.mean_val_acc, sr.gis.test_acc, sr.ls.test_acc,
              sr.pls.test_acc);
  std::printf("paper ratios (wall): gis_s/ls_s %.3f, gis_s/pls_s %.3f, "
              "1 - pls_peak/ls_peak %.3f\n",
              ratio(sr.gis.seconds, sr.ls.seconds),
              ratio(sr.gis.seconds, median(sr.pls_seconds)),
              1.0 - ratio(static_cast<double>(sr.pls.peak_bytes),
                          static_cast<double>(sr.ls.peak_bytes)));
  std::printf("open loop (%.0f q/s for %.2f s, %s): sent %lld, answered "
              "%lld, failed %lld, stale %lld, wrong %lld; latency p50 %.3f "
              "ms, p99 %.3f ms (%zu samples); generator late p50 %.3f ms, "
              "p99 %.3f ms, max %.3f ms; CPU per query %.4f ms over the "
              "window, %.4f ms median of %zu slices of %.1f s; generator + "
              "collector CPU %.4f ms per query (left out, %.1f%% of the "
              "process's)\n",
              kRateQps, serve.seconds,
              args.trace ? "untraced" : "tracing off",
              static_cast<long long>(ol.sent),
              static_cast<long long>(ol.answered),
              static_cast<long long>(ol.failed),
              static_cast<long long>(ol.stale),
              static_cast<long long>(ol.wrong), median(ol.latency_ms),
              quantile(ol.latency_ms, 0.99), ol.latency_ms.size(),
              median(ol.late_ms), quantile(ol.late_ms, 0.99),
              quantile(ol.late_ms, 1.0),
              1e3 * ratio(ol.cpu_s, static_cast<double>(ol.answered)),
              median(ol.slice_cpu_ms_per_query),
              ol.slice_cpu_ms_per_query.size(), kCpuSliceS,
              1e3 * ratio(ol.harness_cpu_s, static_cast<double>(ol.answered)),
              100.0 * ratio(ol.harness_cpu_s, ol.harness_cpu_s + ol.cpu_s));

  Report layers;
  if (args.trace) {
    const KernelTimes k =
        probe_kernels(setup, sr.farm.ingredients.front().params, ss.snapshot,
                      args.seed);

    checks.accounts("LS", ls_b.per_epoch_ms() * 1e-3 *
                              static_cast<double>(ls_b.epochs),
                    sr.ls_cpu_s, kSoupAccountingTolerance);
    checks.accounts("PLS", pls_b.per_epoch_ms() * 1e-3 *
                               static_cast<double>(pls_b.epochs),
                    median(sr.pls_cpu_s), kSoupAccountingTolerance);
    // A query's time from when it was due: generator lateness, the
    // server's batch_form + queue_wait + exec phases (which its latency
    // histogram also times, enqueue to answer), then the router's and the
    // benchmark's polling, which no program trace phase covers.
    const double traced_mean = mean(traced.latency_ms);
    const double late_mean = mean(traced.late_ms);
    const double server_mean = registry.latency_ms.mean();
    const double router_poll_ms = traced_mean - late_mean - server_mean;
    checks.accounts("serve", phases.total_ms(), server_mean,
                    kServeAccountingTolerance);
    checks.expect(phases.complete,
                  "serving trace incomplete (dropped or unpaired events)");

    double sum_single = 0.0;
    for (const auto& ing : sr.farm.ingredients) sum_single += ing.train_seconds;
    const double answered = static_cast<double>(traced.answered);
    auto stage_ms_per_query = [&](exec::Stage s) {
      return ratio(registry.stage_ms[static_cast<std::size_t>(s)].sum(),
                   answered);
    };
    const double untraced_cpu = ratio(ol.cpu_s, static_cast<double>(ol.answered));
    const double traced_cpu = ratio(traced.cpu_s, answered);

    layers.add("graph.generate_s", median(gen_s), "s");
    layers.add("partition.partition_s", median(part_s), "s");
    layers.add("partition.shard_build_s", median(shard_s), "s");
    layers.add("partition.union_ms", pls_b.union_ms, "ms");
    layers.add("nn.context_ms", pls_b.context_ms, "ms");
    layers.add("nn.full_context_s", median(ctx_s), "s");
    layers.add("train.ingredient_s",
               sum_single / static_cast<double>(sr.farm.ingredients.size()),
               "s");
    layers.add("train.farm_efficiency",
               ratio(sum_single,
                     static_cast<double>(kFarmWorkers) * sr.phase1_s),
               "fraction");
    layers.add("ag.full_fwd_ms", ls_b.fwd_ms, "ms");
    layers.add("ag.full_bwd_ms", ls_b.bwd_ms, "ms");
    layers.add("ag.eval_fwd_ms", k.eval_fwd_ms, "ms");
    layers.add("ag.sub_fwd_ms", pls_b.fwd_ms, "ms");
    layers.add("ag.sub_bwd_ms", pls_b.bwd_ms, "ms");
    layers.add("ag.spmm_ms", k.spmm_ms, "ms");
    layers.add("ag.attention_fwd_ms", k.attention_fwd_ms, "ms");
    layers.add("ag.attention_bwd_ms", k.attention_bwd_ms, "ms");
    layers.add("tensor.gemm_ms", k.gemm_ms, "ms");
    layers.add("tensor.ls_minor_faults",
               static_cast<double>(sr.ls_minor_faults), "count");
    layers.add("tensor.ls_sys_s", sr.ls_sys_s, "s");
    layers.add("tensor.gis_minor_faults",
               static_cast<double>(sr.gis_minor_faults), "count");
    layers.add("core.alpha_mix_ms", ls_b.mix_ms, "ms");
    layers.add("core.pls_alpha_mix_ms", pls_b.mix_ms, "ms");
    layers.add("core.gis_evals", static_cast<double>(sr.gis_evaluations),
               "count");
    layers.add("core.pls_subgraph_frac", sr.pls_subgraph_fraction,
               "fraction");
    layers.add("io.snapshot_load_s", median(load_s), "s");
    layers.add("serve.batch_form_ms", phases.pending_ms, "ms");
    layers.add("serve.queue_wait_ms", phases.queue_wait_ms, "ms");
    layers.add("serve.exec_ms", phases.exec_ms, "ms");
    layers.add("serve.exec_p50_ms", phases.exec_p50_ms, "ms");
    layers.add("serve.router_poll_ms", router_poll_ms, "ms");
    layers.add("serve.batch_size_mean", registry.batch_size.mean(), "count");
    layers.add("serve.engine_query_ms", k.engine_query_ms, "ms");
    layers.add("serve.failovers", static_cast<double>(traced.failovers),
               "count");
    layers.add("serve.hedges", static_cast<double>(traced.hedges), "count");
    layers.add("serve.probes", static_cast<double>(traced.probes), "count");
    layers.add("serve.p50_ms", median(traced.latency_ms), "ms");
    layers.add("serve.p99_ms", quantile(traced.latency_ms, 0.99), "ms");
    layers.add("serve.loadgen_late_p99_ms", quantile(traced.late_ms, 0.99),
               "ms");
    layers.add("exec.gather_ms", stage_ms_per_query(exec::Stage::kGather),
               "ms");
    layers.add("exec.spmm_ms", stage_ms_per_query(exec::Stage::kSpmm), "ms");
    layers.add("exec.gemm_ms", stage_ms_per_query(exec::Stage::kGemm), "ms");
    layers.add("exec.attention_ms",
               stage_ms_per_query(exec::Stage::kAttention), "ms");
    layers.add("exec.epilogue_ms", stage_ms_per_query(exec::Stage::kEpilogue),
               "ms");
    layers.add("obs.trace_overhead_pct",
               100.0 * ratio(traced_cpu - untraced_cpu, untraced_cpu), "%");
    layers.print_lines("layer");

    std::printf("kernels: spmm %.3g GB/s (%.3g bytes/call), gemm %.3g "
                "GFLOP/s (%.3g flops/call)\n",
                ratio(k.spmm_bytes, k.spmm_ms * 1e6), k.spmm_bytes,
                ratio(k.gemm_flops, k.gemm_ms * 1e6), k.gemm_flops);
    std::printf("LS replay: %ld minor faults, %.3f s system time\n",
                ls_b.minor_faults, ls_b.sys_s);
    std::printf("LS epoch: mix %.3f + fwd %.3f + bwd %.3f ms; PLS epoch: "
                "union %.3f + context %.3f + mix %.3f + fwd %.3f + bwd %.3f "
                "ms\n",
                ls_b.mix_ms, ls_b.fwd_ms, ls_b.bwd_ms, pls_b.union_ms,
                pls_b.context_ms, pls_b.mix_ms, pls_b.fwd_ms, pls_b.bwd_ms);
    std::printf("traced window: %lld queries, mean latency %.3f ms = "
                "generator late %.3f + batch_form %.3f + queue_wait %.3f + "
                "exec %.3f ms (server histogram mean %.3f ms) + router and "
                "poll %.3f ms; cpu/query traced %.4f vs untraced %.4f ms; "
                "p50 traced %.3f vs untraced %.3f ms\n",
                static_cast<long long>(phases.queries), traced_mean,
                late_mean, phases.pending_ms, phases.queue_wait_ms,
                phases.exec_ms, server_mean, router_poll_ms,
                1e3 * traced_cpu, 1e3 * untraced_cpu,
                median(traced.latency_ms), median(ol.latency_ms));
  }

  for (const auto& f : checks.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  const bool correct = checks.failures.empty();
  const std::int64_t attempted = soup.ingredients + 2 + kPlsRepeats +
                                 ol.sent + traced.sent;
  const std::int64_t failed =
      static_cast<std::int64_t>(checks.failures.size()) + ol.failed +
      ol.stale + ol.wrong + traced.failed + traced.stale + traced.wrong;
  const Report& result = args.trace ? layers : e2e;
  std::printf("%s\n", result.result_json(correct, attempted, failed).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse_args(argc, argv);
  const Workload& w = find_workload(args.workload);
  pin_omp_threads(w.omp_threads, argv);
  try {
    return run(args, w);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
