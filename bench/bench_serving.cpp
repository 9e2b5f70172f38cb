// Serving-path benchmarks with a machine-readable artifact.
//
// Measures the inference subsystem the way it is deployed: full-graph
// forward throughput, single-node query latency, batched (64-way) query
// throughput and the batching speedup, and the end-to-end batch server
// under concurrent clients. Writes BENCH_serving.json (schema
// gsoup-bench-serving/v1, see README.md); the committed artifact is the
// serving baseline later scaling PRs are compared against with
// tools/bench_compare.
//
// Weights are Glorot-random: accuracy is irrelevant to throughput, and
// skipping ingredient training keeps the bench deterministic and fast.
//
// Usage: bench_serving [--smoke] [--out PATH]
//   --smoke   tiny graph + few requests (CI artifact)
//   --out     artifact path (default BENCH_serving.json in the CWD)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "ag/value.hpp"
#include "graph/generator.hpp"
#include "nn/model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/engine.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"
#include "serve/shard_server.hpp"
#include "serve/snapshot.hpp"
#include "tensor/half.hpp"
#include "tensor/ops.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

using namespace gsoup;

struct BenchConfig {
  bool smoke = false;
  std::string out = "BENCH_serving.json";
  std::int64_t single_probes = 512;
  std::int64_t batch_rounds = 64;
  std::int64_t server_requests = 4096;
  double min_seconds = 0.2;
};

struct Record {
  std::string bench;    ///< "full_forward" | "engine_query" | "server"
  std::string arch;
  std::string shape;    ///< "n=...,nnz=..."
  /// Request batch size for server-style records. The full_forward_* fp32/
  /// fp16 pair records repurpose it as the hidden dim: unlike the node
  /// count it is identical in smoke and full mode, so the record key
  /// (bench|arch|batch|workers) matches between a CI smoke artifact and
  /// the committed full-mode baseline. The node count stays in `shape`.
  std::int64_t batch = 0;
  std::int64_t workers = 0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double batching_speedup = 0.0;
  /// server_sharded_K only: qps relative to the same-run single-engine
  /// "server" record. Run-relative like the kernel artifact's
  /// speedup_vs_naive, so the CI gate survives hardware differences
  /// between the baseline box and hosted runners.
  double vs_single = 0.0;
  /// *_fp16 records only: qps relative to the same-run fp32 twin of the
  /// same bench (run-relative, so the CI gate survives hardware
  /// differences between the baseline box and hosted runners).
  double speedup_vs_fp32 = 0.0;
  /// *_fp16 full-forward records only: accuracy parity vs the same-run
  /// fp32 logits. parity_max_delta is max |logit delta| over every
  /// (node, class); parity_argmax is the argmax-match fraction over the
  /// decisive nodes (fp32 top-2 margin > 2x the gated delta tolerance —
  /// a flip inside the tolerance band is numerics, not a bug). Both are
  /// asserted in-binary (see check_parity) and parity_argmax is gated in
  /// CI, so a broken half kernel fails the bench run itself.
  double parity_argmax = 0.0;
  double parity_max_delta = 0.0;
};

/// Accuracy parity of a half-precision logit matrix against its fp32 twin.
struct Parity {
  double max_delta = 0.0;   ///< max |ref - half| over all (node, class)
  double tolerance = 0.0;   ///< gated bound: kTolScale * max(1, linf(ref))
  double argmax_frac = 1.0; ///< argmax match over decisive nodes
  std::int64_t decisive = 0;
  std::int64_t flipped = 0;
};

/// The gated delta tolerance, relative to the fp32 logit magnitude: fp16
/// storage quantisation contributes ~2^-11 relative error per tensor and
/// two layers of storage round-trips stack to low-1e-3 relative — 2e-2 is
/// an order of magnitude of headroom while still catching any kernel that
/// widens, packs or accumulates wrongly (those miss by 1e1, not 1e-3).
constexpr double kParityTolScale = 2e-2;

Parity logit_parity(const Tensor& ref, const Tensor& half) {
  const std::int64_t n = ref.shape()[0];
  const std::int64_t d = ref.shape()[1];
  Parity p;
  double linf = 0.0;
  for (std::int64_t i = 0; i < n * d; ++i) {
    linf = std::max(linf, static_cast<double>(std::fabs(ref.data()[i])));
    p.max_delta = std::max(
        p.max_delta,
        static_cast<double>(std::fabs(ref.data()[i] - half.data()[i])));
  }
  p.tolerance = kParityTolScale * std::max(1.0, linf);
  std::int64_t matched = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = ref.data() + i * d;
    const std::int64_t best = ops::argmax_row(row, d);
    float second = -std::numeric_limits<float>::infinity();
    for (std::int64_t j = 0; j < d; ++j) {
      if (j != best) second = std::max(second, row[j]);
    }
    if (static_cast<double>(row[best] - second) <= 2.0 * p.tolerance) continue;
    ++p.decisive;
    if (ops::argmax_row(half.data() + i * d, d) == best) ++matched;
  }
  p.flipped = p.decisive - matched;
  p.argmax_frac =
      p.decisive > 0 ? static_cast<double>(matched) /
                           static_cast<double>(p.decisive)
                     : 1.0;
  return p;
}

/// In-binary parity gate: every decisive argmax must match and the max
/// logit delta must sit inside the gated tolerance. Parity is fully
/// deterministic (fixed seeds, deterministic kernels), so a failure here
/// is a numerics bug, never noise — it fails the bench run outright.
bool check_parity(const char* bench, const char* arch, const Parity& p) {
  if (p.flipped == 0 && p.max_delta <= p.tolerance) return true;
  std::fprintf(stderr,
               "bench_serving: %s %s parity FAILED: max delta %.3e "
               "(tolerance %.3e), %lld of %lld decisive argmax flipped\n",
               arch, bench, p.max_delta, p.tolerance,
               static_cast<long long>(p.flipped),
               static_cast<long long>(p.decisive));
  return false;
}


ModelConfig bench_model_config(Arch arch, const Dataset& data) {
  ModelConfig cfg;
  cfg.arch = arch;
  cfg.in_dim = data.feature_dim();
  cfg.out_dim = data.num_classes;
  cfg.num_layers = 2;
  cfg.hidden_dim = arch == Arch::kGat ? 16 : 64;
  cfg.heads = 4;
  return cfg;
}

void bench_arch(const BenchConfig& cfg, Arch arch, const Dataset& data,
                std::vector<Record>& records) {
  const ModelConfig mcfg = bench_model_config(arch, data);
  const GnnModel model(mcfg);
  Rng rng(41);
  const ParamStore params = model.init_params(rng);
  auto ctx = std::make_shared<const GraphContext>(data.graph, arch);
  const std::string shape = "n=" + std::to_string(data.num_nodes()) +
                            ",nnz=" + std::to_string(data.num_edges());

  serve::InferenceEngine engine(mcfg, params, ctx, data.features);
  Tensor out1 = Tensor::empty({1, mcfg.out_dim});
  Tensor out64 = Tensor::empty({64, mcfg.out_dim});

  // ---- Full-graph forward throughput (nodes classified per second). ----
  {
    engine.full_logits();  // warm-up
    Timer t;
    std::int64_t iters = 0;
    while (iters < 3 || t.seconds() < cfg.min_seconds) {
      engine.invalidate();
      engine.full_logits();
      ++iters;
    }
    const double per_pass = t.seconds() / static_cast<double>(iters);
    Record r{"full_forward", arch_name(arch), shape};
    r.batch = data.num_nodes();
    r.qps = static_cast<double>(data.num_nodes()) / per_pass;
    r.p50_ms = r.p99_ms = per_pass * 1e3;
    records.push_back(r);
    std::printf("%-6s full_forward    %9.0f nodes/s (%.2f ms/pass)\n",
                arch_name(arch), r.qps, per_pass * 1e3);
  }

  // ---- Tape forward under NoGradGuard: what the engine's executor mode
  // replaces. Committed alongside full_forward so the executor-vs-tape
  // delta is inspectable in same-machine baseline runs (the kernel-level
  // twin records live in BENCH_kernels.json and are CI-gated there).
  {
    const ag::Value fvalue = ag::constant(data.features);
    const ParamMap leaves = as_leaves(params, /*requires_grad=*/false);
    const auto tape_pass = [&] {
      ag::NoGradGuard guard;
      return model.forward(*ctx, fvalue, leaves);
    };
    tape_pass();  // warm-up
    Timer t;
    std::int64_t iters = 0;
    while (iters < 3 || t.seconds() < cfg.min_seconds) {
      tape_pass();
      ++iters;
    }
    const double per_pass = t.seconds() / static_cast<double>(iters);
    Record r{"full_forward_tape", arch_name(arch), shape};
    r.batch = data.num_nodes();
    r.qps = static_cast<double>(data.num_nodes()) / per_pass;
    r.p50_ms = r.p99_ms = per_pass * 1e3;
    records.push_back(r);
    std::printf("%-6s full_fwd_tape   %9.0f nodes/s (%.2f ms/pass)\n",
                arch_name(arch), r.qps, per_pass * 1e3);
  }

  // ---- Single-node queries (exact subgraph path). ----------------------
  double single_qps = 0.0;
  {
    Rng node_rng(7);
    std::int64_t id =
        static_cast<std::int64_t>(node_rng.uniform_int(data.num_nodes()));
    engine.query(std::span<const std::int64_t>(&id, 1), out1);  // warm-up
    std::vector<double> lat_ms;
    lat_ms.reserve(static_cast<std::size_t>(cfg.single_probes));
    Timer wall;
    for (std::int64_t i = 0; i < cfg.single_probes; ++i) {
      id = static_cast<std::int64_t>(node_rng.uniform_int(data.num_nodes()));
      Timer t;
      engine.query(std::span<const std::int64_t>(&id, 1), out1);
      lat_ms.push_back(t.milliseconds());
    }
    single_qps = static_cast<double>(cfg.single_probes) / wall.seconds();
    std::sort(lat_ms.begin(), lat_ms.end());
    Record r{"engine_query", arch_name(arch), shape};
    r.batch = 1;
    r.qps = single_qps;
    r.p50_ms = percentile_sorted(lat_ms, 0.50);
    r.p99_ms = percentile_sorted(lat_ms, 0.99);
    records.push_back(r);
    std::printf("%-6s query batch=1   %9.0f QPS (p50 %.3f ms, p99 %.3f ms)\n",
                arch_name(arch), r.qps, r.p50_ms, r.p99_ms);
  }

  // ---- 64-way batched queries: the amortisation the server exploits. ---
  {
    Rng node_rng(11);
    std::vector<std::int64_t> nodes(64);
    for (auto& n : nodes) {
      n = static_cast<std::int64_t>(node_rng.uniform_int(data.num_nodes()));
    }
    engine.query(nodes, out64);  // warm-up
    std::vector<double> lat_ms;
    Timer wall;
    std::int64_t rounds = 0;
    while (rounds < cfg.batch_rounds || wall.seconds() < cfg.min_seconds) {
      for (auto& n : nodes) {
        n = static_cast<std::int64_t>(
            node_rng.uniform_int(data.num_nodes()));
      }
      Timer t;
      engine.query(nodes, out64);
      lat_ms.push_back(t.milliseconds());
      ++rounds;
    }
    const double qps =
        static_cast<double>(64 * rounds) / wall.seconds();
    std::sort(lat_ms.begin(), lat_ms.end());
    Record r{"engine_query", arch_name(arch), shape};
    r.batch = 64;
    r.qps = qps;
    r.p50_ms = percentile_sorted(lat_ms, 0.50);
    r.p99_ms = percentile_sorted(lat_ms, 0.99);
    r.batching_speedup = single_qps > 0.0 ? qps / single_qps : 0.0;
    records.push_back(r);
    std::printf(
        "%-6s query batch=64  %9.0f QPS (p50 %.3f ms, %.2fx vs batch=1)\n",
        arch_name(arch), r.qps, r.p50_ms, r.batching_speedup);
  }

  // ---- End-to-end batch server under concurrent clients. ---------------
  {
    const serve::Snapshot snap =
        serve::make_snapshot(mcfg, params, data, "bench-random");
    serve::ServerConfig scfg;
    scfg.workers = 2;
    scfg.max_batch = 64;
    scfg.max_delay_ms = 2.0;
    serve::BatchServer server(snap, ctx, data.features, scfg);

    constexpr std::int64_t kClients = 4;
    const double seconds = serve::drive_clients(
        server, cfg.server_requests, kClients, data.num_nodes());
    const serve::ServerStats stats = server.stats();
    Record r{"server", arch_name(arch), shape};
    r.batch = scfg.max_batch;
    r.workers = static_cast<std::int64_t>(scfg.workers);
    r.qps = static_cast<double>(stats.queries) / seconds;
    r.p50_ms = stats.p50_latency_ms;
    r.p99_ms = stats.p99_latency_ms;
    records.push_back(r);
    std::printf(
        "%-6s server w=2 b=64 %9.0f QPS (p50 %.3f ms, p99 %.3f ms, mean "
        "batch %.1f)\n",
        arch_name(arch), r.qps, r.p50_ms, r.p99_ms, stats.mean_batch);
  }
}

// ---- Reduced-precision serving. -------------------------------------------
//
// fp16 twins of the full-graph forward (every arch at its default width,
// plus gcn/sage at hidden=128 where the GEMM panels dominate) and of the
// end-to-end gcn batch server. The full-forward pairs run on their own
// dataset — the arxiv-like family at 20x the shared serving graph
// (n=40000, ~15 MB feature slab, still ~4x smaller than real arxiv) —
// because halved storage pays exactly when the per-edge row gathers miss
// cache: on the 2000-node shared graph every slab is L2-resident and the
// pass is GEMM-compute-bound, which understates the storage-precision
// gain the records exist to track. The
// fp32 twin of every pair is measured in the same run on the same data,
// so speedup_vs_fp32 stays a fair like-for-like ratio at either scale.
// Each *_fp16 record carries
//  - speedup_vs_fp32: qps relative to the same-run fp32 twin
//    (run-relative, so the CI gate survives hardware differences);
//  - parity_argmax / parity_max_delta: the accuracy-parity harness vs the
//    same-run fp32 logits (see logit_parity). Parity is also asserted
//    in-binary, so a half kernel that goes numerically wrong fails the
//    bench run, not just the offline gate.
// These records key their `batch` column on the hidden dim rather than
// the node count: smoke and full runs then produce identical record keys,
// which is what lets the CI smoke artifact gate speedup_vs_fp32 and
// parity_argmax against the committed full-mode baseline (the node count
// still lives in the shape string).
// Storage is fp16 end to end (features, weight panels, inter-layer
// activations); accumulation stays fp32, which is why the parity band is
// 1e-3-scale and not 1e-1. bf16 takes the identical code path (only the
// codec differs) and is covered by tests/test_half.cpp rather than a
// third bench column.
bool bench_half(const BenchConfig& cfg, const Dataset& data,
                std::vector<Record>& records) {
  const auto lookup_qps = [&](const char* bench, const char* arch) {
    for (const auto& r : records) {
      if (r.bench == bench && r.arch == arch) return r.qps;
    }
    return 0.0;
  };
  // A full pass on the 40000-node graph runs 50-300 ms, so the global
  // 0.2 s floor would time only 2-3 iterations — too few for the
  // speedup_vs_fp32 ratio that gets committed as a baseline and gated.
  // Hold each side for ~1 s instead, and report the MINIMUM pass time
  // rather than the mean: these passes are long enough that scheduler /
  // co-tenant interference lands inside individual iterations, and the
  // min is the standard interference-robust estimator. Both sides of
  // every ratio use the same statistic, so the ratio stays fair.
  const double min_seconds = cfg.smoke ? cfg.min_seconds : 1.0;
  const auto time_full_pass = [&](serve::InferenceEngine& engine) {
    engine.full_logits();  // warm-up
    Timer total;
    double best = std::numeric_limits<double>::infinity();
    std::int64_t iters = 0;
    while (iters < 3 || total.seconds() < min_seconds) {
      engine.invalidate();
      Timer t;
      engine.full_logits();
      best = std::min(best, t.seconds());
      ++iters;
    }
    return best;
  };
  bool parity_ok = true;

  const Dataset hdata =
      generate_dataset(arxiv_like_spec(cfg.smoke ? 0.1 : 10.0));
  const std::string shape = "n=" + std::to_string(hdata.num_nodes()) +
                            ",nnz=" + std::to_string(hdata.num_edges());

  struct HalfCase {
    Arch arch;
    std::int64_t hidden;      ///< 0 = the arch's bench default
    const char* fp32_bench;   ///< same-run fp32 twin record
    const char* fp16_bench;
  };
  const HalfCase cases[] = {
      {Arch::kGcn, 0, "full_forward_fp32", "full_forward_fp16"},
      {Arch::kSage, 0, "full_forward_fp32", "full_forward_fp16"},
      {Arch::kGat, 0, "full_forward_fp32", "full_forward_fp16"},
      {Arch::kGcn, 128, "full_forward_d128", "full_forward_d128_fp16"},
      {Arch::kSage, 128, "full_forward_d128", "full_forward_d128_fp16"},
  };
  for (const HalfCase& c : cases) {
    ModelConfig mcfg = bench_model_config(c.arch, hdata);
    if (c.hidden > 0) mcfg.hidden_dim = c.hidden;
    const GnnModel model(mcfg);
    Rng rng(41);
    const ParamStore params = model.init_params(rng);
    auto ctx = std::make_shared<const GraphContext>(hdata.graph, c.arch);
    const std::int64_t n = hdata.num_nodes();

    serve::InferenceEngine engine32(mcfg, params, ctx, hdata.features);
    const double fp32_pass = time_full_pass(engine32);
    {
      Record r{c.fp32_bench, arch_name(c.arch), shape};
      r.batch = mcfg.hidden_dim;
      r.qps = static_cast<double>(n) / fp32_pass;
      r.p50_ms = r.p99_ms = fp32_pass * 1e3;
      records.push_back(r);
      std::printf("%-6s fwd d=%-3lld fp32 %9.0f nodes/s (%.2f ms/pass)\n",
                  arch_name(c.arch), static_cast<long long>(mcfg.hidden_dim),
                  r.qps, fp32_pass * 1e3);
    }
    const double fp32_qps = static_cast<double>(n) / fp32_pass;

    serve::InferenceEngine engine16(mcfg, params, ctx, hdata.features,
                                    serve::QueryMode::kSubgraph,
                                    serve::FeatureSpace::kOriginal,
                                    Precision::kFp16);
    const double per_pass = time_full_pass(engine16);
    const Parity parity =
        logit_parity(engine32.full_logits(), engine16.full_logits());
    parity_ok &= check_parity(c.fp16_bench, arch_name(c.arch), parity);

    Record r{c.fp16_bench, arch_name(c.arch), shape};
    r.batch = mcfg.hidden_dim;
    r.qps = static_cast<double>(n) / per_pass;
    r.p50_ms = r.p99_ms = per_pass * 1e3;
    r.speedup_vs_fp32 = fp32_qps > 0.0 ? r.qps / fp32_qps : 0.0;
    r.parity_argmax = parity.argmax_frac;
    r.parity_max_delta = parity.max_delta;
    records.push_back(r);
    std::printf(
        "%-6s fwd d=%-3lld fp16 %9.0f nodes/s (%.2fx of fp32, max delta "
        "%.1e, argmax %lld/%lld)\n",
        arch_name(c.arch), static_cast<long long>(mcfg.hidden_dim), r.qps,
        r.speedup_vs_fp32, parity.max_delta,
        static_cast<long long>(parity.decisive - parity.flipped),
        static_cast<long long>(parity.decisive));
  }

  // End-to-end fp16 batch server (gcn): same harness, knobs, and shared
  // dataset as the bench_arch "server" record, ServerConfig::precision
  // flipped — so its speedup_vs_fp32 is the dispatch/batching-diluted
  // number, complementing the kernel-dominated full-forward pairs above.
  {
    const std::string srv_shape = "n=" + std::to_string(data.num_nodes()) +
                                  ",nnz=" + std::to_string(data.num_edges());
    const ModelConfig mcfg = bench_model_config(Arch::kGcn, data);
    const GnnModel model(mcfg);
    Rng rng(41);
    const ParamStore params = model.init_params(rng);
    auto ctx = std::make_shared<const GraphContext>(data.graph, Arch::kGcn);
    const serve::Snapshot snap =
        serve::make_snapshot(mcfg, params, data, "bench-random");
    serve::ServerConfig scfg;
    scfg.workers = 2;
    scfg.max_batch = 64;
    scfg.max_delay_ms = 2.0;
    scfg.precision = Precision::kFp16;
    serve::BatchServer server(snap, ctx, data.features, scfg);
    constexpr std::int64_t kClients = 4;
    const double seconds = serve::drive_clients(
        server, cfg.server_requests, kClients, data.num_nodes());
    const serve::ServerStats stats = server.stats();
    Record r{"server_fp16", "gcn", srv_shape};
    r.batch = scfg.max_batch;
    r.workers = static_cast<std::int64_t>(scfg.workers);
    r.qps = static_cast<double>(stats.queries) / seconds;
    r.p50_ms = stats.p50_latency_ms;
    r.p99_ms = stats.p99_latency_ms;
    const double fp32_qps = lookup_qps("server", arch_name(Arch::kGcn));
    r.speedup_vs_fp32 = fp32_qps > 0.0 ? r.qps / fp32_qps : 0.0;
    records.push_back(r);
    std::printf("gcn    server fp16     %9.0f QPS (p50 %.3f ms, %.2fx of "
                "fp32 server)\n",
                r.qps, r.p50_ms, r.speedup_vs_fp32);
  }
  return parity_ok;
}

// ---- Sharded server throughput. -------------------------------------------
//
// The single-process stand-in for the scale-out deployment: the graph is
// partitioned (multilevel, halo = num_layers), each shard gets its own
// engine over a shard-local CSR, and the router splits client batches by
// owner shard. Same client harness and batch knobs as the "server" bench,
// so server vs server_sharded_K is the sharding overhead (routing, halo
// replication in the working set, per-shard batch fragmentation) at a
// glance. Answers are bit-identical to the single engine — tests/test_shard
// proves that — so this record is pure throughput.
void bench_sharded(const BenchConfig& cfg, const Dataset& data,
                   std::vector<Record>& records) {
  const ModelConfig mcfg = bench_model_config(Arch::kGcn, data);
  const GnnModel model(mcfg);
  Rng rng(53);
  const ParamStore params = model.init_params(rng);
  const serve::Snapshot snap =
      serve::make_snapshot(mcfg, params, data, "bench-sharded");
  const std::string shape = "n=" + std::to_string(data.num_nodes()) +
                            ",nnz=" + std::to_string(data.num_edges());
  double single_qps = 0.0;
  for (const auto& rec : records) {
    if (rec.bench == "server" && rec.arch == arch_name(Arch::kGcn)) {
      single_qps = rec.qps;
    }
  }

  for (const std::int64_t num_shards : {2, 4}) {
    serve::ShardServerOptions sopt;
    sopt.num_shards = num_shards;
    sopt.partitioner = "multilevel";
    sopt.server.workers = 2;
    sopt.server.max_batch = 64;
    sopt.server.max_delay_ms = 2.0;
    const ShardSet shards = serve::make_serving_shards(data.graph, mcfg, sopt);
    serve::ShardedServer server(snap, shards, data.features, sopt);

    constexpr std::int64_t kClients = 4;
    const double seconds = serve::drive_clients(
        server, cfg.server_requests, kClients, data.num_nodes());
    const serve::ShardedStats stats = server.stats();
    Record r{"server_sharded_" + std::to_string(num_shards), "gcn", shape};
    r.batch = sopt.server.max_batch;
    r.workers = static_cast<std::int64_t>(sopt.server.workers) * num_shards;
    r.qps = static_cast<double>(stats.total.queries) / seconds;
    r.p50_ms = stats.total.p50_latency_ms;
    r.p99_ms = stats.total.p99_latency_ms;
    r.vs_single = single_qps > 0.0 ? r.qps / single_qps : 0.0;
    records.push_back(r);
    const ShardStats sstats = shard_stats(shards);
    std::printf(
        "gcn    sharded k=%lld    %9.0f QPS (p50 %.3f ms, %.2fx of single, "
        "repl %.2fx)\n",
        static_cast<long long>(num_shards), r.qps, r.p50_ms, r.vs_single,
        sstats.replication_factor);
  }
}

// ---- Replicated serving. --------------------------------------------------
//
// Two records for the replication layer, both on 2 shards x R=2:
//  - server_replicated_r2: healthy replicated serving. vs_single against
//    the same-run single-engine record shows what doubling the engine
//    count per shard buys (more workers on the same shared shard state,
//    minus the router's completion-handler overhead).
//  - server_failover_goodput: the same server with one replica of shard 0
//    killed (p=1 exec failpoint) for the WHOLE run. Every query that
//    lands on the dead replica fails over to its sibling; the client sees
//    zero failures (drive_clients throws otherwise, so a regression that
//    loses queries fails the bench, not just the gate). qps is goodput
//    with half of one shard's capacity gone plus the failover detour —
//    the number bench_compare holds steady-state serving degradation to.
void bench_replicated(const BenchConfig& cfg, const Dataset& data,
                      std::vector<Record>& records) {
  const ModelConfig mcfg = bench_model_config(Arch::kGcn, data);
  const GnnModel model(mcfg);
  Rng rng(59);
  const ParamStore params = model.init_params(rng);
  const serve::Snapshot snap =
      serve::make_snapshot(mcfg, params, data, "bench-replicated");
  const std::string shape = "n=" + std::to_string(data.num_nodes()) +
                            ",nnz=" + std::to_string(data.num_edges());
  double single_qps = 0.0;
  for (const auto& rec : records) {
    if (rec.bench == "server" && rec.arch == arch_name(Arch::kGcn)) {
      single_qps = rec.qps;
    }
  }

  serve::ShardServerOptions sopt;
  sopt.num_shards = 2;
  sopt.partitioner = "multilevel";
  sopt.replication_factor = 2;
  sopt.server.workers = 2;
  sopt.server.max_batch = 64;
  sopt.server.max_delay_ms = 2.0;
  const ShardSet shards = serve::make_serving_shards(data.graph, mcfg, sopt);
  constexpr std::int64_t kClients = 4;

  {
    serve::ShardedServer server(snap, shards, data.features, sopt);
    const double seconds = serve::drive_clients(
        server, cfg.server_requests, kClients, data.num_nodes());
    const serve::ShardedStats stats = server.stats();
    Record r{"server_replicated_r2", "gcn", shape};
    r.batch = sopt.server.max_batch;
    r.workers = static_cast<std::int64_t>(sopt.server.workers) *
                sopt.num_shards * sopt.replication_factor;
    r.qps = static_cast<double>(stats.total.queries) / seconds;
    r.p50_ms = stats.total.p50_latency_ms;
    r.p99_ms = stats.total.p99_latency_ms;
    r.vs_single = single_qps > 0.0 ? r.qps / single_qps : 0.0;
    records.push_back(r);
    std::printf("gcn    replicated r=2   %9.0f QPS (p50 %.3f ms, %.2fx of "
                "single)\n",
                r.qps, r.p50_ms, r.vs_single);
  }

  {
    serve::ShardedServer server(snap, shards, data.features, sopt);
    failpoint::arm_from_string(serve::replica_exec_failpoint(0, 0) +
                               "=error");
    const double seconds = serve::drive_clients(
        server, cfg.server_requests, kClients, data.num_nodes());
    failpoint::disarm(serve::replica_exec_failpoint(0, 0));
    const serve::ShardedStats stats = server.stats();
    Record r{"server_failover_goodput", "gcn", shape};
    r.batch = sopt.server.max_batch;
    r.workers = static_cast<std::int64_t>(sopt.server.workers) *
                sopt.num_shards * sopt.replication_factor;
    // Goodput: answers delivered per second (answered == accepted here —
    // drive_clients throws on any failure).
    r.qps = static_cast<double>(stats.answered) / seconds;
    r.p50_ms = stats.total.p50_latency_ms;
    r.p99_ms = stats.total.p99_latency_ms;
    r.vs_single = single_qps > 0.0 ? r.qps / single_qps : 0.0;
    records.push_back(r);
    std::printf("gcn    failover goodput %9.0f QPS (p50 %.3f ms, %.2fx of "
                "single, %llu failovers)\n",
                r.qps, r.p50_ms, r.vs_single,
                static_cast<unsigned long long>(stats.failovers));
  }
}

// ---- Overload goodput under both admission policies. ---------------------
//
// A delay failpoint pins batch service time, so the 16-client pipelined
// burst deterministically exceeds capacity and the bounded pending queue
// (max_pending=64) has to reject or shed. Clients retry rejected queries
// with exponential backoff until everything is answered; `qps` is therefore
// *goodput* — queries answered OK per wall-clock second while the server is
// saturated — which converges to the failpoint-pinned service rate
// (workers * max_batch / delay) and is the stable metric bench_compare can
// hold onto. Latency percentiles include queue wait under saturation.
void bench_overload(const BenchConfig& cfg, const Dataset& data,
                    std::vector<Record>& records) {
  const ModelConfig mcfg = bench_model_config(Arch::kGcn, data);
  const GnnModel model(mcfg);
  Rng rng(43);
  const ParamStore params = model.init_params(rng);
  auto ctx = std::make_shared<const GraphContext>(data.graph, Arch::kGcn);
  const serve::Snapshot snap =
      serve::make_snapshot(mcfg, params, data, "bench-overload");
  const std::string shape = "n=" + std::to_string(data.num_nodes()) +
                            ",nnz=" + std::to_string(data.num_edges());

  struct Case {
    const char* bench;
    serve::AdmissionPolicy policy;
  };
  const Case cases[] = {
      {"server_overload_reject", serve::AdmissionPolicy::kRejectNew},
      {"server_overload_shed", serve::AdmissionPolicy::kShedOldest},
  };
  // No retries here on purpose: retry-until-admitted wall clock is
  // quantized by the exponential-backoff wave count and swings 2x between
  // runs. A single saturating burst is self-normalizing instead — drain
  // time scales with however many queries were admitted, so ok/seconds
  // converges to the failpoint-pinned service rate either way, and the
  // policies differentiate through the rejected counts and latency tails.
  // Full mode takes the median of three repeats to absorb scheduler noise.
  const int repeats = cfg.smoke ? 1 : 3;
  for (const Case& c : cases) {
    std::vector<double> qps_reps;
    std::vector<double> p99_reps;
    serve::LoadReport last_report;
    std::uint64_t last_rejected = 0;
    for (int rep = 0; rep < repeats; ++rep) {
      serve::ServerConfig scfg;
      scfg.workers = 2;
      scfg.max_batch = 32;
      scfg.max_delay_ms = 1.0;
      scfg.max_pending = cfg.smoke ? 64 : 512;
      scfg.admission = c.policy;
      serve::BatchServer server(snap, ctx, data.features, scfg);

      failpoint::Spec slow;
      slow.action = failpoint::Action::kDelay;
      slow.delay_ms = 2;  // caps service at ~workers*max_batch/2ms
      failpoint::arm("serve.batch_exec", slow);

      serve::LoadgenOptions opts;
      opts.requests = cfg.smoke ? 512 : 8192;
      opts.clients = 16;
      opts.num_nodes = data.num_nodes();
      const serve::LoadReport report = serve::drive_load(server, opts);
      failpoint::disarm_all();

      const serve::ServerStats stats = server.stats();
      qps_reps.push_back(report.seconds > 0.0
                             ? static_cast<double>(report.ok) / report.seconds
                             : 0.0);
      p99_reps.push_back(stats.p99_latency_ms);
      last_report = report;
      last_rejected = stats.rejected;
    }
    std::sort(qps_reps.begin(), qps_reps.end());
    std::sort(p99_reps.begin(), p99_reps.end());

    Record r{c.bench, "gcn", shape};
    r.batch = 32;
    r.workers = 2;
    r.qps = qps_reps[qps_reps.size() / 2];
    r.p50_ms = 0.0;
    r.p99_ms = p99_reps[p99_reps.size() / 2];
    records.push_back(r);
    std::printf(
        "gcn    %-15s %9.0f good-QPS (p99 %.3f ms, admitted %llu, "
        "rejected %llu of %llu)\n",
        c.bench + 7, r.qps, r.p99_ms,
        static_cast<unsigned long long>(last_report.ok),
        static_cast<unsigned long long>(last_rejected),
        static_cast<unsigned long long>(last_report.requests));
  }
}

// ---- Instrumentation overhead pair. ---------------------------------------
//
// Re-runs the gcn full-forward and server benches with the whole
// observability stack ON (per-stage exec profiling, metrics mirrors, trace
// spans) and records them as "full_forward_obs" / "server_obs" next to
// their instrumentation-off twins. Both sides are committed and gated by
// bench_compare: a regression in the on-path cost shows up in the _obs
// records, and creep in the disabled-hook cost shows up in the originals.
void bench_obs_overhead(const BenchConfig& cfg, const Dataset& data,
                        std::vector<Record>& records) {
  const ModelConfig mcfg = bench_model_config(Arch::kGcn, data);
  const GnnModel model(mcfg);
  Rng rng(47);
  const ParamStore params = model.init_params(rng);
  auto ctx = std::make_shared<const GraphContext>(data.graph, Arch::kGcn);
  const std::string shape = "n=" + std::to_string(data.num_nodes()) +
                            ",nnz=" + std::to_string(data.num_edges());
  // The instrumentation-off twins record under the display arch name.
  const auto baseline_qps = [&](const char* bench) {
    for (const auto& r : records) {
      if (r.bench == bench && r.arch == arch_name(Arch::kGcn)) return r.qps;
    }
    return 0.0;
  };

  obs::set_profiling(true);
  obs::trace::set_enabled(true);

  {
    serve::InferenceEngine engine(mcfg, params, ctx, data.features);
    engine.full_logits();  // warm-up
    Timer t;
    std::int64_t iters = 0;
    while (iters < 3 || t.seconds() < cfg.min_seconds) {
      engine.invalidate();
      engine.full_logits();
      ++iters;
    }
    const double per_pass = t.seconds() / static_cast<double>(iters);
    Record r{"full_forward_obs", "gcn", shape};
    r.batch = data.num_nodes();
    r.qps = static_cast<double>(data.num_nodes()) / per_pass;
    r.p50_ms = r.p99_ms = per_pass * 1e3;
    records.push_back(r);
    const double off = baseline_qps("full_forward");
    std::printf("gcn    full_fwd obs-on %9.0f nodes/s (%.3fx of obs-off)\n",
                r.qps, off > 0.0 ? r.qps / off : 0.0);
  }

  {
    const serve::Snapshot snap =
        serve::make_snapshot(mcfg, params, data, "bench-obs");
    serve::ServerConfig scfg;
    scfg.workers = 2;
    scfg.max_batch = 64;
    scfg.max_delay_ms = 2.0;
    serve::BatchServer server(snap, ctx, data.features, scfg);
    constexpr std::int64_t kClients = 4;
    const double seconds = serve::drive_clients(
        server, cfg.server_requests, kClients, data.num_nodes());
    const serve::ServerStats stats = server.stats();
    Record r{"server_obs", "gcn", shape};
    r.batch = scfg.max_batch;
    r.workers = static_cast<std::int64_t>(scfg.workers);
    r.qps = static_cast<double>(stats.queries) / seconds;
    r.p50_ms = stats.p50_latency_ms;
    r.p99_ms = stats.p99_latency_ms;
    records.push_back(r);
    const double off = baseline_qps("server");
    std::printf("gcn    server obs-on  %9.0f QPS (%.3fx of obs-off)\n",
                r.qps, off > 0.0 ? r.qps / off : 0.0);
  }

  obs::set_profiling(false);
  obs::trace::set_enabled(false);
}

bool write_json(const std::string& path, const std::string& mode,
                const std::vector<Record>& records) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench_serving: cannot open %s for writing\n",
                 path.c_str());
    return false;
  }
  int threads = 1;
#ifdef _OPENMP
  threads = omp_get_max_threads();
#endif
  out << "{\n";
  out << "  \"schema\": \"gsoup-bench-serving/v1\",\n";
  out << "  \"mode\": \"" << mode << "\",\n";
  out << "  \"threads\": " << threads << ",\n";
  out << "  \"results\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    char buf[768];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"bench\": \"%s\", \"arch\": \"%s\", \"shape\": \"%s\", "
        "\"batch\": %lld, \"workers\": %lld, \"qps\": %.3f, "
        "\"p50_ms\": %.6f, \"p99_ms\": %.6f, \"batching_speedup\": %.3f, "
        "\"vs_single\": %.3f, \"speedup_vs_fp32\": %.3f, "
        "\"parity_argmax\": %.4f, \"parity_max_delta\": %.3e}",
        r.bench.c_str(), r.arch.c_str(), r.shape.c_str(),
        static_cast<long long>(r.batch), static_cast<long long>(r.workers),
        r.qps, r.p50_ms, r.p99_ms, r.batching_speedup, r.vs_single,
        r.speedup_vs_fp32, r.parity_argmax, r.parity_max_delta);
    out << buf << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig cfg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      cfg.smoke = true;
      cfg.single_probes = 64;
      cfg.batch_rounds = 8;
      // Enough requests that thread spin-up does not dominate the sharded
      // and replicated records — vs_single is gated in CI from the smoke
      // artifact, and at 512 requests the 8-12-thread configurations spend
      // most of the run starting up, deflating the ratio by 2-3x.
      cfg.server_requests = 4096;
      cfg.min_seconds = 0.0;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      cfg.out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out PATH]\n", argv[0]);
      return 2;
    }
  }

  // Arxiv-like power-law graph: the regime where batched L-hop expansion
  // pays (hub-heavy neighbourhoods overlap across queries).
  SyntheticSpec spec = arxiv_like_spec(cfg.smoke ? 0.1 : 0.5);
  const Dataset data = generate_dataset(spec);
  std::printf("serving bench on %s\n", dataset_summary(data).c_str());

  std::vector<Record> records;
  for (const Arch arch : {Arch::kGcn, Arch::kSage, Arch::kGat}) {
    bench_arch(cfg, arch, data, records);
  }
  const bool parity_ok = bench_half(cfg, data, records);
  bench_sharded(cfg, data, records);
  bench_replicated(cfg, data, records);
  bench_overload(cfg, data, records);
  bench_obs_overhead(cfg, data, records);
  if (!write_json(cfg.out, cfg.smoke ? "smoke" : "full", records)) return 1;
  std::printf("wrote %s\n", cfg.out.c_str());

  // Parity is deterministic in both modes — enforce it even for smoke
  // (the artifact is written first so a failure leaves the evidence).
  if (!parity_ok) return 1;

  // The batching acceptance bar: 64-way batching must at least double
  // single-query throughput on every architecture. Enforced only for the
  // full-size run — smoke mode's graph is too small (and its timings too
  // short) for the ratio to be stable on noisy CI runners.
  if (!cfg.smoke) {
    for (const auto& r : records) {
      if (r.bench == "engine_query" && r.batch == 64 &&
          r.batching_speedup < 2.0) {
        std::fprintf(stderr,
                     "bench_serving: %s batching speedup %.2fx < 2x\n",
                     r.arch.c_str(), r.batching_speedup);
        return 1;
      }
    }
  }
  return 0;
}
