#include "layer_probes.hpp"

#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "ag/graph_ops.hpp"
#include "ag/loss.hpp"
#include "core/alpha.hpp"
#include "graph/normalize.hpp"
#include "measure.hpp"
#include "obs/trace.hpp"
#include "partition/union_subgraph.hpp"
#include "serve/engine.hpp"
#include "tensor/init.hpp"
#include "tensor/ops.hpp"
#include "train/metrics.hpp"
#include "train/optimizer.hpp"
#include "train/scheduler.hpp"
#include "util/timer.hpp"

namespace perfbench {

using namespace gsoup;

namespace {

/// The alpha logits, optimiser and schedule of one learned-souping run,
/// built the way LearnedSouper / PartitionLearnedSouper build them.
struct AlphaLoop {
  Rng rng;
  AlphaSet alphas;
  std::unique_ptr<Optimizer> optimizer;
  ScheduleConfig schedule;
  std::int64_t total_epochs;

  AlphaLoop(const LearnedSoupConfig& cfg,
            std::span<const Ingredient> ingredients)
      : rng(cfg.seed),
        alphas(ingredients.front().params,
               static_cast<std::int64_t>(ingredients.size()), cfg.granularity,
               rng),
        total_epochs(cfg.epochs) {
    OptimizerConfig opt;
    opt.kind = cfg.optimizer;
    opt.lr = cfg.lr;
    opt.momentum = cfg.momentum;
    opt.weight_decay = cfg.weight_decay;
    optimizer = make_optimizer(alphas.logits(), opt);
    schedule.kind = ScheduleKind::kCosine;
    schedule.base_lr = cfg.lr;
    schedule.min_lr = cfg.min_lr;
  }

  /// One epoch on (ctx, data), timing mix / forward / backward into `b`.
  void epoch(std::int64_t e, const GnnModel& model, const GraphContext& ctx,
             const Dataset& data, std::span<const Ingredient> ingredients,
             EpochBreakdown& b) {
    optimizer->set_lr(scheduled_lr(schedule, e, total_epochs));
    CpuStopwatch cpu;
    {
      const ParamMap soup = alphas.build_soup_values(ingredients);
      b.mix_ms += cpu.lap_ms();
      const ag::Value features = ag::constant(data.features);
      const ag::Value logits = model.forward(ctx, features, soup);
      const auto val_nodes = data.split_nodes(Split::kVal);
      const ag::Value loss = ag::cross_entropy(logits, data.labels, val_nodes);
      b.fwd_ms += cpu.lap_ms();
      ag::backward(loss);
      optimizer->step();
      optimizer->zero_grad();
    }  // the epoch's tape is released here, inside the backward time
    b.bwd_ms += cpu.lap_ms();
  }
};

void to_per_epoch(EpochBreakdown& b) {
  const auto n = static_cast<double>(b.epochs);
  b.union_ms /= n;
  b.context_ms /= n;
  b.mix_ms /= n;
  b.fwd_ms /= n;
  b.bwd_ms /= n;
}

template <typename Fn>
double median_ms(int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    Timer t;
    fn();
    ms.push_back(t.milliseconds());
  }
  return median(std::move(ms));
}

Tensor random_tensor(Shape shape, Rng& rng) {
  Tensor t = Tensor::empty(std::move(shape));
  init::uniform(t, rng, -1.0f, 1.0f);
  return t;
}

const char* arch_label(Arch arch) {
  switch (arch) {
    case Arch::kGcn: return "gcn";
    case Arch::kSage: return "sage";
    case Arch::kGat: return "gat";
  }
  return "?";
}

}  // namespace

EpochBreakdown probe_ls_epochs(const SoupSpec& spec, const SoupSetup& setup,
                               std::span<const Ingredient> ingredients,
                               std::int64_t epochs) {
  EpochBreakdown b;
  b.epochs = epochs;
  const Usage before = Usage::now();
  AlphaLoop loop(ls_config(spec), ingredients);
  for (std::int64_t e = 0; e < epochs; ++e) {
    loop.epoch(e, *setup.model, *setup.ctx, *setup.data, ingredients, b);
  }
  const Usage after = Usage::now();
  b.minor_faults = after.minor_faults - before.minor_faults;
  b.sys_s = after.sys_s - before.sys_s;
  to_per_epoch(b);
  return b;
}

EpochBreakdown probe_pls_epochs(const SoupSpec& spec, const SoupSetup& setup,
                                std::span<const Ingredient> ingredients) {
  const PlsConfig cfg = pls_config(spec);
  EpochBreakdown b;
  b.epochs = cfg.base.epochs;
  AlphaLoop loop(cfg.base, ingredients);
  for (std::int64_t e = 0; e < b.epochs; ++e) {
    CpuStopwatch cpu;
    Subgraph sub;
    for (int attempt = 0; attempt < 8; ++attempt) {
      const auto selected =
          sample_partitions(cfg.num_parts, cfg.budget, loop.rng);
      sub = partition_union_subgraph(*setup.data,
                                     setup.pls->partitioning(), selected);
      if (sub.data.split_size(Split::kVal) > 0) break;
    }
    b.union_ms += cpu.lap_ms();
    const GraphContext sub_ctx(sub.data.graph, spec.arch);
    b.context_ms += cpu.lap_ms();
    loop.epoch(e, *setup.model, sub_ctx, sub.data, ingredients, b);
  }
  to_per_epoch(b);
  return b;
}

KernelTimes probe_kernels(const SoupSetup& setup, const ParamStore& params,
                          const serve::Snapshot& snapshot,
                          std::uint64_t seed) {
  KernelTimes k;
  const Dataset& data = *setup.data;
  const std::int64_t n = data.num_nodes();
  const auto nnz = static_cast<double>(data.num_edges());
  Rng rng(seed * 2654435761ULL + 17);

  k.eval_fwd_ms = median_ms(5, [&] {
    (void)evaluate_split(*setup.model, *setup.ctx, data, params, Split::kVal);
  });

  // Hidden width 64 = SAGE's hidden size = GAT's 4 heads x 16.
  constexpr std::int64_t kWidth = 64;
  constexpr std::int64_t kHeads = 4;
  const Csr mean_adj = row_normalize(data.graph);
  const Tensor x = random_tensor({n, kWidth}, rng);
  Tensor y = Tensor::empty({n, kWidth});
  k.spmm_ms = median_ms(9, [&] { ag::spmm_overwrite(mean_adj, x, y); });
  // indptr + (index, value) per edge + one gathered row per edge + output.
  k.spmm_bytes = 8.0 * static_cast<double>(n + 1) + 8.0 * nnz +
                 nnz * kWidth * 4.0 + static_cast<double>(n) * kWidth * 4.0;

  const std::int64_t in_dim = data.feature_dim();
  const Tensor w = random_tensor({in_dim, kWidth}, rng);
  k.gemm_ms = median_ms(9, [&] { (void)ops::matmul(data.features, w); });
  k.gemm_flops = 2.0 * static_cast<double>(n) *
                 static_cast<double>(in_dim) * kWidth;

  const Tensor score_dst = random_tensor({n, kHeads}, rng);
  const Tensor score_src = random_tensor({n, kHeads}, rng);
  Tensor alpha = Tensor::empty({data.num_edges(), kHeads});
  Tensor out = Tensor::empty({n, kWidth});
  const CsrTranspose graph_t = data.graph.transpose();
  k.attention_fwd_ms = median_ms(5, [&] {
    ag::gat_attention_forward(data.graph.indptr, data.graph.indices, x,
                              score_dst, score_src, kHeads, 0.2f, alpha, out);
  });
  const Tensor grad_out = random_tensor({n, kWidth}, rng);
  Tensor dh = Tensor::zeros({n, kWidth});
  Tensor dsd = Tensor::zeros({n, kHeads});
  Tensor dss = Tensor::zeros({n, kHeads});
  k.attention_bwd_ms = median_ms(5, [&] {
    ag::gat_attention_backward(data.graph.indptr, data.graph.indices, graph_t,
                               x, score_dst, score_src, alpha, grad_out,
                               kHeads, 0.2f, &dh, &dsd, &dss);
  });

  serve::InferenceEngine engine(snapshot.config, snapshot.params, setup.ctx,
                                data.features);
  constexpr std::int64_t kBatch = 64;
  Tensor logits = Tensor::empty({kBatch, snapshot.config.out_dim});
  std::vector<std::int64_t> nodes(kBatch);
  std::vector<double> query_ms;
  for (int rep = 0; rep < 50; ++rep) {
    for (auto& v : nodes) {
      v = static_cast<std::int64_t>(
          rng.uniform_int(static_cast<std::uint64_t>(n)));
    }
    Timer t;
    engine.query(nodes, logits);
    query_ms.push_back(t.milliseconds());
  }
  k.engine_query_ms = median(std::move(query_ms));
  return k;
}

RegistryView RegistryView::take(std::int64_t shards, std::int64_t replicas,
                                Arch arch) {
  RegistryView v;
  for (std::int64_t s = 0; s < shards; ++s) {
    for (std::int64_t r = 0; r < replicas; ++r) {
      const std::string labels =
          obs::format_label("shard", std::to_string(s)) + "," +
          obs::format_label("replica", std::to_string(r));
      v.latency_ms.merge(
          obs::histogram("serve.shard.latency_ms", labels).snapshot());
      v.batch_size.merge(
          obs::histogram("serve.shard.batch_size", labels).snapshot());
    }
  }
  for (int s = 0; s < exec::kNumStages; ++s) {
    const std::string labels =
        std::string("arch=\"") + arch_label(arch) + "\",stage=\"" +
        exec::stage_name(static_cast<exec::Stage>(s)) + "\"";
    v.stage_ms[static_cast<std::size_t>(s)] =
        obs::histogram("exec.stage_ms", labels).snapshot();
  }
  return v;
}

RegistryView RegistryView::delta_since(const RegistryView& base) const {
  RegistryView d;
  d.latency_ms = latency_ms.delta_since(base.latency_ms);
  d.batch_size = batch_size.delta_since(base.batch_size);
  for (std::size_t s = 0; s < stage_ms.size(); ++s) {
    d.stage_ms[s] = stage_ms[s].delta_since(base.stage_ms[s]);
  }
  return d;
}

ServePhases serve_phases_from_trace() {
  // Query trace ids are numbered per BatchServer, so with several
  // replicas in one process an id alone does not name a query, and a
  // phase that begins on one thread and ends on another cannot be paired
  // per query. Sums can: a phase's total time is the sum of its end
  // stamps minus the sum of its begin stamps, whatever the pairing. The
  // exec phase begins and ends on the same worker thread, so it is
  // paired per (thread, id) for its median as well.
  static constexpr const char* kPhases[] = {"serve.pending",
                                            "serve.queue_wait", "serve.exec"};
  ServePhases out;
  out.dropped_events = obs::trace::dropped_events();
  const auto events = obs::trace::snapshot_events();
  double begin_us[3] = {0, 0, 0}, end_us[3] = {0, 0, 0};
  std::int64_t begins[3] = {0, 0, 0}, ends[3] = {0, 0, 0};
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t> exec_open;
  std::vector<double> exec_ms;
  for (const auto& ev : events) {
    if (ev.phase != 'b' && ev.phase != 'e') continue;
    for (int p = 0; p < 3; ++p) {
      if (std::strcmp(ev.name, kPhases[p]) != 0) continue;
      if (ev.phase == 'b') {
        begin_us[p] += static_cast<double>(ev.ts_us);
        ++begins[p];
        if (p == 2) exec_open[{ev.tid, ev.id}] = ev.ts_us;
      } else {
        end_us[p] += static_cast<double>(ev.ts_us);
        ++ends[p];
        if (p == 2) {
          const auto it = exec_open.find({ev.tid, ev.id});
          if (it != exec_open.end()) {
            exec_ms.push_back(static_cast<double>(ev.ts_us - it->second) /
                              1e3);
            exec_open.erase(it);
          }
        }
      }
    }
  }
  out.queries = begins[0];
  out.complete = out.dropped_events == 0 && out.queries > 0;
  double* means[3] = {&out.pending_ms, &out.queue_wait_ms, &out.exec_ms};
  for (int p = 0; p < 3; ++p) {
    if (begins[p] != ends[p] || begins[p] != out.queries) {
      out.complete = false;
    }
    if (begins[p] > 0) {
      *means[p] = (end_us[p] - begin_us[p]) / 1e3 /
                  static_cast<double>(begins[p]);
    }
  }
  out.exec_p50_ms = median(std::move(exec_ms));
  return out;
}

}  // namespace perfbench
