// Per-layer measurements for the traced run. Each probe calls one
// module's public functions from outside the program and times them;
// the serving breakdown reads the trace events and registry histograms
// the program already records.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "exec/layer_plan.hpp"
#include "obs/metrics.hpp"
#include "serve/snapshot.hpp"
#include "soup_phase.hpp"

namespace perfbench {

/// Per-epoch stage times of a learned-souping loop replayed from outside:
/// the LS loop on the full graph, or the PLS loop on R/K subgraphs. The
/// times are process CPU milliseconds, like the mixes they account for.
struct EpochBreakdown {
  std::int64_t epochs = 0;
  double union_ms = 0.0;    ///< partition: sample + union subgraph (PLS)
  double context_ms = 0.0;  ///< nn: GraphContext on the subgraph (PLS)
  double mix_ms = 0.0;      ///< core: AlphaSet::build_soup_values
  double fwd_ms = 0.0;      ///< ag: GnnModel::forward + cross_entropy
  double bwd_ms = 0.0;      ///< ag: ag::backward + optimiser step
  long minor_faults = 0;    ///< over the whole replay
  double sys_s = 0.0;       ///< over the whole replay
  double per_epoch_ms() const {
    return union_ms + context_ms + mix_ms + fwd_ms + bwd_ms;
  }
};

EpochBreakdown probe_ls_epochs(const SoupSpec& spec, const SoupSetup& setup,
                               std::span<const gsoup::Ingredient> ingredients,
                               std::int64_t epochs);
EpochBreakdown probe_pls_epochs(const SoupSpec& spec, const SoupSetup& setup,
                                std::span<const gsoup::Ingredient> ingredients);

/// Kernel and single-call timings (medians of repeated calls).
struct KernelTimes {
  double eval_fwd_ms = 0.0;      ///< train: evaluate_split on the val split
  double spmm_ms = 0.0;          ///< ag: spmm_overwrite at hidden width
  double spmm_bytes = 0.0;       ///< computed bytes one spmm call moves
  double gemm_ms = 0.0;          ///< tensor: matmul at the first-layer shape
  double gemm_flops = 0.0;
  double attention_fwd_ms = 0.0; ///< ag: gat_attention_forward, 4 heads, d=16
  double attention_bwd_ms = 0.0; ///< ag: gat_attention_backward
  double engine_query_ms = 0.0;  ///< serve: InferenceEngine::query, 64 nodes
};

KernelTimes probe_kernels(const SoupSetup& setup,
                          const gsoup::ParamStore& params,
                          const gsoup::serve::Snapshot& snapshot,
                          std::uint64_t seed);

/// Serving registry histograms read around the traced window: latency and
/// batch sizes of every replica, and the executor's stage times for the served arch.
struct RegistryView {
  gsoup::obs::HistogramData latency_ms;  ///< enqueue -> answer, per query
  gsoup::obs::HistogramData batch_size;
  std::array<gsoup::obs::HistogramData, gsoup::exec::kNumStages> stage_ms;

  static RegistryView take(std::int64_t shards, std::int64_t replicas,
                           gsoup::Arch arch);
  RegistryView delta_since(const RegistryView& base) const;
};

/// Per-query serving phases from the trace: serve.pending (waiting for a
/// batch to form and dispatch), serve.queue_wait (dispatched, waiting for
/// a worker) and serve.exec (engine execution and answer).
struct ServePhases {
  std::int64_t queries = 0;
  double pending_ms = 0.0;   ///< means
  double queue_wait_ms = 0.0;
  double exec_ms = 0.0;
  double exec_p50_ms = 0.0;
  std::uint64_t dropped_events = 0;
  bool complete = false;  ///< every begun phase ended, no events dropped
  double total_ms() const { return pending_ms + queue_wait_ms + exec_ms; }
};

ServePhases serve_phases_from_trace();

}  // namespace perfbench
