// The serving half of a workload: the soup written and loaded as a .gsnp
// snapshot, multilevel serving shards, a replicated ShardedServer, and an
// open-loop generator that sends on a fixed schedule and times each query
// from when it was due.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/dataset.hpp"
#include "nn/graph_context.hpp"
#include "serve/shard_server.hpp"

namespace perfbench {

/// Serving settings every workload shares.
constexpr std::int64_t kServeWorkers = 1;  ///< engine workers per replica
constexpr std::int64_t kMaxBatch = 64;
constexpr double kMaxDelayMs = 2.0;
constexpr double kRateQps = 4000.0;        ///< open-loop send rate
/// The open-loop window is cut into slices this long for the CPU-per-
/// query median.
constexpr double kCpuSliceS = 0.5;

/// Serving settings that differ between workloads or runs; the defaults
/// are the serving workload's.
struct ServeSpec {
  std::int64_t shards = 2;
  std::int64_t replicas = 2;
  gsoup::serve::QueryMode mode = gsoup::serve::QueryMode::kSubgraph;
  double seconds = 10.0;         ///< open-loop window
  std::uint64_t seed = 1;        ///< query stream and shard partitioner
  std::string snapshot_path{};   ///< written and read back during set-up
};

/// Everything serving set-up builds. Times are of one build, in wall
/// seconds; cpu_s is the process CPU time of the whole build.
struct ServeSetup {
  gsoup::serve::Snapshot snapshot;  ///< as loaded back from disk
  gsoup::ShardSet shards;
  std::unique_ptr<gsoup::serve::ShardedServer> server;
  double write_s = 0.0;        ///< io: save_snapshot
  double load_s = 0.0;         ///< io: load_snapshot
  double shard_build_s = 0.0;  ///< partition: make_serving_shards
  double start_s = 0.0;        ///< serve: ShardedServer construction
  double cpu_s = 0.0;
};

ServeSetup serve_setup(const ServeSpec& spec,
                       const gsoup::serve::Snapshot& snapshot,
                       const gsoup::Dataset& data);

/// Argmax of one InferenceEngine::full_logits() pass: the label every
/// served answer must equal.
std::vector<std::int32_t> oracle_labels(
    const gsoup::serve::Snapshot& snapshot,
    std::shared_ptr<const gsoup::GraphContext> ctx,
    const gsoup::Tensor& features);

struct OpenLoop {
  std::int64_t sent = 0;      ///< queries sent (and resolved)
  std::int64_t answered = 0;  ///< ok, live (not stale) and correct
  std::int64_t failed = 0;    ///< ServeError results (shed, failed, ...)
  std::int64_t stale = 0;     ///< answered from the stale table
  std::int64_t wrong = 0;     ///< label differs from the oracle
  std::vector<double> latency_ms;  ///< answered: due time -> answer seen
  std::vector<double> late_ms;     ///< generator: send time - due time
  /// Process CPU over the window, less the generator's and the
  /// collector's own thread CPU: the program's share.
  double cpu_s = 0.0;
  double harness_cpu_s = 0.0;      ///< generator + collector thread CPU
  /// The program's CPU ms per query sent, in each whole slice of
  /// kCpuSliceS seconds of the schedule.
  std::vector<double> slice_cpu_ms_per_query;
  std::uint64_t failovers = 0;     ///< router counters, window deltas
  std::uint64_t hedges = 0;
  std::uint64_t probes = 0;
  std::uint64_t rejected = 0;
  std::string first_error;
};

OpenLoop drive_open_loop(gsoup::serve::ShardedServer& server,
                         const ServeSpec& spec,
                         const std::vector<std::int32_t>& expected);

}  // namespace perfbench
