// Sharded serving: replicated BatchServers per partition behind a
// fault-aware shard router.
//
// The partition layer (src/partition/) splits the serving graph into
// owned node sets; partition/sharding.hpp replicates each shard's L-hop
// halo so every query on an owned node resolves entirely inside the
// shard-local CSR. This file is the serving half: each shard gets its own
// GraphPlan (optional per-shard reordering), GraphContext (cached
// layouts), feature slice and `replication_factor` full BatchServers —
// admission control, deadlines, worker isolation and the plan LRU all
// apply per replica — and a ShardedServer router in front owns the three
// id-translation boundaries:
//
//  1. submit/query take GLOBAL node ids; the router maps them to
//     (owner shard, shard-local id) via the ShardSet routing tables;
//  2. each shard's engines run over the shard-local (possibly reordered)
//     numbering — the inner BatchServer's report_ids config maps answers
//     back so every Prediction carries the global id;
//  3. batch queries are split by owner shard, dispatched shard by shard
//     (each sub-batch wrapped in a serve.shard_exec trace span and a
//     serve.shard_dispatch failpoint), and merged in submission order.
//
// Replication & failover (replication_factor R > 1): the R replicas of a
// shard share the snapshot parameter storage, the shard's GraphContext
// and its feature slice — replication duplicates engine workspaces, not
// graph or model state. The router runs a per-replica health state
// machine
//
//     healthy -> suspect -> down -> recovering -> healthy
//
// driven by consecutive ExecFailed/DeadlineExceeded results; every probe
// interval the router sends a canary — a known-good owned-node query — to
// each down replica and readmits it (kRecovering) only after the probe
// answers. Routing prefers healthy/recovering replicas (round-robin),
// falls back to suspect ones, and never dispatches to a down replica. On
// a replica failure the router re-dispatches the query to the next live
// replica within its remaining deadline budget (failover); optionally it
// hedges — fires a second replica once the first is slower than the
// shard's observed latency quantile, first result wins, the loser is
// cancelled at the accounting layer (its result feeds health state but
// never the client). When EVERY replica of a shard is down, the
// degraded-mode policy decides: fail fast (kFailShardQueries ->
// kReplicasExhausted) or answer from a stale cached-full logits table
// computed at construction (kServeStale, Prediction::stale = true,
// bit-exact for the frozen model).
//
// The router is told, not polling: every inner dispatch — first attempt,
// failover, hedge and canary probe — carries a BatchServer completion
// callback into one handler, which feeds the health machine, resolves the
// client, re-dispatches on failure, and retires the query once no
// dispatch of it is outstanding (a hedge loser is just one more
// outstanding dispatch). One router thread wakes only when a probe is due,
// a hedged query reaches its hedge deadline or a failover is queued, and
// sends them without waiting for their answers. A callback never
// dispatches itself: it can run inside an inner submit (a refusal, or
// under kShedOldest an eviction), and a failover sent from there would
// nest another submit, and so on through a full queue. No router lock is
// held across an inner submit, because its callback may run inline.
//
// Fault containment follows the shard boundary: a serve.shard_dispatch
// fault — and any fault inside one shard's replica set — fails only that
// shard's queries; answers from other shards stay bit-identical to the
// unfaulted single-engine oracle (tests/test_shard.cpp,
// tests/test_chaos.cpp).
//
// Observability: every inner server registers the full serving metric
// family under "serve.shard.*" with `shard="<i>",replica="<j>"` labels;
// the router adds `serve.replica.health` gauges (one per replica, value
// = ReplicaHealth), `serve.replica.{failover,hedge,probe,...}` counters
// and `serve.replica_probe` trace spans.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "graph/locality.hpp"
#include "partition/sharding.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"

namespace gsoup::serve {

/// Router-side view of one replica's liveness.
enum class ReplicaHealth : std::uint8_t {
  kHealthy = 0,     ///< in rotation
  kSuspect = 1,     ///< recent failures; routed only when nothing better
  kDown = 2,        ///< out of rotation; only the canary probe touches it
  kRecovering = 3,  ///< probe answered; readmitted, one strike re-downs it
};

const char* replica_health_name(ReplicaHealth h);

/// What the router does with a query whose owner shard has NO live
/// replica (every replica kDown).
enum class DegradedPolicy : std::uint8_t {
  kFailShardQueries,  ///< fail fast with kReplicasExhausted
  kServeStale,        ///< answer from the construction-time cached-full
                      ///< logits table (Prediction::stale = true)
};

/// The per-replica kill hook: the name the router configures as
/// ServerConfig::exec_failpoint for (shard, replica) —
/// "serve.replica_exec.s<shard>.r<replica>". Chaos schedules arm/disarm
/// these to down and revive individual replicas.
std::string replica_exec_failpoint(std::int64_t shard, std::int64_t replica);

struct ShardServerOptions {
  std::int64_t num_shards = 2;
  /// Partitioner name for make_serving_shards: "random" | "ldg" |
  /// "multilevel".
  std::string partitioner = "multilevel";
  std::uint64_t seed = 7;
  /// Per-shard GraphPlan vertex reordering (each shard reorders its own
  /// local graph; bit-exactness is preserved per the locality layer's
  /// contract).
  graph::Reorder reorder = graph::Reorder::kNone;
  /// Inner per-shard BatchServer configuration. The sharding hooks
  /// (metric_prefix/metric_labels/report_ids/row_guard/exec_failpoint)
  /// are overwritten per replica; everything else applies to every one.
  ServerConfig server;

  // --- Replication (R = 1 keeps exactly the PR 8 behaviour: one server
  // per shard, but now health-tracked and probe-readmitted) ---

  /// Inner BatchServers per non-empty shard. Replicas share the shard's
  /// snapshot storage, context and feature slice.
  std::int64_t replication_factor = 1;
  DegradedPolicy degraded = DegradedPolicy::kFailShardQueries;
  /// Consecutive ExecFailed/DeadlineExceeded results that turn a healthy
  /// replica suspect, and suspect down. A success resets the streak.
  int suspect_after = 1;
  int down_after = 3;
  /// Canary probe cadence and the deadline on each probe query.
  double probe_interval_ms = 20.0;
  double probe_deadline_ms = 1000.0;
  /// Hedged dispatch: once a query has waited `hedge_quantile` of the
  /// shard's observed latency distribution (refreshed every probe
  /// interval, never below hedge_min_delay_ms), fire it on a second live
  /// replica; first answer wins.
  bool hedge = false;
  double hedge_quantile = 0.99;
  double hedge_min_delay_ms = 1.0;
};

/// One replica's stats + the router's health verdict on it.
struct ReplicaStats {
  ServerStats server;
  ReplicaHealth health = ReplicaHealth::kHealthy;
};

/// Aggregate + per-shard + per-replica serving statistics.
struct ShardedStats {
  /// Sum over every inner server; latency percentiles/mean/max come from
  /// the merged per-replica histograms (same full population). NOTE:
  /// with replication, `total.submitted` counts inner submissions —
  /// failover re-dispatches, hedges and canary probes included — so it
  /// can exceed the number of client queries (see `accepted`).
  ServerStats total;
  /// Queries failed by the router itself (serve.shard_dispatch faults):
  /// these never reached an inner server and are NOT in total.submitted.
  std::uint64_t router_failed = 0;
  /// Per-shard stats merged over the shard's replicas; empty shards {}.
  std::vector<ServerStats> shards;
  /// Per-replica breakdown: replicas[shard][replica]. Empty shards {}.
  std::vector<std::vector<ReplicaStats>> replicas;

  // --- Router-level accounting: every client query the router accepted
  // (admitted past the dispatch failpoint) resolves into exactly one of
  // answered / failed; answered includes stale_served. ---
  std::uint64_t accepted = 0;
  std::uint64_t answered = 0;
  std::uint64_t failed = 0;
  std::uint64_t stale_served = 0;        ///< answered from the stale table
  std::uint64_t replicas_exhausted = 0;  ///< failed kReplicasExhausted
  std::uint64_t failovers = 0;           ///< re-dispatches to a live sibling
  std::uint64_t hedges = 0;              ///< hedge dispatches fired
  std::uint64_t hedge_wins = 0;          ///< hedge answered before primary
  std::uint64_t probes = 0;              ///< canary probes issued
  std::uint64_t readmissions = 0;        ///< down -> recovering transitions
};

/// Run the named partitioner over the serving graph and build the halo
/// shard set with `halo_hops = config.num_layers` (the minimal depth that
/// keeps L-layer queries shard-local and bit-exact). Throws CheckError on
/// an unknown partitioner name.
ShardSet make_serving_shards(const Csr& graph, const ModelConfig& config,
                             const ShardServerOptions& opt);

class ShardedServer {
 public:
  /// `snapshot` is the souped model for the GLOBAL graph the shard set
  /// was built from; `features` the global [num_nodes, in_dim] feature
  /// matrix (sliced per shard at construction); `shards` a ShardSet with
  /// halo_hops >= snapshot.config.num_layers. Empty shards get no server
  /// and are never routed to.
  ShardedServer(const Snapshot& snapshot, const ShardSet& shards,
                const Tensor& features, ShardServerOptions opt = {});
  ~ShardedServer();

  ShardedServer(const ShardedServer&) = delete;
  ShardedServer& operator=(const ShardedServer&) = delete;

  /// Enqueue one GLOBAL node id on a live replica of its owner shard
  /// (inner default deadline applies). The returned Prediction carries
  /// the global id. The future resolves after any failover/hedging the
  /// router performs — a client sees one result per submit, always.
  std::future<QueryResult> submit(std::int64_t node);
  std::future<QueryResult> submit(std::int64_t node, double deadline_ms);

  /// Batch query: split by owner shard, dispatch shard by shard
  /// (ascending shard id), block until every answer resolves, and return
  /// results in submission order. A serve.shard_dispatch fault fails
  /// exactly the faulted shard's queries (kExecFailed).
  std::vector<QueryResult> query(std::span<const std::int64_t> nodes);

  /// Block until every accepted query has fully resolved — including
  /// failover re-dispatches still in flight and hedge losers still owed
  /// to the accounting layer — and no canary probe is outstanding. Safe
  /// to call while a probe is readmitting a replica.
  void drain();

  /// Client-side retry telemetry (router level).
  void record_retries(std::uint64_t n);

  /// Merged full-lifetime latency distribution across all replicas.
  obs::HistogramData latency_snapshot() const;

  /// Waits out any canary probe in flight (and lets none start while it
  /// reads), so a probe never reads as an unresolved replica submission;
  /// a hung replica's probe holds the call until the probe resolves.
  ShardedStats stats() const;

  /// Current health of every replica: [shard][replica] (empty shards {}).
  std::vector<std::vector<ReplicaHealth>> replica_health() const;

  std::int64_t num_shards() const { return num_shards_; }
  std::int64_t replication_factor() const { return replicas_; }
  std::int64_t num_nodes() const {
    return static_cast<std::int64_t>(owner_.size());
  }
  std::int32_t shard_of(std::int64_t node) const;
  /// Owned node count per shard (router-side view, for reporting).
  const std::vector<std::int64_t>& owned_counts() const {
    return owned_counts_;
  }
  const ShardServerOptions& options() const { return opt_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Replica {
    std::unique_ptr<BatchServer> server;
    // Guarded by health_mutex_.
    ReplicaHealth health = ReplicaHealth::kHealthy;
    int failure_streak = 0;
    bool probing = false;  ///< a canary probe is outstanding
    obs::Gauge* m_health = nullptr;
  };

  struct Shard {
    std::vector<Replica> replicas;  ///< empty for an empty shard
    std::uint64_t rr = 0;           ///< round-robin cursor (health_mutex_)
    std::int64_t probe_local = -1;  ///< known-good owned node (local id)
    std::atomic<double> hedge_delay_ms{1.0};
  };

  /// One unfinished dispatch chain: a client query (its first attempt,
  /// failovers and hedge) or a canary probe. Owned by inflight_ and
  /// guarded by inflight_mutex_; each dispatch holds an Entry, which
  /// stays valid because the entry is erased only once every dispatch of
  /// it has called back and returned from its inner submit.
  struct InFlight;
  using Entry = std::list<InFlight>::iterator;
  /// Armed hedges by fire time.
  using HedgeTimers = std::multimap<Clock::time_point, Entry>;
  /// One dispatch the router thread owes: a failover, hedge or probe.
  struct Send {
    Entry e;
    int replica;
    double deadline_ms;
  };
  struct InFlight {
    std::int64_t node = 0;   ///< global id
    std::int64_t local = 0;  ///< id in the owner shard
    std::int32_t shard = 0;
    bool probe = false;      ///< canary: no client; an answer readmits
    std::uint64_t span = 0;  ///< probe trace-span id
    std::promise<QueryResult> out;  ///< the client's result
    bool resolved = false;          ///< `out` is set
    int outstanding = 0;  ///< dispatches whose callback has not run
    int submitting = 0;   ///< dispatches still inside an inner submit
    int hedge = -1;       ///< replica of the outstanding hedge, or -1
    std::optional<HedgeTimers::iterator> hedge_timer;  ///< while armed
    bool has_deadline = false;
    Clock::time_point deadline;
    std::uint32_t tried = 0;  ///< bitmask of replicas dispatched to
    int failovers = 0;
    std::optional<ServeError> first_error;  ///< for diagnostics
  };

  /// The serve.shard_dispatch boundary: returns true if a dispatch may
  /// proceed, false if a fault was injected (the caller counts it).
  bool dispatch_allowed();

  /// Post-dispatch-check submit: route `node` to a live replica (or the
  /// degraded path) and dispatch it.
  std::future<QueryResult> routed_submit(std::int64_t node,
                                         double deadline_ms);

  /// Pick a live replica of `shard` not in `exclude` (bitmask):
  /// healthy/recovering round-robin first, suspect as a last resort,
  /// down never. Returns -1 if none. Takes health_mutex_.
  int pick_replica(std::int64_t shard, std::uint32_t exclude);
  bool shard_all_down(std::int64_t shard) const;

  /// Feed one replica verdict into the health state machine.
  void note_result(std::int64_t shard, int replica,
                   const QueryResult& result);
  /// health_mutex_ held.
  void set_health_locked(std::int64_t shard, int replica, ReplicaHealth h);

  /// Submit `e`'s node to `replica` with on_answer() as the callback.
  /// No router lock may be held: the callback can run inline. Only the
  /// client's first attempt and the router thread dispatch — never a
  /// callback — so an inline callback never nests a second submit.
  void dispatch(Entry e, int replica, double deadline_ms);
  /// The one completion handler every dispatch calls back into.
  void on_answer(Entry e, int replica, QueryResult result);
  /// Erase `e` once it has nothing outstanding (inflight_mutex_ held).
  void retire_if_idle(Entry e);
  /// Set `q`'s client result and disarm its hedge (inflight_mutex_ held).
  void settle(InFlight& q, QueryResult result);
  /// The client verdict for `q` after its last dispatch failed with
  /// `err`: the error itself, or — once the router failed over, or the
  /// whole shard is down — degraded_result(). Counts router accounting.
  QueryResult failure_result(const InFlight& q, const ServeError& err);
  /// The verdict for a query whose shard ran out of live replicas: the
  /// stale-table answer under kServeStale when the caller found every
  /// replica down (`all_down`), else kReplicasExhausted with `message`.
  /// Counts router accounting.
  QueryResult degraded_result(std::int64_t node, bool all_down,
                              const std::string& message);
  /// The stale-table answer for a global node (kServeStale only).
  QueryResult stale_answer(std::int64_t global_node) const;

  /// The router thread: sleeps until a probe is due, the earliest armed
  /// hedge fires or a failover is queued, then sends them.
  void router_loop();
  void refresh_hedge_delays();

  /// Milliseconds left of `q`'s deadline; 0 (none) if it has none.
  double remaining_ms(const InFlight& q, Clock::time_point now) const;

  ShardServerOptions opt_;
  std::int64_t num_shards_ = 0;
  std::int64_t replicas_ = 1;
  std::int64_t out_dim_ = 0;
  std::vector<std::int32_t> owner_;     ///< global -> shard
  std::vector<std::int32_t> local_id_;  ///< global -> local in owner
  std::vector<std::int64_t> owned_counts_;
  std::vector<Shard> shards_;

  /// kServeStale: [num_nodes, out_dim] logits assembled at construction
  /// from per-shard cached-full passes (owned rows only — bit-exact to
  /// the cached-full oracle by the halo contract).
  Tensor stale_logits_;

  mutable std::mutex health_mutex_;

  // Lock order: inflight_mutex_ before health_mutex_.
  mutable std::mutex inflight_mutex_;
  /// drain() and destructor wait: inflight_ emptied or a re-dispatch made.
  mutable std::condition_variable inflight_cv_;
  /// Router wake: stop, an earlier hedge timer, a queued failover.
  std::condition_variable router_cv_;
  std::list<InFlight> inflight_;
  HedgeTimers hedge_timers_;
  std::vector<Send> failovers_due_;  ///< queued by on_answer()
  std::uint64_t redispatches_ = 0;  ///< failovers, hedges and probes sent
  int probes_in_flight_ = 0;        ///< probe entries not yet retired
  bool closed_ = false;  ///< no new queries, failovers, hedges or probes

  std::atomic<std::uint64_t> router_failed_{0};
  std::atomic<std::uint64_t> retries_observed_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> answered_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> stale_served_{0};
  std::atomic<std::uint64_t> replicas_exhausted_{0};
  std::atomic<std::uint64_t> failovers_{0};
  std::atomic<std::uint64_t> hedges_{0};
  std::atomic<std::uint64_t> hedge_wins_{0};
  std::atomic<std::uint64_t> probes_{0};
  std::atomic<std::uint64_t> readmissions_{0};

  obs::Counter* m_router_failed_ = nullptr;
  obs::Counter* m_retries_ = nullptr;
  obs::Counter* m_failover_ = nullptr;
  obs::Counter* m_hedge_ = nullptr;
  obs::Counter* m_hedge_wins_ = nullptr;
  obs::Counter* m_probe_ = nullptr;
  obs::Counter* m_readmit_ = nullptr;
  obs::Counter* m_stale_ = nullptr;
  obs::Counter* m_exhausted_ = nullptr;

  std::thread router_;  ///< last: it uses every member above
};

}  // namespace gsoup::serve
