// Batched request server: many client threads submit single-node
// classification queries; a dispatcher coalesces them into batches under a
// latency budget and drains the batches on util/thread_pool workers, each
// owning a private InferenceEngine (engines hold mutable workspaces and
// are single-threaded by design — the graph, features and souped weights
// are shared read-only across all of them).
//
// This is the serving half of the paper's economics: Phase 1/2 produce ONE
// souped model, so the request path is pure inference — batching exists to
// amortise the per-query L-hop neighbourhood expansion (overlapping
// neighbourhoods are computed once per batch instead of once per query).
//
// Failure semantics (see docs/ARCHITECTURE.md "Failure semantics &
// overload"): every submit resolves to a QueryResult — either a Prediction
// or a ServeError — and the server degrades explicitly instead of
// degrading silently:
//  - admission control: the pending queue is bounded (max_pending); a
//    burst beyond it either rejects the new query (kRejectNew) or sheds
//    the oldest queued one (kShedOldest), both surfaced as kOverloaded
//    and counted in ServerStats::rejected, so overload costs O(1) memory;
//  - deadlines: a query carrying a deadline (server default or per-submit
//    override) that expires before dispatch is failed kDeadlineExceeded
//    without touching an engine — shed load is cheap load;
//  - worker isolation: an engine that throws mid-batch fails only that
//    batch's queries (kExecFailed), increments failed_batches, and the
//    worker's engine is rebuilt from the retained snapshot state before
//    the worker re-enters the free pool — a poisoned workspace can't leak
//    into the next batch;
//  - two-phase shutdown: the destructor first closes intake (submits
//    resolve kShutdown immediately), then either drains the queue
//    (drain_on_shutdown, default) or fails pending queries fast — every
//    query is always resolved, never dropped.
//
// Every query resolves through one path: its completion callback runs
// exactly once with the QueryResult. The future-returning submits wrap
// that callback around a promise.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/engine.hpp"
#include "serve/snapshot.hpp"
#include "util/thread_pool.hpp"

namespace gsoup::serve {

/// What the server does with a submit that finds the pending queue full.
enum class AdmissionPolicy {
  kRejectNew,   ///< fail the incoming query with kOverloaded
  kShedOldest,  ///< evict the oldest queued query, admit the new one
};

struct ServerConfig {
  /// Worker threads (and private engines) draining batches.
  std::size_t workers = 2;
  /// Maximum queries coalesced into one batch.
  std::int64_t max_batch = 64;
  /// Latency budget: a partial batch is flushed once its oldest query has
  /// waited this long.
  double max_delay_ms = 2.0;
  QueryMode mode = QueryMode::kSubgraph;
  /// kSubgraph mode: number of per-batch L-hop subgraph plans kept in an
  /// LRU, keyed by the batch's node-id sequence. Skewed query
  /// distributions repeat batches (hot nodes, retry storms, single-node
  /// batches of celebrities), and a hit skips the whole expansion — the
  /// worker executes the cached plan directly. 0 disables the cache
  /// (plans can hold an L-hop neighbourhood each, so capacity is an
  /// explicit memory decision; hit/miss counters are in ServerStats).
  std::size_t plan_cache_capacity = 0;
  /// Admission control: the pending queue never grows past this many
  /// queries; beyond it, `admission` decides who pays. Must be >= 1.
  std::size_t max_pending = 4096;
  AdmissionPolicy admission = AdmissionPolicy::kRejectNew;
  /// Deadline applied to every submit that does not carry its own
  /// override. <= 0 disables. Expiry is enforced at dispatch: an expired
  /// query is failed kDeadlineExceeded instead of computed.
  double default_deadline_ms = 0.0;
  /// Destructor behaviour for queries still queued when intake closes:
  /// true drains them through the engines, false fails them kShutdown.
  bool drain_on_shutdown = true;
  /// Storage precision of the serving stack (docs/ARCHITECTURE.md
  /// "Precision lowering"): kFp16/kBf16 stores the feature matrix, the
  /// executor weight panels and inter-layer activations — and in
  /// kCachedFull mode the shared answer table — at half width, with fp32
  /// accumulation everywhere. The query/prediction interface is
  /// unchanged.
  Precision precision = Precision::kFp32;

  // --- Sharded-serving hooks (set by serve::ShardedServer for its
  // per-shard inner servers; the defaults are plain single-server
  // behaviour) ---

  /// Registry metric-name prefix: this server registers
  /// `<metric_prefix>submitted` and friends. Shard servers use
  /// "serve.shard." so per-shard series never pollute the aggregate
  /// single-server families.
  std::string metric_prefix = "serve.";
  /// Pre-rendered Prometheus label body attached to every metric this
  /// server registers (e.g. `shard="3"`). Empty = unlabelled.
  std::string metric_labels;
  /// When set, Prediction::node reports `(*report_ids)[node]` instead of
  /// the submitted id — the id-translation boundary that lets a shard
  /// server accept shard-local ids yet answer in the caller's global
  /// numbering. Size must cover [0, num_nodes).
  std::shared_ptr<const std::vector<std::int64_t>> report_ids;
  /// When set, installed on every worker engine (including isolation
  /// rebuilds) via InferenceEngine::set_row_guard: flags (caller
  /// numbering) marking rows that are faithful copies of the full
  /// graph's. Queries whose expansion walks an unflagged row fail their
  /// batch instead of silently aggregating over a truncated row.
  std::shared_ptr<const std::vector<std::uint8_t>> row_guard;
  /// When non-empty, an EXTRA failpoint evaluated per batch right next to
  /// "serve.batch_exec", under this name. The replicated router names one
  /// per replica ("serve.replica_exec.s<K>.r<J>") so a chaos schedule can
  /// kill and revive a single replica while its siblings keep serving.
  std::string exec_failpoint;
};

/// One answered query.
struct Prediction {
  std::int64_t node = -1;
  std::int32_t label = -1;  ///< argmax class
  float score = 0.0f;       ///< logit of the argmax class
  /// Served from the router's precomputed stale-fallback table
  /// (DegradedPolicy::kServeStale with every replica of the owner shard
  /// down) instead of a live engine. The answer is still bit-exact for a
  /// frozen model, but it did not observe the live serving path.
  bool stale = false;
};

/// Why a query did NOT produce a Prediction.
enum class ServeErrorCode : std::uint8_t {
  kOverloaded,         ///< admission control shed it (queue full)
  kDeadlineExceeded,   ///< its deadline passed before dispatch
  kExecFailed,         ///< its batch's engine threw; batch isolated
  kShutdown,           ///< server stopped before it could be answered
  kReplicasExhausted,  ///< replicated router: failover ran out of live
                       ///< replicas (or the whole shard is down under
                       ///< DegradedPolicy::kFailShardQueries)
};

const char* serve_error_name(ServeErrorCode code);

struct ServeError {
  ServeErrorCode code = ServeErrorCode::kExecFailed;
  std::string message;
};

/// Value-or-error result every submitted query resolves to. Shed load and
/// failed execution are ordinary values — futures never carry exceptions,
/// so one poisoned batch cannot terminate a client that forgot a try.
class QueryResult {
 public:
  QueryResult() = default;  ///< error state, "unresolved"

  static QueryResult success(const Prediction& pred) {
    QueryResult r;
    r.ok_ = true;
    r.pred_ = pred;
    return r;
  }
  static QueryResult failure(ServeErrorCode code, std::string message) {
    QueryResult r;
    r.ok_ = false;
    r.error_ = ServeError{code, std::move(message)};
    return r;
  }

  bool ok() const { return ok_; }
  explicit operator bool() const { return ok_; }

  /// The prediction; throws CheckError if this is an error result (the
  /// caller skipped the ok() check).
  const Prediction& value() const;
  /// The error; throws CheckError if this is a success result.
  const ServeError& error() const;

 private:
  bool ok_ = false;
  Prediction pred_;
  ServeError error_{ServeErrorCode::kShutdown, "unresolved"};
};

/// Aggregate serving statistics. Everything — counts, mean, max AND the
/// percentiles — covers the server's whole lifetime: latency lives in an
/// obs::HistogramData (fixed log-scale buckets, O(1) memory), so the
/// percentiles describe the same full population as the counts instead
/// of a recent-samples window, at bucket resolution (~10% with the
/// default 12-buckets-per-decade spec). The same observations are
/// mirrored into the process-global metrics registry ("serve.latency_ms"
/// etc.), so exported metrics and stats() agree by construction.
///
/// Accounting: every query admitted to the queue (`submitted`) resolves
/// into exactly one of queries / deadline_expired / failed_queries /
/// shutdown_failed / the shed share of rejected. Queries refused at the
/// door (kRejectNew) appear in `rejected` only.
struct ServerStats {
  std::uint64_t submitted = 0;  ///< admitted to the pending queue
  std::uint64_t queries = 0;    ///< answered with a Prediction
  std::uint64_t batches = 0;
  double mean_batch = 0.0;
  double p50_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double mean_latency_ms = 0.0;
  double max_latency_ms = 0.0;
  /// Queries shed by admission control (rejected at the door or evicted
  /// by kShedOldest) — all resolved kOverloaded.
  std::uint64_t rejected = 0;
  /// Queries failed kDeadlineExceeded at dispatch.
  std::uint64_t deadline_expired = 0;
  /// Batches whose execution threw (engine rebuilt afterwards).
  std::uint64_t failed_batches = 0;
  /// Queries resolved kExecFailed (members of failed batches).
  std::uint64_t failed_queries = 0;
  /// Queries resolved kShutdown (intake closed / fail-fast teardown).
  std::uint64_t shutdown_failed = 0;
  /// Client-side retries reported via record_retries (e.g. by
  /// serve::loadgen) — degradation visible from the server's own stats.
  std::uint64_t retries_observed = 0;
  /// Subgraph-plan LRU counters (plan_cache_capacity > 0): a hit means a
  /// batch reused a cached L-hop expansion instead of rebuilding it.
  std::uint64_t plan_cache_hits = 0;
  std::uint64_t plan_cache_misses = 0;
};

class BatchServer {
 public:
  /// The snapshot provides config + weights; `ctx` must wrap the serving
  /// graph for the snapshot's architecture; `features` is the node feature
  /// matrix (shared across workers, never copied per engine). A
  /// pre-quantized HalfBuffer (matching config.precision, plan-space rows
  /// when the context reorders vertices) is served as-is — the sharded
  /// router quantizes each shard's slice ONCE and its R replicas all
  /// serve from it. The server retains the snapshot's config and
  /// (storage-shared) parameters so a poisoned worker engine can be
  /// rebuilt without the caller's Snapshot.
  BatchServer(const Snapshot& snapshot,
              std::shared_ptr<const GraphContext> ctx, StoredMatrix features,
              ServerConfig config = {});
  ~BatchServer();

  BatchServer(const BatchServer&) = delete;
  BatchServer& operator=(const BatchServer&) = delete;

  /// Called exactly once with a query's result.
  using Completion = std::function<void(QueryResult)>;

  /// Enqueue one node query with a per-query deadline (milliseconds from
  /// now; <= 0 means no deadline, ignoring the server default). `done`
  /// runs when its batch drains, or when it is shed / expired / failed —
  /// always with a QueryResult, never an exception. It runs on the thread
  /// that resolves the query: a worker, the dispatcher, or this caller
  /// itself when the query is refused at the door (kOverloaded, or
  /// kShutdown after shutdown begins) — and under kShedOldest this call
  /// may run ANOTHER query's callback, the one it evicts. The server
  /// holds none of its locks while a callback runs, so a callback may
  /// submit again; it must not throw or block on this server.
  /// Out-of-range ids still throw CheckError here, synchronously: a
  /// malformed id is a caller bug, not load.
  void submit(std::int64_t node, double deadline_ms, Completion done);

  /// The same query as a future, under the server's default deadline or
  /// `deadline_ms`.
  std::future<QueryResult> submit(std::int64_t node);
  std::future<QueryResult> submit(std::int64_t node, double deadline_ms);

  /// Block until every admitted query has been resolved. Any waiting
  /// partial batch is dispatched immediately rather than sitting out its
  /// latency budget.
  void drain();

  /// Client-side retry telemetry (see ServerStats::retries_observed).
  void record_retries(std::uint64_t n);

  /// Copy of the server's full-lifetime latency distribution (answered
  /// queries only). Callers wanting per-run percentiles (serve::loadgen)
  /// diff two snapshots with obs::HistogramData::delta_since.
  obs::HistogramData latency_snapshot() const;

  ServerStats stats() const;
  const ServerConfig& config() const { return config_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    std::int64_t node = 0;
    Completion done;
    Clock::time_point enqueued;
    Clock::time_point deadline;  ///< meaningful iff has_deadline
    std::uint64_t qid = 0;       ///< trace-timeline id (process-unique)
    std::uint8_t phase = 0;      ///< open trace phase (index into names)
    bool has_deadline = false;
  };

  /// Shared ownership wrapper for a dispatched batch: if the pool task is
  /// destroyed without running (a pool.task failpoint fired, or teardown
  /// raced), the destructor fails every unresolved query instead of
  /// dropping it.
  struct BatchTask {
    BatchServer* server = nullptr;
    std::vector<Pending> batch;
    ~BatchTask() {
      if (server != nullptr) {
        server->fail_queries(batch, ServeErrorCode::kExecFailed,
                             "batch aborted before completion");
        server->batch_done();
      }
    }
  };

  /// Per-worker context: a private engine plus reusable batch buffers so
  /// steady-state batches perform no tracked allocation.
  struct Worker {
    explicit Worker(std::unique_ptr<InferenceEngine> e)
        : engine(std::move(e)) {}
    std::unique_ptr<InferenceEngine> engine;
    std::vector<std::int64_t> node_ids;
    Tensor logits;  ///< [max_batch, out_dim]
  };

  void dispatcher_loop();
  void run_batch(std::vector<Pending>& batch);
  /// One dispatched batch finished (or aborted); frees an in-flight slot.
  void batch_done();
  Worker* acquire_worker();
  void release_worker(Worker* w);
  std::unique_ptr<InferenceEngine> build_worker_engine() const;

  /// The one resolution path: close the query's trace timeline and run
  /// (and drop) its completion callback. No server lock may be held.
  void resolve(Pending& p, QueryResult result);
  /// Account `n` admitted queries completed (wakes drain()).
  void count_completed(std::uint64_t n);
  /// Resolve every unresolved entry with a `code` error (batch-abort and
  /// fail-fast-shutdown path; counts per code).
  void fail_queries(std::vector<Pending>& batch, ServeErrorCode code,
                    const char* message);

  /// Per-query trace timeline: async spans keyed by qid, one
  /// whole-lifecycle "serve.query" span plus the phase chain
  /// serve.pending -> serve.queue_wait -> serve.exec, closed by
  /// resolve(). No-ops (one relaxed load) unless obs::trace is enabled.
  void trace_begin(Pending& p);
  void trace_advance(Pending& p, std::uint8_t next_phase);

  /// LRU lookup for a batch's node sequence; counts a hit or miss.
  /// Returns nullptr on miss (the caller compiles and store_plan()s).
  std::shared_ptr<const exec::SubgraphPlan> lookup_plan(
      const std::vector<std::int64_t>& key);
  void store_plan(const std::vector<std::int64_t>& key,
                  std::shared_ptr<const exec::SubgraphPlan> plan);

  ServerConfig config_;
  std::int64_t out_dim_ = 0;
  std::int64_t num_nodes_ = 0;

  /// Worker-engine rebuild state: the snapshot's config and parameter
  /// store (tensors storage-shared with the source snapshot), the one
  /// feature slice every worker engine shares (plan-space rows at the
  /// storage precision, prepared here once) and its space tag, and the
  /// context. Together these are exactly the InferenceEngine constructor
  /// arguments, so isolation can replace a poisoned engine in place.
  ModelConfig snap_config_;
  ParamStore snap_params_;
  std::shared_ptr<const GraphContext> ctx_;
  StoredMatrix worker_features_;
  FeatureSpace feature_space_ = FeatureSpace::kOriginal;

  /// kCachedFull mode: the full-graph answer table, computed ONCE at
  /// construction by a throwaway engine and shared immutably by every
  /// batch worker (a query is then a row lookup). Per-worker engines —
  /// and their duplicated workspaces — exist only in kSubgraph mode.
  /// Half precision stores the table quantized (rows widen at answer
  /// time).
  StoredMatrix cached_logits_;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::deque<Worker*> free_workers_;
  std::mutex worker_mutex_;
  std::condition_variable worker_cv_;

  std::unique_ptr<ThreadPool> pool_;
  std::thread dispatcher_;

  /// In-flight (dispatched, unfinished) batch count, bounded to the
  /// worker count by the dispatcher. Without this bound the dispatcher
  /// would instantly park the whole backlog in the pool's unbounded task
  /// queue, emptying pending_ and making max_pending meaningless —
  /// admission control has to see the queue the server actually has.
  std::mutex inflight_mutex_;
  std::condition_variable inflight_cv_;
  std::size_t inflight_ = 0;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  /// Deque, not vector: batches are dispatched from the front while
  /// clients append at the back; popping the front of a long backlog must
  /// not shift every queued query under the submit mutex.
  std::deque<Pending> pending_;
  bool stop_ = false;  ///< intake closed; dispatcher winding down
  bool flush_ = false;  ///< drain() in progress: dispatch partial batches
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::condition_variable drained_cv_;

  /// Degradation counters: atomics, not stats_mutex_, so admission and
  /// failure paths never contend with the latency bookkeeping.
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> deadline_expired_{0};
  std::atomic<std::uint64_t> failed_batches_{0};
  std::atomic<std::uint64_t> failed_queries_{0};
  std::atomic<std::uint64_t> shutdown_failed_{0};
  std::atomic<std::uint64_t> retries_observed_{0};

  mutable std::mutex stats_mutex_;
  std::uint64_t batches_ = 0;
  std::uint64_t queries_answered_ = 0;
  /// Full-lifetime latency distribution of THIS server's answered
  /// queries (plain buckets, guarded by stats_mutex_): the source of
  /// stats()'s percentiles/mean/max. The same observations are mirrored
  /// into the process-global "serve.latency_ms" registry histogram,
  /// which aggregates across servers for export.
  obs::HistogramData latency_data_;

  /// Registry handles, resolved once at construction (the exported
  /// mirrors of the local counters above; full metric catalogue in
  /// docs/ARCHITECTURE.md "Observability").
  obs::Counter* m_submitted_ = nullptr;
  obs::Counter* m_queries_ = nullptr;
  obs::Counter* m_batches_ = nullptr;
  obs::Counter* m_rejected_ = nullptr;
  obs::Counter* m_deadline_expired_ = nullptr;
  obs::Counter* m_failed_batches_ = nullptr;
  obs::Counter* m_failed_queries_ = nullptr;
  obs::Counter* m_shutdown_failed_ = nullptr;
  obs::Counter* m_retries_ = nullptr;
  obs::Gauge* m_pending_depth_ = nullptr;
  obs::Histogram* m_latency_hist_ = nullptr;
  obs::Histogram* m_batch_size_ = nullptr;

  /// Subgraph-plan LRU (plan_cache_capacity > 0, kSubgraph mode):
  /// most-recent at the list front, keyed by the exact node-id sequence
  /// of the batch (seed_row mapping depends on order, so sequence — not
  /// set — identity is required for correctness anyway). Plans are
  /// immutable and engine-independent, so any worker executes a hit.
  struct PlanKeyHash {
    std::size_t operator()(const std::vector<std::int64_t>& key) const {
      std::size_t h = 1469598103934665603ull;  // FNV-1a
      for (const auto v : key) {
        h = (h ^ static_cast<std::size_t>(v)) * 1099511628211ull;
      }
      return h;
    }
  };
  using PlanLru = std::list<std::pair<std::vector<std::int64_t>,
                                      std::shared_ptr<const exec::SubgraphPlan>>>;
  mutable std::mutex plan_cache_mutex_;
  PlanLru plan_lru_;
  std::unordered_map<std::vector<std::int64_t>, PlanLru::iterator,
                     PlanKeyHash>
      plan_cache_;
  std::uint64_t plan_cache_hits_ = 0;
  std::uint64_t plan_cache_misses_ = 0;
};

}  // namespace gsoup::serve
