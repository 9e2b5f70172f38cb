#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/trace.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"
#include "util/failpoint.hpp"

namespace gsoup::serve {

namespace {
/// Trace-phase span names, indexed by Pending::phase.
constexpr const char* kQueryPhaseNames[] = {"serve.pending",
                                            "serve.queue_wait", "serve.exec"};

/// Row `node` of a cached answer table as fp32: a pointer into an fp32
/// table, or the row widened into `wide` from a half one.
const float* answer_row(const Tensor& table, std::int64_t node,
                        std::vector<float>& /*wide*/) {
  return table.data() + node * table.shape(1);
}
const float* answer_row(const HalfBuffer& table, std::int64_t node,
                        std::vector<float>& wide) {
  const std::int64_t d = table.shape(1);
  wide.resize(static_cast<std::size_t>(d));
  half::widen(table.data() + node * d, wide.data(), d, table.precision());
  return wide.data();
}
}  // namespace

const char* serve_error_name(ServeErrorCode code) {
  switch (code) {
    case ServeErrorCode::kOverloaded: return "Overloaded";
    case ServeErrorCode::kDeadlineExceeded: return "DeadlineExceeded";
    case ServeErrorCode::kExecFailed: return "ExecFailed";
    case ServeErrorCode::kShutdown: return "Shutdown";
    case ServeErrorCode::kReplicasExhausted: return "ReplicasExhausted";
  }
  return "Unknown";
}

const Prediction& QueryResult::value() const {
  GSOUP_CHECK_MSG(ok_, "QueryResult::value() on error result: "
                           << serve_error_name(error_.code) << " ("
                           << error_.message << ")");
  return pred_;
}

const ServeError& QueryResult::error() const {
  GSOUP_CHECK_MSG(!ok_, "QueryResult::error() on success result");
  return error_;
}

BatchServer::BatchServer(const Snapshot& snapshot,
                         std::shared_ptr<const GraphContext> ctx,
                         StoredMatrix features, ServerConfig config)
    : config_(config),
      out_dim_(snapshot.config.out_dim),
      num_nodes_(snapshot.graph.num_nodes),
      snap_config_(snapshot.config),
      snap_params_(snapshot.params),
      ctx_(std::move(ctx)) {
  GSOUP_CHECK_MSG(config_.workers >= 1, "server needs >= 1 worker");
  GSOUP_CHECK_MSG(config_.max_batch >= 1, "server needs max_batch >= 1");
  GSOUP_CHECK_MSG(config_.max_pending >= 1, "server needs max_pending >= 1");
  snapshot.validate();
  GSOUP_CHECK_MSG(
      snapshot.matches_graph(ctx_->raw()),
      "snapshot was souped on a "
          << snapshot.graph.num_nodes << "-node/" << snapshot.graph.num_edges
          << "-edge graph; the serving graph has " << ctx_->raw().num_nodes
          << " nodes/" << ctx_->raw().num_edges() << " edges");

  if (config_.report_ids != nullptr) {
    GSOUP_CHECK_MSG(static_cast<std::int64_t>(config_.report_ids->size()) >=
                        num_nodes_,
                    "report_ids map smaller than the serving graph");
  }

  // Registry handles, resolved once so the serving hot paths never touch
  // the registry mutex. These aggregate across every BatchServer in the
  // process sharing the same (prefix, labels); shard servers register
  // their own `serve.shard.*{shard="i"}` families instead. Per-server
  // exact counts stay in the local atomics.
  const std::string& pre = config_.metric_prefix;
  const std::string& lbl = config_.metric_labels;
  m_submitted_ = &obs::counter(pre + "submitted", lbl,
                               "Queries admitted to the pending queue");
  m_queries_ = &obs::counter(pre + "queries", lbl,
                             "Queries answered with a prediction");
  m_batches_ = &obs::counter(pre + "batches", lbl, "Batches executed");
  m_rejected_ = &obs::counter(pre + "rejected", lbl,
                              "Queries shed by admission control");
  m_deadline_expired_ = &obs::counter(
      pre + "deadline_expired", lbl, "Queries expired before execution");
  m_failed_batches_ = &obs::counter(pre + "failed_batches", lbl,
                                    "Batches whose execution threw");
  m_failed_queries_ = &obs::counter(pre + "failed_queries", lbl,
                                    "Queries resolved ExecFailed");
  m_shutdown_failed_ = &obs::counter(pre + "shutdown_failed", lbl,
                                     "Queries resolved Shutdown");
  m_retries_ = &obs::counter(pre + "retries_observed", lbl,
                             "Client-side retries reported to the server");
  m_pending_depth_ =
      &obs::gauge(pre + "pending_depth", lbl, "Current pending-queue depth");
  m_latency_hist_ = &obs::histogram(
      pre + "latency_ms", lbl, {},
      "End-to-end latency of answered queries in milliseconds");
  m_batch_size_ =
      &obs::histogram(pre + "batch_size", lbl, {}, "Executed batch sizes");

  if (config_.mode == QueryMode::kCachedFull) {
    // One full-graph pass, one shared read-only answer table. The engine
    // and its workspaces are scoped to this block — workers only ever
    // read the cached table, so W workers cost no extra workspace at all.
    // Half precision keeps the table quantized (half the steady-state
    // footprint); answers widen the row at lookup.
    InferenceEngine engine(snap_config_, snap_params_, ctx_,
                           std::move(features), QueryMode::kCachedFull,
                           FeatureSpace::kOriginal, config_.precision);
    cached_logits_ = engine.answer_table();  // shares storage
  } else {
    // Bring the features into the form the forward reads ONCE here —
    // plan-space rows on a reordered (GraphPlan) context, quantized in
    // half precision — and share that slice read-only across every
    // worker's engine: W private copies would defeat the "features
    // shared, never copied per engine" contract.
    worker_features_ = forward_features(*ctx_, std::move(features),
                                        FeatureSpace::kOriginal,
                                        config_.precision);
    if (ctx_->plan() != nullptr && ctx_->plan()->active()) {
      feature_space_ = FeatureSpace::kPlan;
    }
    workers_.reserve(config_.workers);
    for (std::size_t i = 0; i < config_.workers; ++i) {
      auto worker = std::make_unique<Worker>(build_worker_engine());
      worker->node_ids.reserve(static_cast<std::size_t>(config_.max_batch));
      worker->logits = Tensor::empty({config_.max_batch, out_dim_});
      free_workers_.push_back(worker.get());
      workers_.push_back(std::move(worker));
    }
  }
  pool_ = std::make_unique<ThreadPool>(config_.workers);
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

BatchServer::~BatchServer() {
  // Two-phase shutdown. Phase 1: close intake — stop_ makes every further
  // submit resolve kShutdown immediately. Phase 2: the dispatcher either
  // drains the queue into batches (drain_on_shutdown) or fails everything
  // pending; the ThreadPool destructor then runs every dispatched batch to
  // completion, so by the time members are destroyed every admitted
  // query's completion callback has run.
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  pool_.reset();
}

std::unique_ptr<InferenceEngine> BatchServer::build_worker_engine() const {
  auto engine = std::make_unique<InferenceEngine>(
      snap_config_, snap_params_, ctx_, worker_features_, config_.mode,
      feature_space_, config_.precision);
  // Sharded serving: the guard rides through isolation rebuilds too — a
  // fresh engine must enforce the same halo-sufficiency invariant.
  if (config_.row_guard != nullptr) {
    engine->set_row_guard(*config_.row_guard);
  }
  return engine;
}

std::future<QueryResult> BatchServer::submit(std::int64_t node) {
  return submit(node, config_.default_deadline_ms);
}

std::future<QueryResult> BatchServer::submit(std::int64_t node,
                                             double deadline_ms) {
  auto promise = std::make_shared<std::promise<QueryResult>>();
  std::future<QueryResult> fut = promise->get_future();
  submit(node, deadline_ms,
         [promise](QueryResult r) { promise->set_value(std::move(r)); });
  return fut;
}

void BatchServer::submit(std::int64_t node, double deadline_ms,
                         Completion done) {
  // Reject bad ids at the door, synchronously: a batch is shared by many
  // clients, and an out-of-range id that only failed inside the engine
  // would poison every other query coalesced with it. This is a caller
  // bug, not load, so it is the one submit failure that still throws.
  GSOUP_CHECK_MSG(node >= 0 && node < num_nodes_,
                  "submit node " << node << " out of range [0, " << num_nodes_
                                 << ")");
  Pending p;
  p.node = node;
  p.done = std::move(done);
  p.qid = obs::trace::next_async_id();
  p.enqueued = Clock::now();
  if (deadline_ms > 0.0) {
    p.has_deadline = true;
    p.deadline = p.enqueued + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double, std::milli>(
                                      deadline_ms));
  }
  // The lifecycle span opens at submit for every query — including ones
  // refused at the door, whose timeline is just a short serve.pending.
  trace_begin(p);

  Pending shed;  // kShedOldest victim (if done is set), resolved unlocked
  bool rejected = false;
  bool shutdown = false;
  {
    std::lock_guard lock(mutex_);
    const bool full = pending_.size() >= config_.max_pending;
    if (stop_) {
      shutdown = true;
    } else if (full && config_.admission == AdmissionPolicy::kRejectNew) {
      rejected = true;
    } else {
      if (full) {
        shed = std::move(pending_.front());
        pending_.pop_front();
      }
      pending_.push_back(std::move(p));
      ++submitted_;
    }
    m_pending_depth_->set(static_cast<double>(pending_.size()));
  }
  if (shutdown) {
    shutdown_failed_.fetch_add(1, std::memory_order_relaxed);
    m_shutdown_failed_->inc();
    resolve(p, QueryResult::failure(ServeErrorCode::kShutdown,
                                    "server is shutting down"));
    return;
  }
  if (rejected) {
    // Refused at the door: never admitted, so it is NOT in submitted_ and
    // needs no completion accounting — only the rejected counter.
    rejected_.fetch_add(1, std::memory_order_relaxed);
    m_rejected_->inc();
    resolve(p, QueryResult::failure(
                   ServeErrorCode::kOverloaded,
                   "pending queue full (max_pending=" +
                       std::to_string(config_.max_pending) + ")"));
    return;
  }
  m_submitted_->inc();
  cv_.notify_all();
  if (shed.done) {
    // The evicted query WAS admitted earlier, so account it completed to
    // keep drain()'s submitted==completed invariant exact.
    rejected_.fetch_add(1, std::memory_order_relaxed);
    m_rejected_->inc();
    resolve(shed, QueryResult::failure(ServeErrorCode::kOverloaded,
                                       "shed by a newer query "
                                       "(kShedOldest)"));
    count_completed(1);
  }
}

void BatchServer::record_retries(std::uint64_t n) {
  retries_observed_.fetch_add(n, std::memory_order_relaxed);
  m_retries_->inc(n);
}

void BatchServer::trace_begin(Pending& p) {
  if (!obs::trace::enabled()) return;
  obs::trace::async_begin("serve.query", p.qid);
  obs::trace::async_begin(kQueryPhaseNames[0], p.qid);
}

void BatchServer::trace_advance(Pending& p, std::uint8_t next_phase) {
  const std::uint8_t prev = p.phase;
  p.phase = next_phase;
  if (!obs::trace::enabled()) return;
  obs::trace::async_end(kQueryPhaseNames[prev], p.qid);
  obs::trace::async_begin(kQueryPhaseNames[next_phase], p.qid);
}

void BatchServer::resolve(Pending& p, QueryResult result) {
  if (obs::trace::enabled()) {
    obs::trace::async_end(kQueryPhaseNames[p.phase], p.qid);
    obs::trace::async_end("serve.query", p.qid);
  }
  // Taking the callback out of `p` is the exactly-once guard.
  std::exchange(p.done, nullptr)(std::move(result));
}

void BatchServer::count_completed(std::uint64_t n) {
  {
    std::lock_guard lock(mutex_);
    completed_ += n;
  }
  drained_cv_.notify_all();
}

void BatchServer::fail_queries(std::vector<Pending>& batch,
                               ServeErrorCode code, const char* message) {
  std::uint64_t n = 0;
  for (const auto& p : batch) n += p.done ? 1 : 0;  // unresolved entries
  if (n == 0) return;
  // Count BEFORE resolving, as run_batch does: a caller woken by its
  // answer must see it in stats().
  if (code == ServeErrorCode::kShutdown) {
    shutdown_failed_.fetch_add(n, std::memory_order_relaxed);
    m_shutdown_failed_->inc(n);
  } else if (code == ServeErrorCode::kDeadlineExceeded) {
    deadline_expired_.fetch_add(n, std::memory_order_relaxed);
    m_deadline_expired_->inc(n);
  } else {
    failed_queries_.fetch_add(n, std::memory_order_relaxed);
    m_failed_queries_->inc(n);
  }
  for (auto& p : batch) {
    if (p.done) resolve(p, QueryResult::failure(code, message));
  }
  count_completed(n);
}

void BatchServer::dispatcher_loop() {
  std::unique_lock lock(mutex_);
  for (;;) {
    if (pending_.empty()) {
      if (stop_) return;
      cv_.wait(lock);
      continue;
    }
    if (stop_ && !config_.drain_on_shutdown) {
      // Fail-fast teardown: resolve everything still queued without
      // touching an engine.
      std::vector<Pending> doomed;
      doomed.reserve(pending_.size());
      std::move(pending_.begin(), pending_.end(), std::back_inserter(doomed));
      pending_.clear();
      m_pending_depth_->set(0.0);
      lock.unlock();
      fail_queries(doomed, ServeErrorCode::kShutdown,
                   "server shut down before dispatch");
      lock.lock();
      continue;
    }
    // Coalesce: flush when a full batch is ready, the oldest query's
    // latency budget has elapsed, a drain() asked for an immediate flush,
    // or the server is shutting down.
    if (static_cast<std::int64_t>(pending_.size()) < config_.max_batch &&
        !stop_ && !flush_) {
      const auto deadline =
          pending_.front().enqueued +
          std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double, std::milli>(
                  config_.max_delay_ms));
      if (Clock::now() < deadline) {
        cv_.wait_until(lock, deadline);
        continue;  // re-evaluate: more arrivals, stop, or budget elapsed
      }
    }
    // Form a batch from the front of the queue, sweeping out queries whose
    // deadline already passed — they are failed kDeadlineExceeded without
    // consuming a batch slot or an engine cycle (shed load is cheap load).
    const auto now = Clock::now();
    std::vector<Pending> batch;
    std::vector<Pending> expired;
    batch.reserve(static_cast<std::size_t>(config_.max_batch));
    {
      OBS_SPAN("serve.batch_form");
      while (!pending_.empty() &&
             static_cast<std::int64_t>(batch.size()) < config_.max_batch) {
        Pending p = std::move(pending_.front());
        pending_.pop_front();
        if (p.has_deadline && now >= p.deadline) {
          expired.push_back(std::move(p));
        } else {
          batch.push_back(std::move(p));
        }
      }
    }
    m_pending_depth_->set(static_cast<double>(pending_.size()));
    lock.unlock();
    if (!expired.empty()) {
      fail_queries(expired, ServeErrorCode::kDeadlineExceeded,
                   "deadline expired before dispatch");
    }
    if (!batch.empty()) {
      // Dispatched: each query leaves serve.pending and starts waiting
      // for an in-flight slot + worker.
      for (auto& p : batch) trace_advance(p, 1);
      // Bound in-flight batches to the worker count before handing the
      // batch to the pool: its task queue is unbounded, and parking the
      // whole backlog there would empty pending_ and blind admission
      // control and the deadline sweep to the server's real queue.
      {
        std::unique_lock inflight_lock(inflight_mutex_);
        inflight_cv_.wait(inflight_lock,
                          [this] { return inflight_ < config_.workers; });
        ++inflight_;
      }
      auto task = std::make_shared<BatchTask>();
      task->server = this;
      task->batch = std::move(batch);
      pool_->submit([task] { task->server->run_batch(task->batch); });
    }
    lock.lock();
  }
}

BatchServer::Worker* BatchServer::acquire_worker() {
  std::unique_lock lock(worker_mutex_);
  worker_cv_.wait(lock, [this] { return !free_workers_.empty(); });
  Worker* w = free_workers_.front();
  free_workers_.pop_front();
  return w;
}

void BatchServer::release_worker(Worker* w) {
  {
    std::lock_guard lock(worker_mutex_);
    free_workers_.push_back(w);
  }
  worker_cv_.notify_one();
}

std::shared_ptr<const exec::SubgraphPlan> BatchServer::lookup_plan(
    const std::vector<std::int64_t>& key) {
  std::lock_guard lock(plan_cache_mutex_);
  const auto it = plan_cache_.find(key);
  if (it == plan_cache_.end()) {
    ++plan_cache_misses_;
    return nullptr;
  }
  ++plan_cache_hits_;
  plan_lru_.splice(plan_lru_.begin(), plan_lru_, it->second);  // touch
  return it->second->second;
}

void BatchServer::store_plan(const std::vector<std::int64_t>& key,
                             std::shared_ptr<const exec::SubgraphPlan> plan) {
  std::lock_guard lock(plan_cache_mutex_);
  if (plan_cache_.count(key) != 0) return;  // another worker raced us in
  plan_lru_.emplace_front(key, std::move(plan));
  plan_cache_.emplace(key, plan_lru_.begin());
  while (plan_cache_.size() > config_.plan_cache_capacity) {
    plan_cache_.erase(plan_lru_.back().first);
    plan_lru_.pop_back();
  }
}

void BatchServer::batch_done() {
  {
    std::lock_guard lock(inflight_mutex_);
    --inflight_;
  }
  inflight_cv_.notify_one();
}

void BatchServer::run_batch(std::vector<Pending>& batch) {
  // Second deadline sweep, now that the batch has actually reached an
  // engine: under a slow or faulty worker a query can expire between
  // dispatch and execution, and computing it anyway would burn engine
  // time on an answer nobody is waiting for.
  {
    const auto now = Clock::now();
    std::vector<Pending> expired;
    std::size_t keep = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (batch[i].has_deadline && now >= batch[i].deadline) {
        expired.push_back(std::move(batch[i]));
      } else {
        if (keep != i) batch[keep] = std::move(batch[i]);
        ++keep;
      }
    }
    batch.resize(keep);
    if (!expired.empty()) {
      fail_queries(expired, ServeErrorCode::kDeadlineExceeded,
                   "deadline expired before execution");
    }
    if (batch.empty()) return;
  }
  const auto n = static_cast<std::int64_t>(batch.size());
  const bool cached = config_.mode == QueryMode::kCachedFull;
  for (auto& p : batch) trace_advance(p, 2);

  Worker* w = nullptr;
  const float* batch_rows = nullptr;  // subgraph mode: worker output
  bool failed = false;
  std::string error;
  try {
    OBS_SPAN("serve.batch_exec");
    FAILPOINT("serve.batch_exec");
    if (!config_.exec_failpoint.empty()) {
      failpoint::eval(config_.exec_failpoint.c_str());
    }
    if (!cached) {
      w = acquire_worker();
      w->node_ids.clear();
      for (const auto& p : batch) w->node_ids.push_back(p.node);
      Tensor out = w->logits.view_prefix({n, out_dim_});
      if (config_.plan_cache_capacity > 0) {
        // Plan LRU: a repeated batch (skewed distributions) reuses its
        // compiled L-hop expansion; a miss compiles it on this worker's
        // engine and publishes it for every worker.
        std::shared_ptr<const exec::SubgraphPlan> plan =
            lookup_plan(w->node_ids);
        if (plan == nullptr) {
          plan = w->engine->compile_query_plan(w->node_ids);
          store_plan(w->node_ids, plan);
        }
        w->engine->query(*plan, out);
      } else {
        w->engine->query(w->node_ids, out);
      }
      batch_rows = out.data();
    }
    // Cached mode needs no engine and no workspace: every answer is a
    // read-only row of the shared table, indexed by the query's node id.
  } catch (const std::exception& e) {
    failed = true;
    error = e.what();
  }

  if (failed) {
    // Worker isolation: only this batch's queries fail, and the engine
    // that threw never serves another batch — its half-mutated executor
    // workspaces are discarded and a fresh engine is rebuilt from the
    // retained snapshot state (parameters are storage-shared, so this is
    // a workspace reallocation, not a weight copy). If even the rebuild
    // throws the old engine is kept: the worker stays in rotation and the
    // next batch gets its own isolated verdict.
    failed_batches_.fetch_add(1, std::memory_order_relaxed);
    m_failed_batches_->inc();
    if (w != nullptr) {
      try {
        w->engine = build_worker_engine();
      } catch (const std::exception&) {
      }
    }
    fail_queries(batch, ServeErrorCode::kExecFailed,
                 ("batch execution failed: " + error).c_str());
    if (w != nullptr) release_worker(w);
    return;
  }

  const auto done = Clock::now();
  // Record stats BEFORE resolving: a client woken by its answer must see
  // this batch reflected in stats(). Failed batches are excluded
  // entirely — queries that got a ServeError were not answered, and
  // counting them would inflate QPS and pollute the latency percentiles.
  {
    std::lock_guard lock(stats_mutex_);
    ++batches_;
    for (const auto& p : batch) {
      const double ms =
          std::chrono::duration<double, std::milli>(done - p.enqueued)
              .count();
      ++queries_answered_;
      latency_data_.observe(ms);
      m_latency_hist_->observe(ms);
    }
  }
  m_batches_->inc();
  m_queries_->inc(static_cast<std::uint64_t>(n));
  m_batch_size_->observe(static_cast<double>(n));
  // A half answer table widens the answered row into a small per-batch
  // buffer (untracked; the tracked-allocation contract covers tensor
  // workspaces).
  std::vector<float> wide_row;
  for (std::int64_t i = 0; i < n; ++i) {
    Pending& p = batch[static_cast<std::size_t>(i)];
    const float* row =
        cached ? std::visit(
                     [&](const auto& table) {
                       return answer_row(table, p.node, wide_row);
                     },
                     cached_logits_)
               : batch_rows + i * out_dim_;
    Prediction pred;
    // The shard id-translation boundary: a shard server is submitted
    // shard-local ids but answers in the caller's global numbering.
    pred.node = config_.report_ids != nullptr ? (*config_.report_ids)[p.node]
                                              : p.node;
    pred.label = static_cast<std::int32_t>(ops::argmax_row(row, out_dim_));
    pred.score = row[pred.label];
    resolve(p, QueryResult::success(pred));
  }
  if (w != nullptr) release_worker(w);
  count_completed(static_cast<std::uint64_t>(n));
}

void BatchServer::drain() {
  std::unique_lock lock(mutex_);
  // The caller has declared no more work is coming: dispatch any waiting
  // partial batch immediately instead of letting it sit out the latency
  // budget.
  flush_ = true;
  cv_.notify_all();
  drained_cv_.wait(lock, [this] { return completed_ == submitted_; });
  flush_ = false;
}

obs::HistogramData BatchServer::latency_snapshot() const {
  std::lock_guard lock(stats_mutex_);
  return latency_data_;
}

ServerStats BatchServer::stats() const {
  ServerStats s;
  {
    std::lock_guard lock(mutex_);
    s.submitted = submitted_;
  }
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.deadline_expired = deadline_expired_.load(std::memory_order_relaxed);
  s.failed_batches = failed_batches_.load(std::memory_order_relaxed);
  s.failed_queries = failed_queries_.load(std::memory_order_relaxed);
  s.shutdown_failed = shutdown_failed_.load(std::memory_order_relaxed);
  s.retries_observed = retries_observed_.load(std::memory_order_relaxed);
  {
    std::lock_guard lock(stats_mutex_);
    s.batches = batches_;
    s.queries = queries_answered_;
    if (s.batches > 0) {
      s.mean_batch =
          static_cast<double>(s.queries) / static_cast<double>(s.batches);
    }
    // Full-lifetime distribution — percentiles, mean and max all describe
    // the same population as the counts (no sampling window).
    if (latency_data_.count() > 0) {
      s.p50_latency_ms = latency_data_.quantile(0.50);
      s.p99_latency_ms = latency_data_.quantile(0.99);
      s.mean_latency_ms = latency_data_.mean();
      s.max_latency_ms = latency_data_.max();
    }
  }
  {
    std::lock_guard cache_lock(plan_cache_mutex_);
    s.plan_cache_hits = plan_cache_hits_;
    s.plan_cache_misses = plan_cache_misses_;
  }
  return s;
}

}  // namespace gsoup::serve
